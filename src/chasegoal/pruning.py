"""Relevance analysis: keep only rules that can contribute to a query answer.

Rules the query cannot reach through body predicates are set aside first.
The base instance is abstracted into a critical instance (every tuple over
the constants of the remaining rules plus a star constant, typed per sort
when a schema is available).  Those rules run forward on that abstraction,
then the query facts are traced backwards through them; rules never reached
are dropped.  Equality body atoms are inlined away only under the unique name
assumption, when every trace match of one is a constant equal to itself:
without it, each trace match of a kept rule matches all its body equalities.
"""

from __future__ import annotations

from collections import deque
from itertools import count, product
from math import prod
from typing import Iterable, Optional

from .engine import (
    DepthLimitExceeded,
    FactLimitExceeded,
    Limits,
    naive_fixpoint,
)
from .eqprep import reflexivity_axioms, sym_trans
from .finalize import inline_equalities
from .frontend import constant_sorts
from .kernel import (
    DEPTH,
    EQUALITY,
    Atom,
    Constant,
    Functional,
    Instance,
    JoinPlan,
    Predicate,
    PredicateId,
    Program,
    Rule,
    Term,
    fresh_name,
    iter_subterms,
    pred_label,
    rule_atoms,
)


# Guards of the forward fixpoint on the critical instance.
FIXPOINT_LIMITS = Limits(max_depth=10, max_facts=100_000)


class AbstractionFixpointDiverged(RuntimeError):
    """The forward fixpoint on the critical instance hit a guard; retry with
    function symbols abstracted to constants."""

    rule: "Optional[Rule]" = None  # the rule the fixpoint's guard tripped in


# ---------------------------------------------------------------------------
# Abstract instances
# ---------------------------------------------------------------------------


def _program_constants(rules) -> "set[Constant]":
    return {
        s
        for r in rules
        for atom in rule_atoms(r)
        for t in atom.args
        for s in iter_subterms(t)
        if isinstance(s, Constant)
    }


def critical_instance(
    program: Program,
    base: "Instance | Iterable[PredicateId]",
    typed: bool = False,
    schema=None,
    max_facts: Optional[int] = None,
) -> Instance:
    """All facts over the predicates of the base signature with arguments
    from the program's constants plus a star.  With a schema, each sort gets
    its own star, named after it, and a constant only appears at positions
    of the sorts the rules give it (`constant_sorts`), of each of them when
    there are several, as when function abstraction puts one constant in
    place of terms of different sorts.  A constant of no known sort is
    allowed everywhere (the abstraction stays an over-approximation).  Its
    size grows as a power of the arity, so it is counted before any fact is
    built, and more than `max_facts` facts raise `FactLimitExceeded`."""
    base_preds = base.predicates() if isinstance(base, Instance) else set(base)
    constants = _program_constants(program.rules)
    taken = {c.name for c in constants}
    if not (typed and schema):
        schema = {}
    sorts_of = constant_sorts((a for r in program.rules for a in rule_atoms(r)), schema)
    stars: dict[Optional[str], Constant] = {}

    def star_of(sort: Optional[str]) -> Constant:
        c = stars.get(sort)
        if c is None:
            c = Constant(fresh_name(("*%s%s" % (sort or "", "'" * n) for n in count()), taken))
            stars[sort] = c
        return c

    pools: dict[PredicateId, list] = {}
    for pred in sorted(base_preds, key=pred_label):
        sorts = schema.get((pred.name, pred.arity)) if isinstance(pred, Predicate) else None
        pools[pred] = []
        for sort in sorts or (None,) * pred.arity:
            ok = [c for c in constants if sort is None or sort in sorts_of.get(c, (sort,))]
            pools[pred].append(sorted(ok + [star_of(sort)], key=lambda c: c.name))
    size = sum(prod(map(len, p)) for p in pools.values())
    if max_facts is not None and size > max_facts:
        raise FactLimitExceeded(
            "critical instance of %d facts, more than %d" % (size, max_facts)
        )
    out = Instance()
    for pred, p in pools.items():
        out.extend(pred, product(*[[c.id for c in pool] for pool in p]))
    return out


def abstract_functions_to_constants(program: Program) -> Program:
    """Replace every outermost function term f(..) by a constant unique to
    f, keeping rule and atom positions aligned with the input program."""
    taken = {c.name for c in _program_constants(program.rules)}
    cache: dict[str, Constant] = {}

    def conv(t: Term) -> Term:
        if isinstance(t, Functional):
            c = cache.get(t.symbol)
            if c is None:
                c = Constant(fresh_name(("_fn_%s%s" % (t.symbol, "'" * n) for n in count()), taken))
                cache[t.symbol] = c
            return c
        return t

    def conv_atom(a: Atom) -> Atom:
        return Atom(a.predicate, tuple(conv(t) for t in a.args))

    rules = tuple(
        Rule(conv_atom(r.head), tuple(conv_atom(a) for a in r.body))
        for r in program.rules
    )
    return Program(rules, program.query)


# ---------------------------------------------------------------------------
# Relevance
# ---------------------------------------------------------------------------


def relevance(
    program: Program,
    base: "Instance | Iterable[PredicateId]",
    una_known: bool = False,
    typed: bool = False,
    schema=None,
    abstract_functions: bool = False,
    fixpoint_limits: Limits = FIXPOINT_LIMITS,
) -> Program:
    """Subset of the program's rules reachable backwards from the query facts
    of the abstract fixpoint, in input order.

    Only the rules the query can reach through body predicates take part:
    a rule is needed when its head predicate is wanted, and its body
    predicates are then wanted too; once equality is wanted, so is every
    rule with an equality head.  The critical instance (over the wanted
    base predicates), the equality axioms, the fixpoint and the trace are
    built from the needed rules alone, so only they can diverge or make
    the critical instance too large.

    A body equality atom that some trace step matched is blocked; the
    others are removed from the kept rules by inlining x = t.  With the
    unique name assumption, a match on a trivial equality c = c between
    constants blocks nothing.  The trace still follows that fact back to
    the rules deriving it: every base constant the rules do not name is
    the star, so * = * can stand for a merge of two named constants.
    """
    if program.query is None:
        raise ValueError("relevance needs a program with a query predicate")
    heads: dict[PredicateId, list[int]] = {}
    for idx, rule in enumerate(program.rules):
        heads.setdefault(rule.head.predicate, []).append(idx)
    wanted, todo, needed = {program.query}, [program.query], []
    while todo:
        for idx in heads.pop(todo.pop(), ()):
            needed.append(idx)
            fresh = {a.predicate for a in program.rules[idx].body} - wanted
            wanted |= fresh
            todo += fresh
    needed.sort()
    analysis = Program(tuple(program.rules[idx] for idx in needed), program.query)
    if abstract_functions:
        analysis = abstract_functions_to_constants(analysis)
    base_preds = base.predicates() if isinstance(base, Instance) else set(base)

    # Abstraction only adds constants, so a critical instance too large
    # here is too large on a retry as well: its `FactLimitExceeded` is final.
    bprime = critical_instance(
        analysis, base_preds & wanted, typed, schema, fixpoint_limits.max_facts
    )
    try:
        aux = reflexivity_axioms(analysis, bprime.predicates()) + sym_trans()
        fixpoint = naive_fixpoint(
            tuple(analysis.rules) + tuple(aux), bprime, fixpoint_limits
        )
    except (DepthLimitExceeded, FactLimitExceeded) as err:
        diverged = AbstractionFixpointDiverged(str(err))
        diverged.rule = err.rule
        raise diverged from err

    # The trace runs on (predicate, row) pairs, from the query facts whose
    # arguments are all constants, the terms of depth 0.
    query = program.query
    queue = deque(
        (query, row) for row in fixpoint.rows(query) if not any([DEPTH[t] for t in row])
    )
    seen = set(queue)
    kept: set[int] = set()
    blocked: set[tuple[int, int]] = set()
    # Source rules by head predicate, each body compiled for the variables
    # its head binds.
    sources: dict[PredicateId, list] = {}
    for idx, rule in list(enumerate(analysis.rules)) + [(None, r) for r in sym_trans()]:
        plan = JoinPlan(rule.body, entry=rule.head, emit=rule.body)
        preds = [a[0] for a in rule.body]
        sources.setdefault(rule.head.predicate, []).append((idx, preds, plan))

    while queue:
        pred, row = queue.popleft()
        for idx, preds, plan in sources.get(pred, ()):
            matches: list[tuple] = []
            plan.run((row,), fixpoint, matches, {}, {})
            for body in matches:
                if idx is not None:
                    kept.add(idx)
                if len(preds) == 1:
                    body = (body,)
                for i, g in enumerate(zip(preds, body)):
                    if g[0] is EQUALITY and idx is not None:
                        s, t = g[1]
                        if not (una_known and s == t and not DEPTH[s]):
                            blocked.add((idx, i))
                    if g not in seen:
                        seen.add(g)
                        queue.append(g)

    out = []
    for idx in sorted(kept):
        rule = program.rules[needed[idx]]
        unblocked = [
            j
            for j, a in enumerate(rule.body)
            if a.is_equality and (idx, j) not in blocked
        ]
        out.append(inline_equalities(rule, unblocked))
    return Program(tuple(out), program.query)
