"""Equality preparation: singularization, Skolemization, and the generators
for the reflexivity, congruence and symmetry/transitivity axiom sets.

Singularization rewrites every rule so that no variable occurs twice in the
relational part of a body and no constant occurs there at all, using explicit
equality atoms instead.  The rewritten program only needs reflexivity plus
symmetry/transitivity to evaluate correctly: congruence reasoning has been
compiled into the rules, which is what makes the later magic-set stage
applicable in the presence of equality.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional

from .kernel import (
    EQUALITY,
    Atom,
    Constant,
    Functional,
    Predicate,
    PredicateId,
    Program,
    Rule,
    TGD,
    Variable,
    eq,
    equality_fault,
    iter_vars,
    pred_label,
    program_predicates,
    substitute,
    vars_of,
)
from .frontend import check_rule

# ---------------------------------------------------------------------------
# Singularization
# ---------------------------------------------------------------------------


def singularize(rules: Iterable[TGD], query: Optional[Predicate] = None):
    """Make every rule singular: relational body atoms are constant-free and
    no variable occurs in them more than once.

    Rules whose head uses the query predicate first get their answer
    variables decoupled: each head argument x (a variable, as the query
    contract of `check_query_predicate` requires) becomes a fresh x' with
    x = x' appended to the body, so that answers are closed under the
    equalities the program derives.  The new variables are `s#1`, `s#2`,
    ...: `#` marks a generated name, which no input name holds.  A body
    equality with a constant on the left is written variable first.  Every
    rule must pass `frontend.check_rule`.
    """
    fresh = (Variable("s#%d" % n) for n in itertools.count(1))
    out = []
    for r in rules:
        check_rule(r)
        if query is not None and any(a.predicate == query for a in r.head):
            r = _decouple_answers(r, query, fresh)
        out.append(_singularize_rule(r, fresh))
    return out


def _decouple_answers(r: TGD, query: Predicate, fresh: Iterator[Variable]) -> TGD:
    body = list(r.body)
    head = []
    for a in r.head:
        if a.predicate != query:
            head.append(a)
            continue
        args = tuple(next(fresh) for _ in a.args)
        body.extend(map(eq, a.args, args))
        head.append(Atom(a.predicate, args))
    return TGD(tuple(body), tuple(head))


def _singularize_rule(r: TGD, fresh: Iterator[Variable]) -> TGD:
    # Constants in relational atoms become fresh variables constrained by an
    # equality placed right after the atom.
    body: list[Atom] = []
    for atom in r.body:
        if atom.is_equality:
            body.append(atom if isinstance(atom.args[0], Variable) else eq(*atom.args[::-1]))
            continue
        args = list(atom.args)
        extras = []
        for i, t in enumerate(args):
            if isinstance(t, Constant):
                v = next(fresh)
                args[i] = v
                extras.append(eq(v, t))
        body.append(Atom(atom.predicate, tuple(args)))
        body.extend(extras)

    # Repeated variables: keep one relational occurrence, rename the rest and
    # link them with equality atoms placed after the earlier of the two atoms
    # involved.  A variable that already occurs in an equality atom (an answer
    # variable) keeps its last occurrence, so the renamed ones sit in front of
    # it; every other variable keeps its first.
    eq_vars = vars_of([a for a in body if a.is_equality])
    occurrences: dict[Variable, list[tuple[int, int]]] = {}
    for ai, atom in enumerate(body):
        if atom.is_equality:
            continue
        for pi, t in enumerate(atom.args):
            if isinstance(t, Variable):
                occurrences.setdefault(t, []).append((ai, pi))

    replace: dict[tuple[int, int], Variable] = {}
    inserts: dict[int, list[Atom]] = {}
    for v, positions in occurrences.items():
        if len(positions) < 2:
            continue
        keep = positions[-1] if v in eq_vars else positions[0]
        for pos in positions:
            if pos == keep:
                continue
            nv = next(fresh)
            replace[pos] = nv
            inserts.setdefault(min(keep[0], pos[0]), []).append(eq(v, nv))

    new_body: list[Atom] = []
    for ai, atom in enumerate(body):
        if not atom.is_equality and any((ai, pi) in replace for pi in range(len(atom.args))):
            args = tuple(
                replace.get((ai, pi), t) for pi, t in enumerate(atom.args)
            )
            atom = Atom(atom.predicate, args)
        new_body.append(atom)
        new_body.extend(inserts.get(ai, ()))
    return TGD(tuple(new_body), r.head)


# ---------------------------------------------------------------------------
# Skolemization
# ---------------------------------------------------------------------------


def skolemize(rules: Iterable[TGD], query: Optional[Predicate] = None) -> Program:
    """Replace each existential variable y of a rule with the term
    sk_<ruleIdx>_<y>(frontier), the frontier being the body variables that
    occur in the head, in body occurrence order, and give each head atom a
    rule of its own.  An equality-generating rule has no existential
    variable, so it passes through as one rule with its equality head.
    Every rule must pass `frontend.check_rule`, so an equality side that
    the body does not bind is rejected, not Skolemized."""
    out: list[Rule] = []
    for idx, r in enumerate(rules):
        check_rule(r)
        sigma: dict[Variable, Functional] = {}
        existential = r.existential_vars
        if existential:
            head_vars = vars_of(r.head)
            frontier: list[Variable] = []
            for v in iter_vars(r.body):
                if v in head_vars and v not in frontier:
                    frontier.append(v)
            for y in sorted(existential, key=lambda v: v.name):
                sigma[y] = Functional("sk_%d_%s" % (idx, y.name), tuple(frontier))
        for h in r.head:
            out.append(Rule(substitute(sigma, h), tuple(r.body)))
    return Program(tuple(out), query)


# ---------------------------------------------------------------------------
# Equality axiom sets
# ---------------------------------------------------------------------------


def _predicates_of(p, extra: Iterable[PredicateId]) -> "list[PredicateId]":
    preds = program_predicates(p.rules if isinstance(p, Program) else p)
    preds |= set(extra)
    preds.discard(EQUALITY)
    return sorted(
        (q for q in preds if q.arity > 0),
        key=lambda q: (pred_label(q), q.arity),
    )


def reflexivity_axioms(p, extra_predicates: Iterable[PredicateId] = ()) -> "list[Rule]":
    """x_i = x_i <- R(x_1..x_n), one rule per position of every non-equality
    predicate of p (and of extra_predicates, e.g. the base instance)."""
    rules = []
    for pred in _predicates_of(p, extra_predicates):
        xs = tuple(Variable("x%d" % (i + 1)) for i in range(pred.arity))
        body = (Atom(pred, xs),)
        for x in xs:
            rules.append(Rule(eq(x, x), body))
    return rules


def congruence_axioms(p, extra_predicates: Iterable[PredicateId] = ()) -> "list[Rule]":
    """R(..x_i'..) <- R(..x_i..), x_i = x_i', one rule per argument position.
    Replacement happens at argument positions only; equality of nested
    subterms never propagates through a function symbol."""
    rules = []
    y = Variable("y")
    for pred in _predicates_of(p, extra_predicates):
        xs = tuple(Variable("x%d" % (i + 1)) for i in range(pred.arity))
        base = Atom(pred, xs)
        for i, x in enumerate(xs):
            head_args = xs[:i] + (y,) + xs[i + 1 :]
            rules.append(Rule(Atom(pred, head_args), (base, eq(x, y))))
    return rules


def sym_trans() -> "list[Rule]":
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    return [
        Rule(eq(x, y), (eq(y, x),)),
        Rule(eq(x, z), (eq(x, y), eq(y, z))),
    ]


# ---------------------------------------------------------------------------
# Equality safety
# ---------------------------------------------------------------------------


def check_eq_safety(p) -> "list[tuple]":
    """Violations of equality safety: every body equality atom must be
    ?x = ?y or ?x = s with s ground, and must share a variable with some
    relational atom of the same body.  Empty result means safe."""
    rules = p.rules if isinstance(p, Program) else tuple(p)
    bad = []
    for r in rules:
        equalities = [a for a in r.body if a.is_equality]
        if not equalities:
            continue
        relational_vars = vars_of([a for a in r.body if not a.is_equality])
        for a in equalities:
            fault = equality_fault(a, relational_vars)
            if fault:
                bad.append((r, a, fault))
    return bad
