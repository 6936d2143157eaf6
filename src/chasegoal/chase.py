"""Fixpoint evaluation.

`chase` runs the representative-based chase for programs whose bodies are
function-, constant- and equality-free (what the pipeline produces): equality
heads merge union-find classes, the class representative is the term-order
minimum, and facts holding a losing term at an argument position are
rewritten in place.  `naive_fixpoint` evaluates arbitrary logic programs with
explicit equality atoms and serves as the reference semantics.  Both run the
same semi-naive loop over rules compiled once into one join plan per pivot.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Optional

from .kernel import (
    Atom,
    Constant,
    Instance,
    JoinPlan,
    Predicate,
    Program,
    Rule,
    Term,
    Variable,
    eq,
    instantiator,
    is_ground,
    iter_subterms,
    iter_vars,
    occurs_in,
    map_shallow,
    term_depth,
    term_key,
    vars_of,
)

# ---------------------------------------------------------------------------
# Limits and errors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Limits:
    max_depth: int = 20
    max_facts: int = 10_000_000


class ChaseError(RuntimeError):
    pass


class DepthLimitExceeded(ChaseError):
    pass


class FactLimitExceeded(ChaseError):
    pass


class BodyContractViolation(ChaseError):
    pass


def _guard_fact(fact: Atom, n_facts: int, limits: Limits):
    for t in fact.args:
        if term_depth(t) > limits.max_depth:
            raise DepthLimitExceeded(
                "term depth exceeds %d in %r" % (limits.max_depth, fact)
            )
    if n_facts > limits.max_facts:
        raise FactLimitExceeded("more than %d facts" % limits.max_facts)


# ---------------------------------------------------------------------------
# Union-find over ground terms
# ---------------------------------------------------------------------------


class UnionFind:
    """Union-find whose class representative is the term-order minimum."""

    def __init__(self):
        self.parent: dict[Term, Term] = {}

    def find(self, t: Term) -> Term:
        parent = self.parent
        root = t
        while root in parent:
            root = parent[root]
        while t is not root:
            nxt = parent.get(t)
            if nxt is None:
                break
            parent[t] = root
            t = nxt
        return root

    def union(self, s: Term, t: Term) -> "tuple[Term, Term] | None":
        """Merge the classes of s and t; returns (representative, loser)
        roots, or None if they were already the same class."""
        rs, rt = self.find(s), self.find(t)
        if rs == rt:
            return None
        if term_key(rs) <= term_key(rt):
            rep, loser = rs, rt
        else:
            rep, loser = rt, rs
        self.parent[loser] = rep
        return rep, loser

    def as_map(self) -> "dict[Term, Term]":
        return {t: self.find(t) for t in list(self.parent)}


# ---------------------------------------------------------------------------
# Chase
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChaseStats:
    derived_facts: int
    merges: int
    rule_applications: int
    iterations: int


@dataclass(frozen=True)
class ChaseResult:
    instance: Instance
    mu: "dict[Term, Term]"
    classes: "dict[Term, frozenset[Term]]"
    stats: ChaseStats
    derived: "tuple[Atom, ...]" = ()


def _check_chase_contract(program: Program):
    for r in program.rules:
        body_vars = vars_of(r.body)
        if vars_of(r.head) - body_vars:
            raise BodyContractViolation("unbound head variable in %r" % (r,))
        for a in r.body:
            if a.is_equality:
                raise BodyContractViolation("equality atom in body of %r" % (r,))
            for t in a.args:
                if not isinstance(t, Variable):
                    raise BodyContractViolation(
                        "non-variable body argument %r in %r" % (t, r)
                    )


class _Store:
    """An instance and the facts added to it since the current round began."""

    def __init__(self, limits: Limits):
        self.instance = Instance()
        self.limits = limits
        self.delta: set[Atom] = set()

    def insert(self, fact: Atom) -> bool:
        if not self.instance.add(fact):
            return False
        _guard_fact(fact, len(self.instance), self.limits)
        self.delta.add(fact)
        return True


class _ChaseState(_Store):
    def __init__(self, limits: Limits):
        super().__init__(limits)
        self.uf = UnionFind()
        self.derived: list[Atom] = []
        self.merges = 0
        self.applications = 0
        self.epoch = 0

    def is_stale(self, term: Term) -> bool:
        return any(s in self.uf.parent for s in iter_subterms(term))

    def merge(self, s: Term, t: Term, count: bool):
        merged = self.uf.union(s, t)
        if merged is None:
            return
        rep, loser = merged
        if count:
            self.merges += 1
            self.derived.append(eq(s, t))
        self.epoch += 1
        # Rewrite every fact holding the losing term at an argument position.
        # A fact that still mentions the loser below a function symbol after
        # the rewrite is dropped instead: its body facts were rewritten too,
        # re-enter the delta, and re-derive the normalized form.  Keeping it
        # would make the instance depend on the order rules fired in.
        mu = {loser: rep}
        for fact in list(self.instance.containing(loser)):
            self.instance.discard(fact)
            new = map_shallow(mu, fact)
            if any(occurs_in(loser, a) for a in new.args):
                continue
            if self.instance.add(new):
                self.delta.add(new)

    def apply_head(self, head: Atom, count: bool = True):
        args = tuple(self.uf.find(t) for t in head.args)
        if head.is_equality:
            s, t = args
            if s != t:
                self.merge(s, t, count)
            return
        fact = Atom(head.predicate, args)
        if self.insert(fact) and count:
            self.derived.append(fact)


class _CompiledRule:
    """A rule with body of at least one atom, compiled once: a join plan per
    pivot (the body atom matched against the delta), all sharing one slot
    layout, so a match is one tuple whatever pivot produced it."""

    __slots__ = ("pivots", "head", "body", "head_is_eq")

    def __init__(self, rule: Rule):
        slots: dict[Variable, int] = {}
        for v in iter_vars(rule.body):
            slots.setdefault(v, len(slots))
        self.pivots = tuple(
            (a.predicate, JoinPlan(rule.body[:i] + rule.body[i + 1 :], entry=a, slots=slots))
            for i, a in enumerate(rule.body)
        )
        self.head = instantiator(rule.head, slots)
        self.body = tuple(instantiator(a, slots) for a in rule.body)
        self.head_is_eq = rule.head.is_equality

    def matches(self, by_pred: dict, instance: Instance) -> "list[tuple]":
        out: list[tuple] = []
        for pred, plan in self.pivots:
            for fact in by_pred.get(pred, ()):
                # A fact rewritten away by a merge is stale; its normalized
                # form re-entered the delta on its own.
                if fact in instance:
                    plan.run_from(fact, instance, out)
        return out


def _compile(rules: Iterable[Rule], add) -> "list[_CompiledRule]":
    """Compile the rules that have a body; pass the others' heads to `add`."""
    compiled = []
    for r in rules:
        if r.body:
            compiled.append(_CompiledRule(r))
        else:
            add(r.head)
    return compiled


def _saturate(rules: "list[_CompiledRule]", state: _Store, fire, rng=None) -> int:
    """Semi-naive rounds until the delta is empty: every rule is matched with
    each body atom pivoted on the previous round's new facts, and `fire`
    applies one rule's batch of matches before the next rule is matched.
    Returns the number of rounds."""
    rounds = 0
    while state.delta:
        rounds += 1
        delta = list(state.delta)
        state.delta = set()
        if rng is not None:
            rng.shuffle(delta)
        by_pred: dict = {}
        for fact in delta:
            by_pred.setdefault(fact.predicate, []).append(fact)
        order = list(rules)
        if rng is not None:
            rng.shuffle(order)
        for rule in order:
            fire(rule, rule.matches(by_pred, state.instance))
    return rounds


def chase(
    program: Program,
    base: "Instance | Iterable[Atom]",
    limits: Limits = Limits(),
    seed: Optional[int] = None,
) -> ChaseResult:
    """Run the representative-based chase of `program` over `base`.

    Base facts may contain equality atoms (their classes are merged up
    front) and are not counted as derived.  The `seed` only shuffles the
    evaluation order; the resulting instance and term map are the same for
    every seed.
    """
    _check_chase_contract(program)
    state = _ChaseState(limits)

    for fact in base:
        if not is_ground(fact):
            raise BodyContractViolation("non-ground base fact %r" % (fact,))
        state.apply_head(fact, count=False)
    rules = _compile(program.rules, state.apply_head)

    def fire(rule: _CompiledRule, matches: "list[tuple]"):
        epoch0 = state.epoch
        for vals in matches:
            if state.epoch != epoch0:
                # Merges landed while this batch was being applied, so the
                # facts this match was built from may be gone.
                if rule.head_is_eq:
                    # The equality was entailed when the body matched and
                    # entailed equalities only grow, so merging the
                    # normalized sides now is sound.  Skip only a side that
                    # still mentions a merged-away term; the rewritten body
                    # facts re-enter the delta and re-derive it.
                    s, t = (state.uf.find(v) for v in rule.head(vals).args)
                    if state.is_stale(s) or state.is_stale(t):
                        continue
                    state.applications += 1
                    if s != t:
                        state.merge(s, t, True)
                    continue
                # Relational head: fire only if the premise still holds;
                # rewritten facts re-enter the delta and re-match later.
                if any(atom(vals) not in state.instance for atom in rule.body):
                    continue
            state.applications += 1
            state.apply_head(rule.head(vals))

    rng = random.Random(seed) if seed is not None else None
    rounds = _saturate(rules, state, fire, rng)

    mu = state.uf.as_map()
    classes: dict[Term, set[Term]] = {}
    for t, rep in mu.items():
        classes.setdefault(rep, {rep}).add(t)
    stats = ChaseStats(
        derived_facts=len(state.derived),
        merges=state.merges,
        rule_applications=state.applications,
        iterations=rounds,
    )
    return ChaseResult(
        instance=state.instance,
        mu=mu,
        classes={rep: frozenset(members) for rep, members in classes.items()},
        stats=stats,
        derived=tuple(state.derived),
    )


# ---------------------------------------------------------------------------
# Naive fixpoint (reference semantics)
# ---------------------------------------------------------------------------


def naive_fixpoint(
    program: "Program | Iterable[Rule]",
    base: "Instance | Iterable[Atom]",
    limits: Limits = Limits(),
) -> Instance:
    """Least fixpoint of a logic program where equality atoms are ordinary
    facts.  Bodies may contain constants, function terms and equality atoms;
    no representative merging happens here."""
    rules = tuple(program.rules if isinstance(program, Program) else program)
    for r in rules:
        if vars_of(r.head) - vars_of(r.body):
            raise BodyContractViolation("unbound head variable in %r" % (r,))

    store = _Store(limits)
    for fact in base:
        store.insert(fact)
    compiled = _compile(rules, store.insert)

    def fire(rule: _CompiledRule, matches: "list[tuple]"):
        for vals in matches:
            store.insert(rule.head(vals))

    _saturate(compiled, store, fire)
    return store.instance


# ---------------------------------------------------------------------------
# Answers
# ---------------------------------------------------------------------------


def constant_answers(instance: Instance, query: Predicate) -> "set[tuple[Constant, ...]]":
    """Query facts whose arguments are all constants."""
    out = set()
    for fact in instance.with_predicate(query):
        if all(isinstance(t, Constant) for t in fact.args):
            out.add(fact.args)
    return out


def extract_answers(result: ChaseResult, query: Predicate) -> "set[tuple[Constant, ...]]":
    """All constant tuples equivalent to some query fact of the chase:
    the product of the constant members of each argument's class."""
    answers: set[tuple[Constant, ...]] = set()
    for fact in result.instance.with_predicate(query):
        options = []
        for t in fact.args:
            members = result.classes.get(t, frozenset((t,)))
            constants = [m for m in members if isinstance(m, Constant)]
            if not constants:
                break
            options.append(constants)
        else:
            answers.update(product(*options))
    return answers
