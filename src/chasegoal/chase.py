"""Fixpoint evaluation.

`chase` runs the representative-based chase for programs whose bodies are
function-, constant- and equality-free (what the pipeline produces): equality
heads merge union-find classes, the class representative is the term-order
minimum, and facts holding a losing term at an argument position are
rewritten in place.  `naive_fixpoint` evaluates arbitrary logic programs with
explicit equality atoms and serves as the reference semantics.

Both run the same semi-naive loop over rules compiled once into one join
plan per pivot.  A round finds each new match once, at the first body atom
whose fact is new.  A part of a body that no chain of shared variables
links to the head is only checked for one witness: the rule fires for the
matches of the rest once it holds, never once per witness.
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
        # A dict used as a set: a round keeps its delta for the duplicate-free
        # pivots, and with thousands of facts a dict grown fact by fact takes
        # a third to a half of the memory of a set.
        self.delta: dict[Atom, None] = {}

    def insert(self, fact: Atom) -> bool:
        if not self.instance.add(fact):
            return False
        _guard_fact(fact, len(self.instance), self.limits)
        self.delta[fact] = None
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
                self.delta[new] = None

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


def _components(rule: Rule) -> "tuple[tuple[Atom, ...], list[tuple[Atom, ...]]]":
    """The body split into its components, the groups of atoms connected by
    shared variables: (the atoms of the components that hold a head
    variable, in body order; the other, head-free components)."""
    head = vars_of(rule.head)
    comps: list = []  # (variables, atom indices)
    for i, a in enumerate(rule.body):
        vs, idx = vars_of(a), [i]
        for c in [c for c in comps if not c[0].isdisjoint(vs)]:
            comps.remove(c)
            vs |= c[0]
            idx += c[1]
        comps.append((vs, idx))
    linked = sorted(i for vs, idx in comps if not vs.isdisjoint(head) for i in idx)
    free = [tuple(rule.body[i] for i in sorted(idx)) for vs, idx in comps if vs.isdisjoint(head)]
    return tuple(rule.body[i] for i in linked), free


def _pivots(atoms: "tuple[Atom, ...]", slots) -> tuple:
    """A join plan per atom of a conjunction, the atom matched against a
    delta fact; the atoms before it may only match facts outside the delta."""
    return tuple(
        (a.predicate, JoinPlan(atoms[:i] + atoms[i + 1 :], entry=a, slots=slots, old=i))
        for i, a in enumerate(atoms)
    )


def _holds(pivots: tuple, by_pred: dict, instance: Instance) -> bool:
    """Whether a conjunction has a match holding one of the delta facts."""
    return any(
        plan.holds_from(fact, instance)
        for pred, plan in pivots
        for fact in by_pred.get(pred, ())
        if fact in instance
    )


class _CompiledRule:
    """A rule with a body of at least one atom, compiled once.

    A head-free component of the body (see `_components`) only has to
    hold: it waits for one witness and is never joined with the rest, since
    its matches cannot change the head.  The head-linked atoms get a join
    plan per pivot, all sharing one slot layout, so a match is one tuple
    whatever pivot produced it.  In the round the last waiting component
    gets its witness, the head-linked atoms are joined in full once, by the
    first pivot's plan from every fact of its predicate; from then on they
    are pivoted on the delta.  `waiting` is the per-call state of that
    switch."""

    __slots__ = ("pivots", "waiting", "head", "body", "head_is_eq")

    def __init__(self, rule: Rule):
        slots: dict[Variable, int] = {}
        for v in iter_vars(rule.body):
            slots.setdefault(v, len(slots))
        linked, free = _components(rule)
        self.pivots = _pivots(linked, slots)
        self.waiting = [_pivots(c, slots) for c in free]
        self.head = instantiator(rule.head, slots)
        self.head_is_eq = rule.head.is_equality
        # Only the chase's re-check of a relational head rebuilds the body,
        # and only its head-linked atoms: chase bodies hold only variables,
        # so a merge rewrites a witness into another witness.
        self.body = () if self.head_is_eq else tuple(instantiator(a, slots) for a in linked)

    def matches(self, by_pred: dict, delta: "dict[Atom, None]", instance: Instance) -> "list[tuple]":
        """This round's new matches of the head-linked atoms, given the
        round's `delta` and its facts grouped by predicate."""
        out: list[tuple] = []
        if self.waiting:
            self.waiting = [c for c in self.waiting if not _holds(c, by_pred, instance)]
            if self.waiting:
                return out
            if not self.pivots:
                return [()]  # no head-linked atom, so the head is ground
            pred, plan = self.pivots[0]
            for fact in instance.with_predicate(pred):
                plan.run_from(fact, instance, out)
            return out
        for pred, plan in self.pivots:
            for fact in by_pred.get(pred, ()):
                # A fact rewritten away by a merge is stale; its normalized
                # form re-entered the delta on its own.
                if fact in instance:
                    plan.run_from(fact, instance, out, delta)
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
    """Semi-naive rounds until the delta is empty.  Each round matches every
    rule against the facts the previous round added (its delta) and `fire`
    applies one rule's batch of matches before the next rule is matched, so
    later rules see what earlier ones added.  A batch holds each new match
    of the head-linked atoms once, found at the first of its atoms whose
    fact is in the delta; a rule with head-free components has none until
    they all hold (`_CompiledRule`).  Returns the number of rounds."""
    rounds = 0
    while state.delta:
        rounds += 1
        fresh, state.delta = state.delta, {}
        by_pred: dict = {}
        for fact in fresh:
            by_pred.setdefault(fact.predicate, []).append(fact)
        order = list(rules)
        if rng is not None:
            for facts in by_pred.values():
                rng.shuffle(facts)
            rng.shuffle(order)
        for rule in order:
            fire(rule, rule.matches(by_pred, fresh, state.instance))
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
