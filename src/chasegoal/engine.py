"""Fixpoint evaluation.

`chase` runs the representative-based chase for programs whose bodies are
function-, constant- and equality-free (what the pipeline produces): equality
heads merge union-find classes and facts holding a losing term at an argument
position are rewritten in place.  A class forms with the term-order minimum
as its representative.  A merge can leave a representative mentioning the
loser below a function symbol; the class then passes to its least member
that mentions no merged-away term, and the facts holding the old
representative are rewritten to it.  Only when no such member exists are
those facts dropped, to be re-derived in normalized form.  Such stale terms
stay out of the term map.  `naive_fixpoint` evaluates arbitrary logic
programs with explicit equality atoms and serves as the reference semantics.

Both start from the base they are given: an `Instance` base is copied in
O(predicates), sharing its per-predicate relations copy-on-write, so a
merge that rewrites a base fact clones that fact's relation alone, and the
base's facts are checked once per distinct argument term.  Base facts never
enter a delta.  Each rule is compiled into one join plan per body atom
once per process (`_RULES`); a plan runs as a kernel, a generated function
of nested loops that builds the rule's head at each match (see
`kernel.JoinPlan`).  One routine (`_match`) matches every conjunction with
them, one kernel call per plan and round.  The first round is naive: it
joins each rule once in full, entered at the body atom whose relation is
smallest at that moment.  Every later round is semi-naive: it finds each
new match once, at the first body atom whose fact the previous round
added.  Every round joins only the facts present when it began, so a
match holding a fact the round adds is left to the next round, which
finds it once.  A part of a body that no chain of shared variables links
to the head is only checked for one witness: the rule fires for the
matches of the rest once it holds, never once per witness.  A kernel builds the index of a relation's
argument position the first time it runs with that position as a step's
key; a step bound at every position tests the relation's fact set and
needs no index.  The term index only merges read is built at the first
merge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Optional

from .kernel import (
    Atom,
    EQUALITY,
    FIRST_MATCH,
    Constant,
    Functional,
    Instance,
    JoinPlan,
    MatchFound,
    Predicate,
    Program,
    Rule,
    Term,
    Variable,
    eq,
    is_ground,
    iter_subterms,
    occurs_in,
    map_shallow,
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
        if t.depth > limits.max_depth:
            raise DepthLimitExceeded(
                "term depth exceeds %d in %r" % (limits.max_depth, fact)
            )
    if n_facts > limits.max_facts:
        raise FactLimitExceeded("more than %d facts" % limits.max_facts)


def _intake(base: "Instance | Iterable[Atom]", limits: Limits) -> Instance:
    """The instance a fixpoint starts from: a copy-on-write copy of the
    base, which the caller keeps unchanged.  Its facts are checked once per
    distinct argument term, not per fact."""
    instance = base.copy() if isinstance(base, Instance) else Instance(base)
    for t in instance.argument_terms():
        if t.key is not None and t.depth <= limits.max_depth:
            continue
        fact = next(f for f in instance if t in f.args)
        if not is_ground(fact):
            raise BodyContractViolation("non-ground base fact %r" % (fact,))
        _guard_fact(fact, len(instance), limits)
    if len(instance) > limits.max_facts:
        raise FactLimitExceeded("more than %d facts" % limits.max_facts)
    return instance


# ---------------------------------------------------------------------------
# Union-find over ground terms
# ---------------------------------------------------------------------------


class UnionFind:
    """Union-find over ground terms.  A union makes the term-order lesser
    root the representative; `reroot` hands a class to another member."""

    def __init__(self):
        self.parent: dict[Term, Term] = {}

    def find(self, t: Term) -> Term:
        parent = self.parent
        root = t
        while root in parent:
            root = parent[root]
        while t is not root:
            nxt = parent[t]
            parent[t] = root
            t = nxt
        return root

    def union(self, s: Term, t: Term) -> "tuple[Term, Term]":
        """Merge the classes of s and t, which the caller has found to
        differ; returns the (representative, loser) roots."""
        rs, rt = self.find(s), self.find(t)
        if rs.key <= rt.key:
            rep, loser = rs, rt
        else:
            rep, loser = rt, rs
        self.parent[loser] = rep
        return rep, loser

    def reroot(self, root: Term, member: Term):
        """Make `member` the representative of the class `root` heads."""
        del self.parent[member]
        self.parent[root] = member

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

    def __init__(self, instance: Instance, limits: Limits):
        self.instance = instance
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

    def fire(self, matches: "list[tuple[Atom]]"):
        """Apply a rule's batch of matches: insert the head of each."""
        for (head,) in matches:
            self.insert(head)


def _below(needle: Term, term: Term) -> bool:
    """Whether `needle` occurs in `term` below a function symbol."""
    return isinstance(term, Functional) and any(occurs_in(needle, a) for a in term.args)


class _ChaseState(_Store):
    def __init__(self, instance: Instance, limits: Limits):
        super().__init__(instance, limits)
        self.uf = UnionFind()
        self.derived: list[Atom] = []
        self.merges = 0
        self.applications = 0

    def fire(self, matches: "list[tuple[Atom]]"):
        """Apply a rule's batch of matches.  Only an equality head merges,
        so only an equality rule's batch can hold matches built from facts
        a merge in the same batch has rewritten.  The equality such a match
        entails still holds, so `apply_head` merges its normalized sides,
        unless a side is stale."""
        for (head,) in matches:
            self.applications += self.apply_head(head)

    def is_stale(self, term: Term) -> bool:
        """Whether `term` mentions a merged-away term below a function symbol."""
        parent = self.uf.parent
        return isinstance(term, Functional) and any(
            s in parent for a in term.args for s in iter_subterms(a)
        )

    def merge(self, s: Term, t: Term):
        rep, loser = self.uf.union(s, t)
        self.merges += 1
        self.derived.append(eq(s, t))
        # Rewrite every fact holding the losing term at an argument position,
        # and every fact holding a representative the merge made stale.
        facts = self.instance.containing(loser)
        mu = {loser: rep}
        stale = {a for fact in facts for a in fact.args if _below(loser, a)}
        dead = self._rehome(stale, mu) if stale else ()
        for fact in facts:
            self.instance.discard(fact)
            # A fact holding a stale representative with no live member is
            # dropped: its body facts were rewritten too, re-enter the
            # delta, and re-derive it in normalized form.
            if dead and not dead.isdisjoint(fact.args):
                continue
            new = map_shallow(mu, fact)
            if self.instance.add(new):
                self.delta[new] = None

    def _rehome(self, stale: "set[Term]", mu: "dict[Term, Term]") -> "set[Term]":
        """Hand the class of each representative in `stale` to its least
        member that mentions no merged-away term, adding the change to `mu`;
        returns the representatives whose class has no such member.  Every
        choice is made before any class changes hands, so none depends on
        the order the facts were visited in."""
        live: dict[Term, list[Term]] = {}
        for m in self.uf.parent:
            root = self.uf.find(m)
            if root in stale and not self.is_stale(m):
                live.setdefault(root, []).append(m)
        for root, members in live.items():
            mu[root] = min(members, key=term_key)
            self.uf.reroot(root, mu[root])
        return stale - live.keys()

    def apply_head(self, head: Atom) -> bool:
        """Insert a ground head's fact or merge its equality's sides, each
        side normalized.  Returns False, skipping the equality, when a side
        still mentions a merged-away term: a merge earlier in the same batch
        rewrote the facts the match was built from, and the rewritten facts
        re-enter the delta and re-derive the equality."""
        pred, args = head
        parent = self.uf.parent
        if parent and not parent.keys().isdisjoint(args):
            args = tuple([self.uf.find(t) for t in args])
            head = Atom(pred, args)
        if pred is EQUALITY:
            s, t = args
            if self.is_stale(s) or self.is_stale(t):
                return False
            if s is not t:
                self.merge(s, t)
            return True
        if self.insert(head):
            self.derived.append(head)
        return True


def _components(rule: Rule) -> "list[tuple[Atom, ...]]":
    """The body split into its components, the groups of atoms connected by
    shared variables: first the atoms of the components that hold a head
    variable, in body order, then each head-free component."""
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
    return [tuple(rule.body[i] for i in linked)] + free


def _match(plans: tuple, by_pred: "dict | None", fresh, new, instance: Instance, out, rng=None):
    """Append to `out` the matches of a conjunction of at least one atom,
    compiled into one join plan per atom, as (atom predicate, plan) pairs,
    over the facts outside `new` (the facts the current round has added so
    far).  Each plan's kernel runs once, over all its entry facts.

    Full mode (`by_pred` None): every match, entered at the atom whose
    predicate has the fewest facts, its facts in an order `rng` shuffles.
    Semi-naive mode: every match holding a fact of `fresh` (the previous
    round's delta), grouped by predicate in `by_pred`, found once, by the
    plan of the first of its atoms whose fact is in `fresh`; that plan keeps
    the atoms before it off `fresh`."""
    if by_pred is None:
        pred, plan = min(plans, key=lambda p: len(instance.with_predicate(p[0])))
        facts = [f for f in instance.with_predicate(pred) if f not in new]
        if rng is not None:
            rng.shuffle(facts)
        if facts:
            plan.run(facts, instance, out, new, ())
        return
    for pred, plan in plans:
        facts = by_pred.get(pred)
        if facts:
            # A fact rewritten away by a merge is stale; its normalized
            # form re-entered the delta on its own.
            present = instance.with_predicate(pred)
            facts = [f for f in facts if f in present]
            if facts:
                plan.run(facts, instance, out, new, fresh)


def _holds(plans: tuple, by_pred: "dict | None", fresh, instance: Instance) -> bool:
    """Whether a conjunction has a match: in the first round (`by_pred`
    None) any match, later one holding a fact of the previous round's
    delta `fresh`.  The join stops at the first."""
    try:
        _match(plans, by_pred, fresh, (), instance, FIRST_MATCH)
    except MatchFound:
        return True
    return False


# Compiled rules: every rule with a body that a fixpoint in this process
# has seen -> its plans (see `_plans`).  The table grows with the distinct
# rules a process has seen, like the intern tables; a process that answers
# the same program again compiles nothing.
_RULES: "dict[Rule, tuple]" = {}


def _pivots(atoms: "tuple[Atom, ...]", emit: "tuple[Atom, ...]") -> tuple:
    """A conjunction compiled into one join plan per atom, as (atom
    predicate, plan) pairs: plan i is entered at atom i, keeps the atoms
    before it off the previous round's delta and emits `emit` per match."""
    return tuple(
        (a.predicate, JoinPlan(atoms[:i] + atoms[i + 1 :], entry=a, old=i, emit=emit))
        for i, a in enumerate(atoms)
    )


def _plans(rule: Rule) -> tuple:
    """The plans of a rule's head-linked atoms, which emit its head, then
    those of each head-free component (`_components`), which emit an empty
    match.  Compiled once per process."""
    compiled = _RULES.get(rule)
    if compiled is None:
        linked, *free = _components(rule)
        compiled = _RULES[rule] = (_pivots(linked, (rule.head,)),) + tuple(_pivots(c, ()) for c in free)
    return compiled


class _CompiledRule:
    """A rule with a body of at least one atom, as one fixpoint evaluates
    it: its plans (`_plans`), shared by every fixpoint in the process, and
    the head-free components still waiting for a witness, its own.

    A head-free component of the body (see `_components`) only has to
    hold: it waits for one witness and is never joined with the rest, since
    its matches cannot change the head.  The head-linked atoms are matched
    in full mode (`_match`) once, in the first round or, for a rule with
    head-free components, in the round the last of them gets its witness;
    in every later round, in semi-naive mode.  A rule with no head-linked
    atom thus fires once, with its ground head.  A match is the 1-tuple of
    its head; nothing rebuilds the body, since the chase does not re-check
    a match once it is found."""

    __slots__ = ("plans", "waiting", "head")

    def __init__(self, rule: Rule):
        self.plans, *self.waiting = _plans(rule)
        self.head = rule.head

    def matches(self, by_pred: "dict | None", fresh, store: "_Store", rng) -> "list[tuple[Atom]]":
        """This round's new matches of the head-linked atoms.  `by_pred`
        groups the previous round's delta `fresh` by predicate; it is None
        in the first round, which checks and joins in full.  Every join
        keeps off the facts added since the round began: they are the
        round's delta, and the next round finds the matches holding them."""
        instance = store.instance
        if self.waiting:
            self.waiting = [c for c in self.waiting if not _holds(c, by_pred, fresh, instance)]
            if self.waiting:
                return []
            by_pred = None
        if not self.plans:
            return [(self.head,)] if by_pred is None else []
        out: list[tuple[Atom]] = []
        _match(self.plans, by_pred, fresh, store.delta, instance, out, rng)
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


def _saturate(rules: "list[_CompiledRule]", state: _Store, rng=None) -> int:
    """Rounds until one adds no fact.  The first round is naive: it joins
    every rule in full against the facts present when it began, the base
    among them, so base facts never enter a delta.  Each later round is
    semi-naive: it matches every rule against the facts the previous round
    added (its delta).  `state.fire` applies one rule's batch of matches
    before the next rule is matched, but no join sees the facts the round
    has added so far (`state.delta`): they are the next round's delta.  A
    batch holds each new match of the head-linked atoms once, found at the
    first of its atoms whose fact is in the delta; a rule with head-free
    components has none until they all hold (`_CompiledRule`).  Returns the
    number of rounds."""
    # What entered the delta before the first round (the heads of bodiless
    # rules) is present when it begins.
    state.delta = {}
    fresh, by_pred = {}, None
    rounds = 0
    while True:
        rounds += 1
        order = list(rules)
        if rng is not None:
            rng.shuffle(order)
        for rule in order:
            state.fire(rule.matches(by_pred, fresh, state, rng))
        if not state.delta:
            return rounds
        fresh, state.delta = state.delta, {}
        by_pred = {}
        for fact in fresh:
            by_pred.setdefault(fact.predicate, []).append(fact)
        if rng is not None:
            for facts in by_pred.values():
                rng.shuffle(facts)


def chase(
    program: Program,
    base: "Instance | Iterable[Atom]",
    limits: Limits = Limits(),
    seed: Optional[int] = None,
) -> ChaseResult:
    """Run the representative-based chase of `program` over `base`.

    An `Instance` base is copied copy-on-write and left unchanged.
    Base facts are relational (an equality fact raises
    `BodyContractViolation`) and are not counted as derived.  The `seed`
    only shuffles the evaluation order; the resulting instance and term map
    are the same for every seed.
    """
    _check_chase_contract(program)
    instance = _intake(base, limits)
    equalities = instance.with_predicate(EQUALITY)
    if equalities:
        raise BodyContractViolation("equality fact %r in the base" % (next(iter(equalities)),))
    state = _ChaseState(instance, limits)
    rules = _compile(program.rules, state.apply_head)
    rng = random.Random(seed) if seed is not None else None
    rounds = _saturate(rules, state, rng)

    mu = {t: rep for t, rep in state.uf.as_map().items() if not state.is_stale(t)}
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

    store = _Store(_intake(base, limits), limits)
    _saturate(_compile(rules, store.insert), store)
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
