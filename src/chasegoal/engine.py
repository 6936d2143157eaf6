"""Fixpoint evaluation.

`chase` runs the representative-based chase for programs whose bodies are
function-, constant- and equality-free (what the pipeline produces): equality
heads merge union-find classes and facts holding a losing term at an argument
position are rewritten in place.  `UnionFind.union` alone picks each class's
representative, the term-order minimum; a merge that leaves one mentioning
the loser below a function symbol hands the class on to its least member
that mentions no merged-away term, and the facts holding the old
representative are rewritten to it.  Only when no such member exists are
those facts dropped, to be re-derived in normalized form.  Such stale terms
stay out of the term map.  `naive_fixpoint` evaluates arbitrary logic
programs with explicit equality atoms; relevance pruning runs its abstract
fixpoint with it, and `bench/reference.py` its equality-axiom reference.

The union-find keeps the stale terms in one set, so a staleness test is one
lookup.  It holds the terms above a merged-away term, recomputed at a
hand-on: a union adds those above its loser, and a term built later is
classified from its arguments at the next test.

The engine works on rows of term ids from end to end (see `kernel`): the
kernels unpack rows and build heads as rows, a delta maps each predicate to
its rows, and the union-find, the staleness test and the guards read a
term's depth, place in the term order (`precedes`) and arguments from the
term table by id.  Term objects and atoms come back only in the results:
`ChaseResult`'s term map and classes, and the answers.

Both start from the base they are given: an `Instance` base is copied in
O(predicates), sharing its per-predicate relations copy-on-write, so a
merge that rewrites a base fact clones that fact's relation alone.  The
base's rows are read only when the term table holds a term deeper than the
depth limit.  Base facts never enter a delta.  Each rule is compiled into
one join plan per body atom once per process (`_RULES`), and checked
against the chase's body contract there; a plan runs as a kernel, a
generated function of nested loops that builds the row of the rule's head
at each match (see `kernel.JoinPlan`).  One routine (`_match`) matches
every conjunction with them, one kernel call per plan and round.  The first
round is naive: it joins each rule once in full, entered at the body atom
with the fewest facts present when the round began, so a join over a
relation that only the round has filled reads nothing and builds no index.
Every later round is semi-naive: it visits only the rules with a body
predicate in the previous round's delta, and finds each new match once, at
the first body atom whose fact that delta holds.  Every round joins only
the facts present when it began, so a match holding a fact the round adds
is left to the next round, which finds it once.  A part of a body that no
chain of shared variables links to the head is only checked for one
witness: the rule fires for the matches of the rest once it holds, never
once per witness.  A round's delta and the previous one's, which its joins
enter at, hold only facts of the instance: a merge takes the facts it
rewrites away out of both.

A round is evaluated a set at a time.  A rule's matches are collected,
then applied as one batch: a relational batch is one write
(`Instance.add_all`), which tests each row's membership in Python once
the relation holds rows, keeps the new ones for the round's delta, and
then updates the indexes once per new fact and checks the limits, the
depth limit row by row only while the term table holds a deeper term.  An
equality batch first merges each head's classes in the union-find, in
order, then rewrites each fact holding a merged-away term once, straight
to its final form, in one write per predicate (`_ChaseState.equate`).  A
kernel builds the index of a relation's argument position the first time
it runs with that position as a step's key; a step bound at every
position tests the relation's fact set and needs no index.  After its
last merge, a batch finds the facts holding a merged-away term through the
same indexes, and the function terms above it through the term table's
`PARENTS` (`kernel.containing`); each merge finds the classes it makes
stale by the same upward walk (`kernel.ancestors`).  A chase that never
merges builds neither.

Body facts hold only representatives, so a relational head can hold a
merged-away term only at a position with a ground term or a function term
the kernel builds.  Only the heads of rules with such a position are
normalized through the union-find before their write (`_plans`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Optional

from .kernel import (
    DEPTH,
    STRUCT,
    TERMS,
    Atom,
    EQUALITY,
    FIRST_MATCH,
    BodyContractViolation,
    ChaseError,
    Constant,
    Instance,
    JoinPlan,
    MatchFound,
    Predicate,
    PredicateId,
    Program,
    Rule,
    Term,
    Variable,
    ancestors,
    arg_ids,
    atom_of,
    containing,
    deepest,
    is_ground,
    precedes,
    pred_label,
    row_of,
    vars_of,
)

# ---------------------------------------------------------------------------
# Limits and errors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Limits:
    max_depth: int = 20
    max_facts: int = 10_000_000


class DepthLimitExceeded(ChaseError):
    pass


class FactLimitExceeded(ChaseError):
    pass


def _shown(t: int, depth: int) -> str:
    """The text of the term with id `t`, with each function term `depth`
    levels below it cut to `...`."""
    if DEPTH[t] <= depth:
        return repr(TERMS[t])
    if not depth:
        return "..."
    return "%s(%s)" % (STRUCT[t][0], ",".join([_shown(a, depth - 1) for a in arg_ids(t)]))


def _too_deep(pred: PredicateId, row, max_depth: int) -> DepthLimitExceeded:
    """The error for a fact of `pred` too deep, its terms cut at the
    deepest of four levels that prints at most 64 function symbols in all:
    a term that holds one subterm at k positions prints k times as long
    with each level."""
    depth, level, symbols = 0, [t for t in row if DEPTH[t]], 0
    while depth < 4 and (symbols := symbols + len(level)) <= 64:
        level = [a for t in level for a in arg_ids(t) if DEPTH[a]]
        depth += 1
    args = [_shown(t, depth) for t in row]
    fact = "%s = %s" % tuple(args) if pred is EQUALITY else "%s(%s)" % (pred_label(pred), ",".join(args))
    return DepthLimitExceeded("term depth exceeds %d in %s" % (max_depth, fact))


def _guard(pred: PredicateId, new, n_facts: int, limits: Limits):
    """Check rows of `pred` just added, in order, as if each had been added
    alone: its terms against the depth limit, then the instance's size,
    `n_facts` after the last of them, against the fact limit.  While no
    term in the term table is deeper than the limit, no row is read."""
    max_depth = limits.max_depth
    # The position in `new` of the first fact past the fact limit.
    over = limits.max_facts - n_facts + len(new)
    if deepest() > max_depth:
        for i, row in enumerate(new):
            for t in row:
                if DEPTH[t] > max_depth:
                    raise _too_deep(pred, row, max_depth)
            if i >= over:
                break
    if over < len(new):
        raise FactLimitExceeded("more than %d facts" % limits.max_facts)


def _intake(base: "Instance | Iterable[Atom]", limits: Limits) -> Instance:
    """The instance a fixpoint starts from: a copy-on-write copy of the
    base, which the caller keeps unchanged.  Its rows are read only when
    the term table holds a term deeper than the depth limit, and then once
    per distinct term id."""
    instance = base.copy() if isinstance(base, Instance) else Instance(base)
    max_depth = limits.max_depth
    if deepest() > max_depth:
        for pred, rows in instance.relations():
            deep = {t for t in set().union(*rows) if DEPTH[t] > max_depth}
            if deep:
                raise _too_deep(pred, next(r for r in rows if not deep.isdisjoint(r)), max_depth)
    if len(instance) > limits.max_facts:
        raise FactLimitExceeded("more than %d facts" % limits.max_facts)
    return instance


# ---------------------------------------------------------------------------
# Union-find over ground terms
# ---------------------------------------------------------------------------


class UnionFind:
    """Union-find over ground term ids, the only place that picks a class's
    representative (`union`).  `roots` holds the roots of the classes with
    more than one term.

    The stale terms, those that mention a merged-away term (a key of
    `parent`) below a function symbol, are kept in one set (`stale_set`), so
    `stale` is one lookup: the terms above a merged-away term, recomputed
    at a hand-on (`reroot`).  A union adds the terms above its loser.  A
    term the term table gained since the last call of `stale_set`, which
    `stale`, `union` and `reroot` make first, is classified there, in id
    order, from its arguments: it is stale if one of them is merged away
    or stale."""

    def __init__(self):
        self.parent: dict[int, int] = {}
        self.roots: set[int] = set()
        self._stale: set[int] = set()
        # The terms with an id below this one are classified.
        self._known = len(STRUCT)

    def find(self, t: int) -> int:
        parent = self.parent
        root = t
        while root in parent:
            root = parent[root]
        while t != root:
            nxt = parent[t]
            parent[t] = root
            t = nxt
        return root

    def stale_set(self) -> set:
        """The set of stale terms, kept in place, after classifying the
        terms built since the last call."""
        known, stale = self._known, self._stale
        if known < len(STRUCT):
            parent = self.parent
            if parent:
                for t, struct in enumerate(STRUCT[known:], known):
                    for a in struct[1:]:
                        if a in parent or a in stale:
                            stale.add(t)
                            break
            self._known = len(STRUCT)
        return stale

    def stale(self, term: int) -> bool:
        """Whether `term` mentions a merged-away term below a function symbol."""
        return term in self.stale_set()

    def union(self, s: int, t: int) -> "tuple[int, int]":
        """Merge the classes of s and t, which the caller has found to
        differ, under the term-order lesser root (`precedes`); returns the
        (representative, loser) roots.  Each class whose root now holds the
        loser below a function symbol (`stale`) goes to its least member that
        is not: a scan of `parent`, which only this rare path makes, finds
        them all before any `reroot`."""
        stale = self.stale_set()
        rs, rt = self.find(s), self.find(t)
        rep, loser = (rs, rt) if precedes(rs, rt) else (rt, rs)
        self.parent[loser] = rep
        self.roots.discard(loser)
        self.roots.add(rep)
        above = ancestors(loser)
        above.discard(loser)
        stale |= above
        handed = self.roots & above
        if handed:
            least: dict[int, int] = {}
            for m in list(self.parent):
                if (root := self.find(m)) in handed and m not in stale:
                    if root not in least or precedes(m, least[root]):
                        least[root] = m
            for root, member in least.items():
                self.reroot(root, member)
        return rep, loser

    def reroot(self, root: int, member: int):
        """Make `member` the representative of the class `root` heads."""
        stale = self.stale_set()
        del self.parent[member]
        self.parent[root] = member
        self.roots.remove(root)
        self.roots.add(member)
        stale.clear()
        for t in self.parent:
            above = ancestors(t)
            above.discard(t)
            stale |= above

    def as_map(self) -> "dict[int, int]":
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
    """The chased instance, the term map `mu`, its classes and the run's
    statistics."""

    instance: Instance
    mu: "dict[Term, Term]"
    classes: "dict[Term, frozenset[Term]]"
    stats: ChaseStats


class _Store:
    """An instance, the rows added to it since the current round began
    (`delta`), and the previous round's delta (`entries`), which this
    round's joins enter at and keep the atoms before their entry atom off.
    Both map each predicate to its rows, and hold only facts of the
    instance: a merge takes the rows it rewrites away out of them."""

    def __init__(self, instance: Instance, limits: Limits):
        self.instance = instance
        self.limits = limits
        # Dicts used as sets: a round keeps its delta for the duplicate-free
        # pivots, and with thousands of facts a dict grown fact by fact takes
        # a third to a half of the memory of a set.
        self.delta: dict[PredicateId, dict[tuple, None]] = {}
        self.entries: dict[PredicateId, dict[tuple, None]] = {}
        # Whether a head of the batch being applied may hold a merged-away
        # term (`_plans`); `_saturate` sets it for each rule's batch.
        self.normalize = True

    def add(self, pred: PredicateId, rows: "Iterable[tuple]") -> "dict[tuple, None]":
        """Add a batch of rows of `pred` in one write and check the new
        ones against the limits; returns the new ones, in batch order."""
        new = self.instance.add_all(pred, rows)
        if new:
            _guard(pred, new, len(self.instance), self.limits)
            self.enter(pred, new)
        return new

    def enter(self, pred: PredicateId, new: "dict[tuple, None]") -> None:
        """Enter the rows `add_all` just returned into the round's delta;
        the first batch of a predicate in a round becomes its delta."""
        delta = self.delta.get(pred)
        if delta is None:
            self.delta[pred] = new
        else:
            delta.update(new)

    def fire(self, pred: PredicateId, matches: "list[tuple]"):
        """Apply a rule's batch of matches: add their heads, rows of the
        rule's head predicate `pred`, in one write."""
        if matches:
            self.add(pred, matches)


class _ChaseState(_Store):
    def __init__(self, instance: Instance, limits: Limits):
        super().__init__(instance, limits)
        self.uf = UnionFind()
        # Facts written by a relational batch plus unions made by an
        # equality batch (`ChaseStats.derived_facts`).
        self.derived = 0
        self.applications = 0

    def fire(self, pred: PredicateId, matches: "list[tuple]"):
        """Apply a rule's batch of matches, heads of `pred`.  A relational
        batch is written at once, each head normalized while the union-find
        is non-empty and the rule's head may hold a merged-away term
        (`normalize`); an equality batch merges a set at a time (`equate`)."""
        if not matches:
            return
        if pred is EQUALITY:
            return self.equate(matches)
        self.applications += len(matches)
        parent = self.uf.parent
        if parent and self.normalize:
            merged, find = parent.keys(), self.uf.find
            matches = [
                head if merged.isdisjoint(head) else tuple([find(t) for t in head])
                for head in matches
            ]
        self.derived += len(self.add(pred, matches))

    def equate(self, heads: "list[tuple]") -> None:
        """Apply a batch of equality heads: merge first, then rewrite.  Each
        head in turn has its sides normalized and their classes merged;
        after a merge in the batch, a head with a side that mentions a
        merged-away term is skipped, as the facts its match was built from
        are rewritten, re-enter the delta and re-derive it.  Then each fact
        holding a merged-away term at any depth leaves the instance and both
        deltas, and its rewrite, each argument's representative, is written,
        unless it holds a stale term of a class with no live member: it is
        then re-derived in normalized form from its rewritten body facts.
        The facts are found in one lookup after the last merge, before any
        write."""
        uf = self.uf
        find, parent = uf.find, uf.parent
        # No term is built from here on, so the set stays classified.
        stale = uf.stale_set()
        losers: list[int] = []
        for s, t in heads:
            if parent:
                s, t = find(s), find(t)
            if losers and (s in stale or t in stale):
                continue
            self.applications += 1
            if s == t:
                continue
            losers.append(uf.union(s, t)[1])
        if not losers:
            return
        self.derived += len(losers)
        instance = self.instance
        for pred, rows in containing(instance, losers).items():
            delta, entries = self.delta.get(pred, {}), self.entries.get(pred, {})
            rewritten = []
            for row in rows:
                instance.remove(pred, row)
                delta.pop(row, None)
                entries.pop(row, None)
                row = tuple([find(a) for a in row])
                if stale.isdisjoint(row):
                    rewritten.append(row)
            if rewritten:
                self.enter(pred, instance.add_all(pred, rewritten))


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


def _match(plans: tuple, entries: "dict | None", new, instance: Instance, out, rng=None):
    """Append to `out` the matches of a conjunction of at least one atom,
    compiled into one join plan per atom, as (atom predicate, plan) pairs,
    over the facts outside `new` (the facts the current round has added so
    far).  Each plan's kernel runs once, over all its entry facts.

    Full mode (`entries` None): every match, entered at the first atom
    whose predicate has the fewest facts outside `new`, its facts in an
    order `rng` shuffles.  The choice reads only facts, never which
    indexes exist, so a run does not depend on what an earlier one built.
    Semi-naive mode: every match holding a fact of `entries` (the previous
    round's delta, less the facts merges have since rewritten away), found
    once, by the plan of the first of its atoms whose fact is in `entries`;
    that plan keeps the atoms before it off `entries`."""
    if entries is None:
        pred, plan = min(plans, key=lambda p: len(instance.rows(p[0])) - len(new.get(p[0], ())))
        added = new.get(pred, ())
        facts = instance.rows(pred)
        if added or rng is not None:
            facts = [f for f in facts if f not in added]
            if rng is not None:
                rng.shuffle(facts)
        if facts:
            plan.run(facts, instance, out, new, {})
        return
    for pred, plan in plans:
        facts = entries.get(pred)
        if facts:
            plan.run(facts, instance, out, new, entries)


def _holds(plans: tuple, entries: "dict | None", instance: Instance) -> bool:
    """Whether a conjunction has a match: in the first round (`entries`
    None) any match, later one holding a fact of `entries`.  The join stops
    at the first."""
    try:
        _match(plans, entries, {}, instance, FIRST_MATCH)
    except MatchFound:
        return True
    return False


# Compiled rules: every rule with a body that a fixpoint in this process
# has seen -> its plans (see `_plans`), how it breaks the chase's body
# contract, if it does, and whether its head may hold a merged-away term.
# The table grows with the distinct rules a process has seen, like the
# term table; a process that answers the same program again compiles and
# checks nothing.
_RULES: "dict[Rule, tuple]" = {}


def _pivots(atoms: "tuple[Atom, ...]", emit: "tuple[Atom, ...]") -> tuple:
    """A conjunction compiled into one join plan per atom, as (atom
    predicate, plan) pairs: plan i is entered at atom i, keeps the atoms
    before it off the previous round's delta and emits `emit` per match."""
    return tuple(
        (a.predicate, JoinPlan(atoms[:i] + atoms[i + 1 :], entry=a, old=i, emit=emit))
        for i, a in enumerate(atoms)
    )


def _breach(rule: Rule) -> "Optional[str]":
    """How a rule's body breaks the chase's contract (relational atoms over
    variables only), or None."""
    for a in rule.body:
        if a.is_equality:
            return "equality atom in body of %r" % (rule,)
        for t in a.args:
            if not isinstance(t, Variable):
                return "non-variable body argument %r in %r" % (t, rule)
    return None


def _plans(rule: Rule) -> tuple:
    """The plans of a rule's head-linked atoms, which emit its head, then
    those of each head-free component (`_components`), which emit an empty
    match; the rule's `_breach`; and whether its head may hold a
    merged-away term.  A chase binds a variable to a term of a fact, a live
    representative, so only a ground term or a function term the kernel
    builds may have been merged away.  Compiled once per process; a head
    variable the body does not bind raises `BodyContractViolation`."""
    compiled = _RULES.get(rule)
    if compiled is None:
        if vars_of(rule.head) - vars_of(rule.body):
            raise BodyContractViolation("unbound head variable in %r" % (rule,))
        linked, *free = _components(rule)
        plans = (_pivots(linked, (rule.head,)),) + tuple(_pivots(c, ()) for c in free)
        normalize = any(not isinstance(t, Variable) for t in rule.head.args)
        compiled = _RULES[rule] = (plans, _breach(rule), normalize)
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
    atom thus fires once, with its ground head.  A match is its head's
    row; nothing rebuilds the body, since the chase does not re-check a
    match once it is found."""

    __slots__ = ("plans", "waiting", "rule", "normalize")

    def __init__(self, rule: Rule, plans: tuple, normalize: bool):
        self.plans, *self.waiting = plans
        self.rule = rule
        self.normalize = normalize

    def reads(self) -> "set[Predicate]":
        """The predicates of the rule's body."""
        return {pred for plans in (self.plans, *self.waiting) for pred, _ in plans}

    def matches(self, entries: "dict | None", store: "_Store", rng) -> "list[tuple]":
        """This round's new matches of the head-linked atoms, entered at
        `entries` (`store.entries`, see `_match`); it is None in the first
        round, which checks and joins in full.  Every join keeps off the
        facts added since the round began: they are the round's delta, and
        the next round finds the matches holding them."""
        instance = store.instance
        if self.waiting:
            self.waiting = [c for c in self.waiting if not _holds(c, entries, instance)]
            if self.waiting:
                return []
            entries = None
        if not self.plans:
            return [row_of(self.rule.head)] if entries is None else []
        out: list[tuple] = []
        _match(self.plans, entries, store.delta, instance, out, rng)
        return out


def _compile(rules: Iterable[Rule], chase: bool) -> "tuple[list[_CompiledRule], list[Rule]]":
    """Compile the rules that have a body; returns them and the others.  A
    rule whose head has a variable its body does not bind, or, with
    `chase`, whose body breaks the chase's contract, raises
    `BodyContractViolation`; a rule is checked once per process."""
    compiled, facts = [], []
    for r in rules:
        if not r.body:
            if not is_ground(r.head):
                raise BodyContractViolation("unbound head variable in %r" % (r,))
            facts.append(r)
            continue
        plans, breach, normalize = _plans(r)
        if chase and breach is not None:
            raise BodyContractViolation(breach)
        compiled.append(_CompiledRule(r, plans, normalize))
    return compiled, facts


def _add_facts(facts: "list[Rule]", store: _Store) -> None:
    """Apply each bodiless rule, before the first round.  A guard that
    trips records the rule on its error (`ChaseError.rule`)."""
    try:
        for rule in facts:
            store.fire(rule.head[0], [row_of(rule.head)])
    except ChaseError as err:
        err.rule = rule
        raise


def _saturate(rules: "list[_CompiledRule]", state: _Store, rng=None) -> int:
    """Rounds until one adds no fact.  The first round is naive: it joins
    every rule in full against the facts present when it began, the base
    among them, so base facts never enter a delta.  Each later round is
    semi-naive: it matches against the facts the previous round added (its
    delta), and visits, in program order, only the rules with a body
    predicate in it; no other rule can have a new match, nor a waiting
    head-free component a new witness.  `state.fire` applies one rule's
    batch of matches, in one write, before the next rule is matched, but no
    join sees the facts the round has added so far (`state.delta`): they are
    the next round's delta.  A batch holds each new match of the
    head-linked atoms once, found at the first of its atoms whose fact is
    in the delta; a rule with head-free components has none until they all
    hold (`_CompiledRule`).  A guard that trips, or a `MemoryError`,
    records the rule it was applying on its error (`ChaseError.rule`).
    Returns the number of rounds."""
    readers: dict[Predicate, list[int]] = {}
    for i, rule in enumerate(rules):
        for pred in rule.reads():
            readers.setdefault(pred, []).append(i)
    # What entered the delta before the first round (the heads of bodiless
    # rules) is present when it begins.
    state.delta = {}
    visit = rules
    rounds = 0
    while True:
        rounds += 1
        if rng is not None:
            visit = list(visit)
            rng.shuffle(visit)
        try:
            for rule in visit:
                state.normalize = rule.normalize
                state.fire(rule.rule.head[0], rule.matches(None if rounds == 1 else state.entries, state, rng))
        except (ChaseError, MemoryError) as err:
            # The traceback holds the batch being built: drop it first, so
            # that its memory is free to record the rule and report the error.
            err.__traceback__ = None
            err.rule = rule.rule
            raise err
        if not any(state.delta.values()):
            return rounds
        state.entries, state.delta = state.delta, {}
        if rng is not None:
            for pred, facts in state.entries.items():
                state.entries[pred] = dict.fromkeys(rng.sample(list(facts), len(facts)))
        visit = [rules[i] for i in sorted({i for pred in state.entries for i in readers.get(pred, ())})]


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
    rules, facts = _compile(program.rules, chase=True)
    instance = _intake(base, limits)
    equalities = instance.rows(EQUALITY)
    if equalities:
        raise BodyContractViolation(
            "equality fact %r in the base" % (atom_of(EQUALITY, next(iter(equalities))),)
        )
    state = _ChaseState(instance, limits)
    _add_facts(facts, state)
    # A bodiless rule's head counts as derived, not as a rule application.
    state.applications = 0
    rng = random.Random(seed) if seed is not None else None
    rounds = _saturate(rules, state, rng)

    mu = {TERMS[t]: TERMS[rep] for t, rep in state.uf.as_map().items() if not state.uf.stale(t)}
    classes: dict[Term, set[Term]] = {}
    for t, rep in mu.items():
        classes.setdefault(rep, {rep}).add(t)
    return ChaseResult(
        instance=state.instance,
        mu=mu,
        classes={rep: frozenset(members) for rep, members in classes.items()},
        # A union adds one term to `parent`; handing a class on adds none.
        stats=ChaseStats(derived_facts=state.derived, merges=len(state.uf.parent),
                         rule_applications=state.applications, iterations=rounds),
    )


# ---------------------------------------------------------------------------
# Naive fixpoint: equality atoms as ordinary facts (relevance, bench reference)
# ---------------------------------------------------------------------------


def naive_fixpoint(
    program: "Program | Iterable[Rule]",
    base: "Instance | Iterable[Atom]",
    limits: Limits = Limits(),
) -> Instance:
    """Least fixpoint of a logic program where equality atoms are ordinary
    facts.  Bodies may contain constants, function terms and equality atoms;
    no representative merging happens here."""
    rules, facts = _compile(program.rules if isinstance(program, Program) else program, chase=False)
    store = _Store(_intake(base, limits), limits)
    _add_facts(facts, store)
    _saturate(rules, store)
    return store.instance


# ---------------------------------------------------------------------------
# Answers
# ---------------------------------------------------------------------------


def constant_answers(instance: Instance, query: Predicate) -> "set[tuple[Constant, ...]]":
    """Query facts whose arguments are all constants, the terms of depth 0."""
    return {
        tuple([TERMS[t] for t in row])
        for row in instance.rows(query)
        if not any([DEPTH[t] for t in row])
    }


def extract_answers(result: ChaseResult, query: Predicate) -> "set[tuple[Constant, ...]]":
    """All constant tuples equivalent to some query fact of the chase:
    the product of the constant members of each argument's class."""
    answers: set[tuple[Constant, ...]] = set()
    for row in result.instance.rows(query):
        options = []
        for t in map(TERMS.__getitem__, row):
            members = result.classes.get(t, (t,))
            constants = [m for m in members if isinstance(m, Constant)]
            if not constants:
                break
            options.append(constants)
        else:
            answers.update(product(*options))
    return answers
