"""Terms, atoms, rules and indexed fact stores shared by every pipeline stage,
and the join plans that match rule bodies against the stores."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Union

# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Variable:
    name: str

    def __repr__(self) -> str:
        return "?" + self.name


@dataclass(frozen=True)
class Constant:
    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Functional:
    symbol: str
    args: "tuple[Term, ...]"

    # Terms are hashed constantly by the fact indexes; the generated dataclass
    # hash would recompute the recursive tuple hash on every probe.
    def __hash__(self) -> int:
        h = self.__dict__.get("_h")
        if h is None:
            h = hash((self.symbol, self.args))
            object.__setattr__(self, "_h", h)
        return h

    def __repr__(self) -> str:
        return "%s(%s)" % (self.symbol, ",".join(map(repr, self.args)))


Term = Union[Variable, Constant, Functional]


def term_depth(t: Term) -> int:
    if isinstance(t, Functional):
        return 1 + max((term_depth(a) for a in t.args), default=0)
    return 0


def is_ground(x: "Term | Atom") -> bool:
    if isinstance(x, Variable):
        return False
    if isinstance(x, Constant):
        return True
    return all(is_ground(a) for a in x.args)


def iter_vars(x) -> Iterator[Variable]:
    """Left-to-right variable occurrences of a term, atom or atom sequence."""
    if isinstance(x, Variable):
        yield x
    elif isinstance(x, Constant):
        return
    elif isinstance(x, (Functional, Atom)):
        for a in x.args:
            yield from iter_vars(a)
    else:
        for item in x:
            yield from iter_vars(item)


def vars_of(x) -> "set[Variable]":
    return set(iter_vars(x))


def iter_subterms(t: Term) -> Iterator[Term]:
    """The term itself and every term nested below it, outside in."""
    yield t
    if isinstance(t, Functional):
        for a in t.args:
            yield from iter_subterms(a)


def occurs_in(needle: Term, hay: Term) -> bool:
    if needle == hay:
        return True
    if isinstance(hay, Functional):
        return any(occurs_in(needle, a) for a in hay.args)
    return False


# Total order on ground terms: shallower terms first, then names (and
# argument keys, recursively).  Depth 0 holds exactly the constants, so class
# representatives picked by this order are constants when one is available.


def term_key(t: Term):
    if isinstance(t, Constant):
        return (0, t.name, ())
    return (term_depth(t), t.symbol, tuple(term_key(a) for a in t.args))


# ---------------------------------------------------------------------------
# Predicates and atoms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Predicate:
    """Ordinary relation symbol."""

    name: str
    arity: int


@dataclass(frozen=True)
class _EqualityPredicate:
    arity: int = field(default=2, init=False)

    def __repr__(self) -> str:
        return "<eq>"


EQUALITY = _EqualityPredicate()


@dataclass(frozen=True)
class MagicPredicate:
    """m_R^a. The adornment is a word over {b,f}; for the equality base only
    the one-sided word "eqb" occurs (bf, fb and the two halves of bb all
    collapse into it)."""

    base: "PredicateId"
    adornment: str

    @property
    def arity(self) -> int:
        return self.adornment.count("b")


@dataclass(frozen=True)
class FunPredicate:
    """Graph predicate of a function symbol (or of a constant, arity 1)
    introduced by defunctionalization."""

    symbol: str
    arity: int
    of_constant: bool = False


PredicateId = Union[Predicate, _EqualityPredicate, MagicPredicate, FunPredicate]


@dataclass(frozen=True)
class Atom:
    predicate: PredicateId
    args: "tuple[Term, ...]"

    def __hash__(self) -> int:
        h = self.__dict__.get("_h")
        if h is None:
            h = hash((self.predicate, self.args))
            object.__setattr__(self, "_h", h)
        return h

    @property
    def is_equality(self) -> bool:
        return isinstance(self.predicate, _EqualityPredicate)

    def __repr__(self) -> str:
        if self.is_equality:
            return "%r = %r" % self.args
        return "%s(%s)" % (pred_label(self.predicate), ",".join(map(repr, self.args)))


def eq(t1: Term, t2: Term) -> Atom:
    return Atom(EQUALITY, (t1, t2))


def pred_label(p: PredicateId) -> str:
    if isinstance(p, Predicate):
        return p.name
    if isinstance(p, _EqualityPredicate):
        return "eq"
    if isinstance(p, MagicPredicate):
        return "m_%s#%s" % (pred_label(p.base), p.adornment)
    if isinstance(p, FunPredicate):
        return ("con_%s" if p.of_constant else "fun_%s") % p.symbol
    raise TypeError("not a predicate: %r" % (p,))


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """Logic-program rule head <- body (the head may be an equality atom)."""

    head: Atom
    body: "tuple[Atom, ...]"

    def __repr__(self) -> str:
        if not self.body:
            return "%r." % (self.head,)
        return "%r :- %s." % (self.head, ", ".join(map(repr, self.body)))


@dataclass(frozen=True)
class Program:
    rules: "tuple[Rule, ...]"
    query: Optional[Predicate] = None


@dataclass(frozen=True)
class TGD:
    """body -> exists y. head-conjunction; the existential variables are the
    head variables that do not occur in the body."""

    body: "tuple[Atom, ...]"
    head: "tuple[Atom, ...]"

    @property
    def existential_vars(self) -> "frozenset[Variable]":
        return frozenset(vars_of(self.head) - vars_of(self.body))


@dataclass(frozen=True)
class EGD:
    body: "tuple[Atom, ...]"
    lhs: Term
    rhs: Term


ExistentialRule = Union[TGD, EGD]


def rule_atoms(r) -> Iterator[Atom]:
    """All atoms of a rule of any shape, head first."""
    if isinstance(r, Rule):
        yield r.head
        yield from r.body
    elif isinstance(r, TGD):
        yield from r.head
        yield from r.body
    elif isinstance(r, EGD):
        yield eq(r.lhs, r.rhs)
        yield from r.body
    else:
        raise TypeError("not a rule: %r" % (r,))


def program_predicates(rules: Iterable) -> "set[PredicateId]":
    preds: set[PredicateId] = set()
    for r in rules:
        for a in rule_atoms(r):
            preds.add(a.predicate)
    return preds


# ---------------------------------------------------------------------------
# Substitutions and shallow term maps
# ---------------------------------------------------------------------------


def substitute(sigma: "dict[Variable, Term]", x):
    """Apply a variable substitution to a term or atom, at any depth."""
    if isinstance(x, Variable):
        return sigma.get(x, x)
    if isinstance(x, Constant):
        return x
    if isinstance(x, Functional):
        return Functional(x.symbol, tuple(substitute(sigma, a) for a in x.args))
    if isinstance(x, Atom):
        return Atom(x.predicate, tuple(substitute(sigma, a) for a in x.args))
    raise TypeError("cannot substitute into %r" % (x,))


def map_shallow(mu: "dict[Term, Term]", x):
    """Apply a ground term map to the occurrences that are not nested inside
    a function symbol: the atom's argument positions (or the term itself)."""
    if isinstance(x, Atom):
        return Atom(x.predicate, tuple(mu.get(a, a) for a in x.args))
    return mu.get(x, x)


FRESH_PREFIX = "_"


class FreshVars:
    """Monotone source of variable names the parsers refuse to accept, so
    generated variables can never collide with parsed ones."""

    def __init__(self, tag: str = "v"):
        self._tag = tag
        self._n = itertools.count(1)

    def __call__(self) -> Variable:
        return Variable("%s%s%d" % (FRESH_PREFIX, self._tag, next(self._n)))


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

_EMPTY: "frozenset[Atom]" = frozenset()


def _index_terms(index: dict, fact: Atom) -> None:
    for t in fact.args:
        for s in iter_subterms(t):
            index.setdefault(s, set()).add(fact)


def _unindex(index: dict, key, fact: Atom) -> None:
    """Remove `fact` from the index entry under `key`, dropping the entry
    once it is empty.  A term occurring twice in one fact (T(a, sk(a))) is
    unindexed twice, so the entry may already be gone."""
    s = index.get(key)
    if s is not None:
        s.discard(fact)
        if not s:
            del index[key]


class Instance:
    """Mutable set of ground atoms with hash indexes by predicate, by
    (predicate, position, term) and by term occurrence.

    The term index serves merges alone, so it is built by the first
    `containing` call and kept up to date only from then on.

    Single writer: the sets returned by the lookup methods are live views
    and must be copied before mutating the instance while iterating them.
    An index entry is dropped once it empties, so a view held across that
    does not see facts added later.
    """

    def __init__(self, facts: Iterable[Atom] = ()):
        self._facts: set[Atom] = set()
        self._by_pred: dict[PredicateId, set[Atom]] = {}
        self._by_pos: dict[tuple, set[Atom]] = {}
        self._by_term: Optional[dict[Term, set[Atom]]] = None
        for f in facts:
            self.add(f)

    def copy(self) -> "Instance":
        """An instance with the same facts and its own indexes, sharing the
        atoms; the term index is left to be built on demand."""
        new = Instance()
        new._facts = set(self._facts)
        new._by_pred = {k: set(v) for k, v in self._by_pred.items()}
        new._by_pos = {k: set(v) for k, v in self._by_pos.items()}
        return new

    def add(self, fact: Atom) -> bool:
        if fact in self._facts:
            return False
        self._facts.add(fact)
        self._by_pred.setdefault(fact.predicate, set()).add(fact)
        for i, t in enumerate(fact.args):
            self._by_pos.setdefault((fact.predicate, i, t), set()).add(fact)
        if self._by_term is not None:
            _index_terms(self._by_term, fact)
        return True

    def discard(self, fact: Atom) -> bool:
        if fact not in self._facts:
            return False
        self._facts.discard(fact)
        _unindex(self._by_pred, fact.predicate, fact)
        for i, t in enumerate(fact.args):
            _unindex(self._by_pos, (fact.predicate, i, t), fact)
            if self._by_term is not None:
                for sub in iter_subterms(t):
                    _unindex(self._by_term, sub, fact)
        return True

    def __contains__(self, fact: Atom) -> bool:
        return fact in self._facts

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._facts)

    def __len__(self) -> int:
        return len(self._facts)

    def with_predicate(self, pred: PredicateId) -> "set[Atom]":
        return self._by_pred.get(pred, _EMPTY)

    def argument_terms(self) -> "set[Term]":
        """The terms that some fact holds at an argument position."""
        return {t for _, _, t in self._by_pos}

    def containing(self, term: Term) -> "set[Atom]":
        """The facts holding `term` at any depth of an argument."""
        if self._by_term is None:
            self._by_term = {}
            for fact in self._facts:
                _index_terms(self._by_term, fact)
        return self._by_term.get(term, _EMPTY)

    def predicates(self) -> "set[PredicateId]":
        return set(self._by_pred)


# ---------------------------------------------------------------------------
# Join plans
# ---------------------------------------------------------------------------

# Operations on one argument position of a compiled atom pattern, as
# (kind, position, x) triples executed in position order.
_BIND = 0  # x is a slot: store the argument in it
_CHECK = 1  # x is a slot: the argument must equal the slot's value
_CONST = 2  # x is a ground term: the argument must equal it
_FUNC = 3  # x is (symbol, arity, ops): a function term whose arguments match ops


def _compile_term(pos: int, t: Term, slots, bound: "set[Variable]") -> tuple:
    if isinstance(t, Variable):
        if t in bound:
            return (_CHECK, pos, slots[t])
        bound.add(t)
        return (_BIND, pos, slots[t])
    if is_ground(t):
        return (_CONST, pos, t)
    return (_FUNC, pos, (t.symbol, len(t.args), _compile_args(t.args, slots, bound)))


def _compile_args(args, slots, bound: "set[Variable]", skip: int = -1) -> tuple:
    """Operations matching `args`; variables in `bound` are checked, the
    others are bound (and added to `bound`) at their first occurrence."""
    return tuple(_compile_term(i, t, slots, bound) for i, t in enumerate(args) if i != skip)


def _match_args(ops: tuple, args: tuple, b: list) -> bool:
    for kind, pos, x in ops:
        t = args[pos]
        if kind == _BIND:
            b[x] = t
        elif kind == _CHECK:
            if t != b[x]:
                return False
        elif kind == _CONST:
            if t != x:
                return False
        elif not (
            isinstance(t, Functional)
            and t.symbol == x[0]
            and len(t.args) == x[1]
            and _match_args(x[2], t.args, b)
        ):
            return False
    return True


def _is_key(t: Term, bound: "set[Variable]") -> bool:
    return t in bound if isinstance(t, Variable) else is_ground(t)


def _join(steps: tuple, k: int, instance: "Instance", b: list, out, delta, old: int) -> None:
    if k == len(steps):
        out.append(tuple(b))
        return
    pred, key_pos, key_slot, key, ops, j = steps[k]
    if key_slot is not None:
        candidates = instance._by_pos.get((pred, key_pos, b[key_slot]))
    elif key is not None:
        candidates = instance._by_pos.get(key)
    else:
        candidates = instance._by_pred.get(pred)
    if not candidates:
        return
    k += 1
    for fact in candidates:
        if _match_args(ops, fact.args, b) and not (j < old and fact in delta):
            _join(steps, k, instance, b, out, delta, old)


class MatchFound(Exception):
    pass


class _FirstMatch:
    """A match sink that stops the join at its first match: raises `MatchFound`."""

    __slots__ = ()

    def append(self, vals):
        raise MatchFound


FIRST_MATCH = _FirstMatch()


class JoinPlan:
    """A conjunction compiled once for the variables bound on entry.

    Those variables are the ones the `entry` atom binds when it is matched
    against a given fact (a delta fact for a pivoted rule, a traced fact for
    a rule head, a demand head for a subsumption test).  The body atoms are
    ordered greedily: next comes the atom with the most positions that hold
    a ground term or a bound variable, ties broken by body order; its first
    such position is the index key.  Each step then binds, checks or
    structurally matches the other positions.

    Each step records its atom's index in `body`: `run_from` with `old=k`
    keeps the first k atoms of `body` off the `delta` it is given, so a
    conjunction pivoted on its atom k finds a match holding several delta
    facts once, at the first, and `old=len(body)` keeps every atom off it.

    Variables live in the slots of one list (`slots` maps each variable to
    its slot).  Every variable is bound by exactly one operation and read
    only after it, so matching overwrites the list in place and backtracking
    needs no undo.  A match is the tuple of all slot values.
    """

    __slots__ = ("slots", "entry", "steps")

    def __init__(self, body, entry: Atom, slots=None):
        body = tuple(body)
        if slots is None:
            slots = {}
            for v in itertools.chain(iter_vars(entry), iter_vars(body)):
                slots.setdefault(v, len(slots))
        self.slots: "dict[Variable, int]" = slots
        known: set[Variable] = set()
        self.entry = _compile_args(entry.args, slots, known)
        steps = []
        remaining = list(enumerate(body))
        while remaining:
            scores = [sum(_is_key(t, known) for t in a.args) for _, a in remaining]
            j, atom = remaining.pop(scores.index(max(scores)))
            key_pos = next((i for i, t in enumerate(atom.args) if _is_key(t, known)), -1)
            key_slot = key = None
            if key_pos >= 0 and isinstance(atom.args[key_pos], Variable):
                key_slot = slots[atom.args[key_pos]]
            elif key_pos >= 0:
                key = (atom.predicate, key_pos, atom.args[key_pos])
            ops = _compile_args(atom.args, slots, known, skip=key_pos)
            steps.append((atom.predicate, key_pos, key_slot, key, ops, j))
        self.steps: tuple = tuple(steps)

    def run_from(self, fact: Atom, instance: "Instance", out, delta=_EMPTY, old: int = 0) -> None:
        """Append to `out` the matches whose entry atom is `fact`; the
        caller has checked that the predicates agree."""
        b = [None] * len(self.slots)
        if _match_args(self.entry, fact.args, b):
            _join(self.steps, 0, instance, b, out, delta, old)

    def holds_from(self, fact: Atom, instance: "Instance") -> bool:
        """Whether some match has `fact` as its entry atom; the join stops
        at the first."""
        try:
            self.run_from(fact, instance, FIRST_MATCH)
        except MatchFound:
            return True
        return False


def _term_instantiator(t: Term, slots):
    if isinstance(t, Variable):
        i = slots[t]
        return lambda vals: vals[i]
    if is_ground(t):
        return lambda vals: t
    symbol, subs = t.symbol, tuple(_term_instantiator(a, slots) for a in t.args)
    return lambda vals: Functional(symbol, tuple([f(vals) for f in subs]))


def instantiator(atom: Atom, slots: "dict[Variable, int]"):
    """Function from a match (a tuple of slot values) to the instance of
    `atom` under it."""
    pred, fs = atom.predicate, tuple(_term_instantiator(t, slots) for t in atom.args)
    return lambda vals: Atom(pred, tuple([f(vals) for f in fs]))
