"""Terms, atoms, rules and indexed fact stores shared by every pipeline stage,
and the join plans that match rule bodies against the stores.

Terms and predicates are hash-consed: a constructor returns the one object
per value, so two equal terms are the same object and compare and hash by
identity, in C.  A function term stores its depth and its place in the
term order when it is built, so neither is recomputed.  An atom is a tuple
(predicate, args) of such objects: the fact sets, the indexes and the deltas
of the engine hash and compare atoms without running Python code.

A join plan is compiled into a kernel: a generated Python function whose
nested `for` loops walk the index candidates of each body atom and test
terms with `is`, and which builds its output, a rule head for instance, at
the innermost loop.  Two process-wide tables keep generation off the hot
path: `_SHAPES` maps the shape of a plan, the plan with its predicates,
ground terms and function symbols left out, to the kernel's source and
compiled code, and `JoinPlan` returns the plan it has built before for
equal arguments.  Like the intern tables, both grow with the distinct
shapes and plans a process has seen."""

from __future__ import annotations

import itertools
import linecache
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from types import CodeType, FunctionType
from typing import Iterable, Iterator, Optional, Union

# ---------------------------------------------------------------------------
# Hash-consing
# ---------------------------------------------------------------------------


class _Interned:
    """Base of the hash-consed classes.  Each class keeps a table from value
    to object, and its constructor returns the table's object for a value it
    has built before, so equal values are the same object.  Equality and
    hashing are therefore `object`'s identity defaults, which run in C.  The
    table holds its objects for the life of the process.

    Copying and pickling keep identity: a copy is the object itself, and an
    unpickled object is looked up through the constructor."""

    __slots__ = ()
    _fields: "tuple[str, ...]" = ()

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        return (type(self), tuple(getattr(self, f) for f in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)


def _build(cls, table: dict, value, **attrs):
    """The object of `cls` for `value`, with the given attributes, built and
    recorded in `table` unless the table has one already."""
    obj = object.__new__(cls)
    for name, v in attrs.items():
        object.__setattr__(obj, name, v)
    return table.setdefault(value, obj)


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

# Every term has a `depth` (0 for constants and variables, one more than its
# deepest argument for a function term) and a `key`, its place in the total
# order on ground terms (see `term_key`), None for a term with a variable.
# Both are computed once, when the term is built.


class Variable(_Interned):
    __slots__ = ("name",)
    _fields = __slots__
    _table: "dict[str, Variable]" = {}
    depth = 0
    key = None

    def __new__(cls, name: str):
        v = Variable._table.get(name)
        if v is None:
            v = _build(cls, Variable._table, name, name=name)
        return v

    def __repr__(self) -> str:
        return "?" + self.name


class _ConstantTable(dict):
    """The intern table of `Constant`: looking up a name it lacks builds the
    constant and records it (`__missing__`)."""

    __slots__ = ()

    def __missing__(self, name: str) -> "Constant":
        return _build(Constant, self, name, name=name, key=(0, name, ()))


class Constant(_Interned):
    """A constant.  Its intern table builds a constant at the first lookup
    of its name, so `Constant(name)` is one lookup, and a loader interns a
    row of names in C with `map(Constant._table.__getitem__, row)`."""

    __slots__ = ("name", "key")
    _fields = ("name",)
    _table: "dict[str, Constant]" = _ConstantTable()
    depth = 0

    def __new__(cls, name: str):
        return Constant._table[name]

    def __repr__(self) -> str:
        return self.name


class Functional(_Interned):
    __slots__ = ("symbol", "args", "depth", "key")
    _fields = ("symbol", "args")
    _table: "dict[tuple, Functional]" = {}

    def __new__(cls, symbol: str, args: "tuple[Term, ...]"):
        value = (symbol, tuple(args))
        t = Functional._table.get(value)
        if t is None:
            args = value[1]
            depth = 1 + max([a.depth for a in args], default=0)
            keys = tuple([a.key for a in args])
            key = None if None in keys else (depth, symbol, keys)
            t = _build(cls, Functional._table, value, symbol=symbol, args=args, depth=depth, key=key)
        return t

    def __repr__(self) -> str:
        return "%s(%s)" % (self.symbol, ",".join(map(repr, self.args)))


Term = Union[Variable, Constant, Functional]


def is_ground(x: "Term | Atom") -> bool:
    if isinstance(x, Atom):
        return all(a.key is not None for a in x.args)
    return x.key is not None


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
# The key is stored on the term when it is built.


def term_key(t: Term):
    return t.key


# ---------------------------------------------------------------------------
# Predicates and atoms
# ---------------------------------------------------------------------------


class Predicate(_Interned):
    """Ordinary relation symbol."""

    __slots__ = ("name", "arity")
    _fields = __slots__
    _table: "dict[tuple, Predicate]" = {}

    def __new__(cls, name: str, arity: int):
        value = (name, arity)
        p = Predicate._table.get(value)
        if p is None:
            p = _build(cls, Predicate._table, value, name=name, arity=arity)
        return p

    def __repr__(self) -> str:
        return "Predicate(name=%r, arity=%r)" % (self.name, self.arity)


class _EqualityPredicate(_Interned):
    __slots__ = ()
    arity = 2

    def __new__(cls):
        return EQUALITY

    def __repr__(self) -> str:
        return "<eq>"


EQUALITY = object.__new__(_EqualityPredicate)


class MagicPredicate(_Interned):
    """m_R^a. The adornment is a word over {b,f}; for the equality base only
    the one-sided word "eqb" occurs (bf, fb and the two halves of bb all
    collapse into it).  Its arity is the number of b's."""

    __slots__ = ("base", "adornment", "arity")
    _fields = ("base", "adornment")
    _table: "dict[tuple, MagicPredicate]" = {}

    def __new__(cls, base: "PredicateId", adornment: str):
        value = (base, adornment)
        p = MagicPredicate._table.get(value)
        if p is None:
            p = _build(
                cls, MagicPredicate._table, value,
                base=base, adornment=adornment, arity=adornment.count("b"),
            )
        return p

    def __repr__(self) -> str:
        return "MagicPredicate(base=%r, adornment=%r)" % (self.base, self.adornment)


class FunPredicate(_Interned):
    """Graph predicate of a function symbol (or of a constant, arity 1)
    introduced by defunctionalization."""

    __slots__ = ("symbol", "arity", "of_constant")
    _fields = __slots__
    _table: "dict[tuple, FunPredicate]" = {}

    def __new__(cls, symbol: str, arity: int, of_constant: bool = False):
        value = (symbol, arity, of_constant)
        p = FunPredicate._table.get(value)
        if p is None:
            p = _build(
                cls, FunPredicate._table, value,
                symbol=symbol, arity=arity, of_constant=of_constant,
            )
        return p

    def __repr__(self) -> str:
        return "FunPredicate(symbol=%r, arity=%r, of_constant=%r)" % (
            self.symbol, self.arity, self.of_constant,
        )


PredicateId = Union[Predicate, _EqualityPredicate, MagicPredicate, FunPredicate]


class Atom(tuple):
    """A predicate applied to a tuple of terms, stored as the pair
    (predicate, args).  Its parts are interned, so hashing and comparing an
    atom is tuple hashing and comparison over identities, all in C."""

    __slots__ = ()

    def __new__(cls, predicate: PredicateId, args: "tuple[Term, ...]"):
        return tuple.__new__(cls, (predicate, tuple(args)))

    predicate = property(itemgetter(0))
    args = property(itemgetter(1))

    def __getnewargs__(self):
        return tuple(self)

    @property
    def is_equality(self) -> bool:
        return self[0] is EQUALITY

    def __repr__(self) -> str:
        if self[0] is EQUALITY:
            return "%r = %r" % self[1]
        return "%s(%s)" % (pred_label(self[0]), ",".join(map(repr, self[1])))


# Builds an atom from a (predicate, args) pair whose args are a tuple,
# skipping `Atom.__new__`: tuple.__new__(Atom, pair).
_new_atom = tuple.__new__


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
    """An existential rule body -> exists y. head-conjunction; the
    existential variables are the head variables that do not occur in the
    body.  An equality-generating rule is a TGD whose head is one equality
    atom, `TGD(body, (eq(s, t),))`, with no existential variable
    (`frontend.check_rule` checks the shape)."""

    body: "tuple[Atom, ...]"
    head: "tuple[Atom, ...]"

    @property
    def existential_vars(self) -> "frozenset[Variable]":
        return frozenset(vars_of(self.head) - vars_of(self.body))


def rule_atoms(r) -> Iterator[Atom]:
    """All atoms of a rule or an existential rule, head first."""
    if isinstance(r, Rule):
        yield r.head
    else:
        yield from r.head
    yield from r.body


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
        return _new_atom(Atom, (x[0], tuple([mu.get(a, a) for a in x[1]])))
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


class _Relation:
    """The facts of one predicate, and an index for each argument position
    looked up so far: a map from each term to the facts holding it there."""

    __slots__ = ("facts", "index")

    def __init__(self, facts: Iterable[Atom] = (), index: "Optional[dict]" = None):
        self.facts: set[Atom] = set(facts)
        self.index: dict[int, dict[Term, set[Atom]]] = {} if index is None else index

    def clone(self) -> "_Relation":
        return _Relation(
            self.facts,
            {pos: {t: set(s) for t, s in index.items()} for pos, index in self.index.items()},
        )


class _TermIndex:
    """The index merges read.  `at` maps each term to the facts holding it
    at an argument position; `above` maps each term to the function terms
    that hold it as a direct argument and occur in some fact.  A fact is
    indexed under its arguments only, and a function term under its own
    arguments when it comes to occur, so indexing costs O(arity) and
    `containing` walks up from a term through `above`.  An entry is
    dropped once it empties, and a function term that stops occurring is
    taken out of `above`."""

    __slots__ = ("at", "above")

    def __init__(self, facts: Iterable[Atom]):
        self.at: dict[Term, set[Atom]] = {}
        self.above: dict[Term, set[Functional]] = {}
        for fact in facts:
            self.add(fact)

    def add(self, fact: Atom) -> None:
        at = self.at
        for t in fact[1]:
            s = at.get(t)
            if s is not None:
                s.add(fact)
                continue
            at[t] = {fact}
            if t.depth and t not in self.above:
                self._link(t)

    def discard(self, fact: Atom) -> None:
        at = self.at
        for t in fact[1]:
            s = at.get(t)
            if s is None:
                continue  # held twice by the fact, and gone at the first
            s.discard(fact)
            if not s:
                del at[t]
                if t.depth and t not in self.above:
                    self._unlink(t)

    def _link(self, t: Functional) -> None:
        """Record a function term that has come to occur under each of its
        arguments, and so on down for the arguments it brought with it."""
        above = self.above
        for s in t.args:
            up = above.get(s)
            if up is not None:
                up.add(t)
                continue
            above[s] = {t}
            if s.depth and s not in self.at:
                self._link(s)

    def _unlink(self, t: Functional) -> None:
        """Undo `_link` for a function term that no longer occurs."""
        above = self.above
        for s in t.args:
            up = above.get(s)
            if up is None:
                continue  # an argument held twice, unlinked at the first
            up.discard(t)
            if not up:
                del above[s]
                if s.depth and s not in self.at:
                    self._unlink(s)

    def containing(self, term: Term) -> "set[Atom]":
        at, above = self.at, self.above
        out = set(at.get(term, _EMPTY))
        todo = list(above.get(term, _EMPTY))
        seen = set(todo)
        while todo:
            u = todo.pop()
            out |= at.get(u, _EMPTY)
            for v in above.get(u, _EMPTY):
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
        return out


class Instance:
    """Mutable set of ground atoms, stored as one relation per predicate.

    A relation holds its predicate's facts and an index for each argument
    position some join has looked up (`index_at`), from each term to the
    facts holding it there.  An index is built at the first lookup of its
    position and kept up to date from then on; a join reads it from the
    relation, so no other map of the indexes is kept.  The index merges read
    (`containing`) is built by the first call and kept up to date from then
    on.

    Copy-on-write: `copy` and `snapshot` share every relation with the
    original, in O(predicates).  No fact of a shared relation is ever added
    or discarded: the side that writes it first, either one, clones that
    one relation and writes the clone, so no write shows on the other side.
    Position indexes are derived data: any sharer may build one on a shared
    relation, every sharer then reads it, and a clone copies it.  So the
    indexes the joins over a long-lived base build stay with that base.

    Single writer: the sets returned by the lookup methods are live views
    and must be copied before mutating the instance while iterating them.
    An index entry is dropped once it empties, and a write may clone the
    relation a view belongs to, so a view held across a write need not see
    it.
    """

    def __init__(self, facts: Iterable[Atom] = ()):
        self._rels: dict[PredicateId, _Relation] = {}
        # The relations this instance may write: those no other one shares.
        self._mine: dict[PredicateId, _Relation] = {}
        self._size = 0
        self._terms: Optional[_TermIndex] = None
        by_pred: dict[PredicateId, list[Atom]] = {}
        for f in facts:
            by_pred.setdefault(f[0], []).append(f)
        for pred, group in by_pred.items():
            self.add_all(pred, group)

    def _share(self, cls) -> "Instance":
        new = object.__new__(cls)
        new._rels = dict(self._rels)
        new._mine = {}
        new._size = self._size
        new._terms = None
        self._mine = {}
        return new

    def copy(self) -> "Instance":
        """A writable instance with the same facts, sharing every relation
        copy-on-write; the merge index is left to be built on demand."""
        return self._share(Instance)

    def snapshot(self) -> "ReadOnlyInstance":
        """A read-only instance with the same facts, sharing every relation
        copy-on-write: later writes to this instance do not reach it."""
        return self._share(ReadOnlyInstance)

    def _own(self, pred: PredicateId) -> _Relation:
        """Give `pred` a relation this instance may write: a clone of the
        shared one, or a new empty one."""
        rel = self._rels.get(pred)
        rel = _Relation() if rel is None else rel.clone()
        self._rels[pred] = self._mine[pred] = rel
        return rel

    def add(self, fact: Atom) -> bool:
        return bool(self.add_all(fact[0], (fact,)))

    def add_all(self, pred: PredicateId, facts: "Iterable[Atom]") -> "dict[Atom, None]":
        """Add in one write the facts of `pred` this instance lacks, testing
        membership and dropping duplicates in C; returns them once each, in
        order, as the keys of a dict.  A shared relation that holds every
        fact is not cloned."""
        rel = self._mine.get(pred)
        current = self._rels.get(pred) if rel is None else rel
        have = _EMPTY if current is None else current.facts
        new = dict.fromkeys([f for f in facts if f not in have])
        if new:
            if rel is None:
                rel = self._own(pred)
            rel.facts.update(new)
            self._size += len(new)
            if rel.index or self._terms is not None:
                self._upkeep(rel, new)
        return new

    def _upkeep(self, rel: _Relation, new) -> None:
        """Enter facts just added to `rel` into its position indexes and
        the term index."""
        for pos, index in rel.index.items():
            for fact in new:
                t = fact[1][pos]
                s = index.get(t)
                if s is None:
                    index[t] = {fact}
                else:
                    s.add(fact)
        if self._terms is not None:
            for fact in new:
                self._terms.add(fact)

    def discard(self, fact: Atom) -> bool:
        rel = self._rels.get(fact[0])
        if rel is None or fact not in rel.facts:
            return False
        if self._mine.get(fact[0]) is not rel:
            rel = self._own(fact[0])
        rel.facts.discard(fact)
        self._size -= 1
        args = fact[1]
        for pos, index in rel.index.items():
            s = index[args[pos]]
            s.discard(fact)
            if not s:  # an emptied entry is dropped
                del index[args[pos]]
        if self._terms is not None:
            self._terms.discard(fact)
        return True

    def __contains__(self, fact: Atom) -> bool:
        rel = self._rels.get(fact[0])
        return rel is not None and fact in rel.facts

    def __iter__(self) -> Iterator[Atom]:
        return itertools.chain.from_iterable([rel.facts for rel in self._rels.values()])

    def __len__(self) -> int:
        return self._size

    def with_predicate(self, pred: PredicateId) -> "set[Atom]":
        rel = self._rels.get(pred)
        return _EMPTY if rel is None else rel.facts

    def index_at(self, pred: PredicateId, pos: int) -> "dict[Term, set[Atom]]":
        """The index of argument position `pos` of `pred`'s facts, from each
        term to the facts holding it there.  It is built at the first lookup
        of the position in any instance sharing the relation.  A predicate
        that has no relation yet gets a new empty map, which no write
        updates."""
        rel = self._rels.get(pred)
        if rel is None:
            return {}
        index = rel.index.get(pos)
        if index is None:
            index = rel.index[pos] = {}
            for fact in rel.facts:
                t = fact[1][pos]
                s = index.get(t)
                if s is None:
                    index[t] = {fact}
                else:
                    s.add(fact)
        return index

    def argument_terms(self) -> "set[Term]":
        """The terms that some fact holds at an argument position."""
        return {t for rel in self._rels.values() for fact in rel.facts for t in fact[1]}

    def containing(self, term: Term) -> "set[Atom]":
        """A new set of the facts holding `term` at any depth of an argument."""
        if self._terms is None:
            self._terms = _TermIndex(self)
        return self._terms.containing(term)

    def predicates(self) -> "set[PredicateId]":
        return {pred for pred, rel in self._rels.items() if rel.facts}


class ReadOnlyInstance(Instance):
    """An instance whose facts never change, made by `Instance.snapshot`:
    `add`, `add_all` and `discard` raise `TypeError`, and `copy` gives a
    writable instance."""

    def add_all(self, pred: PredicateId, facts: "Iterable[Atom]") -> "dict[Atom, None]":
        raise TypeError("a read-only instance cannot change; write to a copy()")

    def discard(self, fact: Atom) -> bool:
        raise TypeError("a read-only instance cannot change; write to a copy()")


# ---------------------------------------------------------------------------
# Join plans and their kernels
# ---------------------------------------------------------------------------


class MatchFound(Exception):
    pass


class _FirstMatch:
    """A match sink that stops the join at its first match: raises `MatchFound`."""

    __slots__ = ()

    def append(self, vals):
        raise MatchFound


FIRST_MATCH = _FirstMatch()

# Kernel shapes seen in this process: a plan with its variables numbered
# and each predicate, ground term and function symbol replaced by the
# placeholder of its site -> the kernel's source text, its code and what
# the plan reads back from its sites (`_shape`).  The source names no
# predicate, constant or function symbol: the kernel takes them as trailing
# arguments k0, k1, ..., which a plan binds as the defaults of its
# function.  Plans that differ only in those objects share a shape, and
# generate and compile it once.  The table grows with the distinct shapes
# a process has seen, like the intern tables.
_SHAPES: "dict[tuple, tuple]" = {}
# Placeholders by (site, kind), and each placeholder -> its site.
_PLACEHOLDERS: dict = {}
_SITE: dict = {}
_KERNEL_GLOBALS = {"Atom": Atom, "Functional": Functional, "new_atom": _new_atom}
# The nested `for` loops one generated function holds; CPython allows 20
# nested blocks, so a longer plan continues in a function of its own.
_MAX_LOOPS = 16


def _is_key(t: Term, bound: "set[Variable]") -> bool:
    return t in bound if isinstance(t, Variable) else is_ground(t)


def _tuple(items) -> str:
    items = list(items)
    return "(%s,)" % items[0] if len(items) == 1 else "(%s)" % ", ".join(items)


class _KernelSource:
    """The source of a kernel, written step by step.  A variable some later
    position reads lives in the local `v<n>`, numbered in the order the
    kernel binds them (`slots`); a variable nothing reads again is not
    bound.  Every other object the kernel reads is an argument `k<n>`,
    recorded in `args`."""

    def __init__(self, reads: "Counter[Variable]", emitted: "set[Atom]"):
        self.reads = reads  # occurrences of each variable, its output included
        # The body atoms to emit, and the local that holds the fact each
        # matched, once it has been matched.
        self.emitted = emitted
        self.held: dict[Atom, str] = {}
        self.known: set[Variable] = set()
        self.slots: dict[Variable, int] = {}
        self.args: list = []
        self.functions: "list[list[str]]" = []
        self.checks: "list[tuple[Term, str]]" = []
        self.temps = 0

    def arg(self, obj) -> str:
        self.args.append(obj)
        return "k%d" % (len(self.args) - 1)

    def var(self, v: Variable) -> str:
        return "v%d" % self.slots[v]

    def temp(self) -> str:
        self.temps += 1
        return "t%d" % self.temps

    def open(self, header: str):
        """Start a function; its prologue looks up the fact set or index
        each of its steps reads, once per call."""
        self.header, self.prologue, self.lines = header, [], []
        self.depth, self.loops = 1, 0

    def close(self):
        self.functions.append([self.header] + ["    " + s for s in self.prologue] + self.lines)

    def line(self, text: str):
        self.lines.append("    " * self.depth + text)

    def fail(self) -> str:
        return "continue" if self.loops else "return"

    def loop(self, target: str, iterable: str):
        self.line("for %s in %s:" % (target, iterable))
        self.depth += 1
        self.loops += 1

    def unpack(self, args: "tuple[Term, ...]", key_pos: int = -1) -> "Optional[str]":
        """The assignment target that binds the variables of the patterns
        `args` when it unpacks a fact's arguments, None if it binds none;
        position `key_pos` is known to hold its pattern.  The positions to
        check are queued in `checks`."""
        targets = []
        for i, t in enumerate(args):
            if i == key_pos:
                targets.append("_")
            elif isinstance(t, Variable) and t not in self.known:
                self.known.add(t)
                if self.reads[t] > 1:
                    self.slots[t] = len(self.slots)
                    targets.append(self.var(t))
                else:
                    targets.append("_")
            else:
                self.checks.append((t, self.temp()))
                targets.append(self.checks[-1][1])
        return _tuple(targets) if any(x != "_" for x in targets) else None

    def check(self):
        """Check the queued positions against their patterns."""
        while self.checks:
            t, u = self.checks.pop(0)
            if isinstance(t, Variable):
                self.line("if %s is not %s: %s" % (u, self.var(t), self.fail()))
            elif t.key is not None:
                self.line("if %s is not %s: %s" % (u, self.arg(t), self.fail()))
            else:
                self.line(
                    "if %s.__class__ is not Functional or %s.symbol != %s or len(%s.args) != %d: %s"
                    % (u, u, self.arg(t.symbol), u, len(t.args), self.fail())
                )
                target = self.unpack(t.args)
                if target is not None:
                    self.line("%s = %s.args" % (target, u))

    def build(self, t: Term) -> str:
        """An expression for the instance of `t` under the bound variables."""
        if isinstance(t, Variable):
            return self.var(t)
        if t.key is not None:
            return self.arg(t)
        return "Functional(%s, %s)" % (self.arg(t.symbol), _tuple(map(self.build, t.args)))

    def step(self, n: int, atom: Atom, key_pos: int, full: bool, old: bool):
        """Match `atom` against the candidates of step n: every fact of the
        relation, the facts the key position's index gives for the key, or,
        for an atom bound at every position, the one fact it names.  Every
        candidate keeps off the facts of its predicate in `new`, and in
        `fresh` if `old` holds."""
        p = self.arg(atom.predicate)
        self.prologue.append("n%d = new.get(%s, ())" % (n, p))
        off = "f%d in n%d" % (n, n)
        if old:
            self.prologue.append("e%d = fresh.get(%s, ())" % (n, p))
            off += " or f%d in e%d" % (n, n)
        if full or key_pos < 0:
            self.prologue.append("s%d = instance.with_predicate(%s)" % (n, p))
        if atom in self.emitted:
            self.held.setdefault(atom, "f%d" % n)
        if full:
            fact = "(%s, %s)" % (p, _tuple(map(self.build, atom.args)))
            self.line("f%d = %s" % (n, "new_atom(Atom, %s)" % fact if atom in self.held else fact))
            self.line("if f%d not in s%d or %s: %s" % (n, n, off, self.fail()))
            return
        if key_pos < 0:
            self.loop("f%d" % n, "s%d" % n)
        else:
            self.prologue.append("x%d = instance.index_at(%s, %d)" % (n, p, key_pos))
            self.loop("f%d" % n, "x%d.get(%s, ())" % (n, self.build(atom.args[key_pos])))
        target = self.unpack(atom.args, key_pos)
        if target is not None:
            self.line("_, %s = f%d" % (target, n))
        self.check()
        self.line("if %s: continue" % off)


def _renamed(code: CodeType, filename: str) -> CodeType:
    """`code` and the functions defined in it, under another file name."""
    consts = tuple(_renamed(c, filename) if isinstance(c, CodeType) else c for c in code.co_consts)
    return code.replace(co_filename=filename, co_consts=consts)


def _placeholder(n: int, obj):
    """The placeholder of site n, which holds `obj`: a function symbol, a
    constant for a ground term, or a predicate of the same arity."""
    kind = -1 if isinstance(obj, str) else -2 if isinstance(obj, (Constant, Functional)) else obj.arity
    ph = _PLACEHOLDERS.get((n, kind))
    if ph is None:
        name = "\0%d" % n
        ph = name if kind == -1 else Constant(name) if kind == -2 else Predicate(name, kind)
        _PLACEHOLDERS[n, kind] = ph
        _SITE[ph] = n
    return ph


def _canonical(body, entry: Atom, emit) -> tuple:
    """The form of a plan its shape is keyed by, with the objects of its
    sites, in order.  An atom to emit that is a body atom keeps that atom's
    form."""
    sites: list = []
    names: dict[Variable, Variable] = {}

    def term(t):
        if t.__class__ is Variable:
            v = names.get(t)
            if v is None:
                v = names[t] = Variable("\0%d" % len(names))
            return v
        sites.append(t if t.key is not None else t.symbol)
        ph = _placeholder(len(sites) - 1, sites[-1])
        return ph if t.key is not None else Functional(ph, tuple(map(term, t.args)))

    def atom(a: Atom) -> Atom:
        sites.append(a[0])
        return _new_atom(Atom, (_placeholder(len(sites) - 1, a[0]), tuple(map(term, a[1]))))

    entry_form = atom(entry)
    body_form = tuple(map(atom, body))
    emit = tuple(body_form[body.index(a)] if a in body else atom(a) for a in emit)
    return (body_form, entry_form, emit), sites


def _shape(body, entry: Atom, emit, old: int) -> tuple:
    """Generate and compile the kernel of a plan in canonical form.
    Returns its code, its source lines, the sites of its arguments, and
    its steps with the site of each predicate."""
    # A body atom to emit is emitted as the fact it matched.
    emitted = set(body).intersection(emit)
    reads = Counter(iter_vars((entry,) + body))
    reads.update(iter_vars([a for a in emit if a not in emitted]))
    src = _KernelSource(reads, emitted)
    src.open(None)
    target = src.unpack(entry.args)
    src.loop("_" if target is None else "_, " + target, "facts")
    src.check()
    known = src.known
    steps = []
    remaining = list(enumerate(body))
    while remaining:
        scores = [sum(_is_key(t, known) for t in a.args) for _, a in remaining]
        best = max(scores)
        j, atom = remaining.pop(scores.index(best))
        key_pos = next((i for i, t in enumerate(atom.args) if _is_key(t, known)), -1)
        full = best == len(atom.args)
        steps.append((_SITE[atom.predicate], key_pos, j, full))
        if not full and src.loops == _MAX_LOOPS:
            # Continue in a function of its own, defined in the kernel,
            # that takes the bound variables.
            call = "join_%d(%s)" % (
                len(src.functions) + 1, ", ".join(list(map(src.var, src.slots)) + list(src.held.values()))
            )
            src.line(call)
            src.close()
            src.open("def %s:" % call)
        src.step(len(steps) - 1, atom, key_pos, full, j < old)
    out = _tuple(
        src.held.get(a) or "new_atom(Atom, (%s, %s))" % (src.arg(a.predicate), _tuple(map(src.build, a.args)))
        for a in emit
    )
    src.line("out.append(%s)" % out)
    src.close()
    join, *rest = src.functions
    join[0] = "def join(%s):" % ", ".join(
        ["facts", "instance", "out", "new", "fresh"] + ["k%d" % i for i in range(len(src.args))]
    )
    text = "\n".join(join[:1] + ["    " + s for f in rest for s in f] + join[1:]) + "\n"
    code = compile(text, "<kernel>", "exec", dont_inherit=True).co_consts[0]
    return code, text.splitlines(True), tuple(_SITE[a] for a in src.args), tuple(steps)


class JoinPlan:
    """A conjunction compiled once for the variables bound on entry, into
    a kernel: a generated Python function of nested loops.  A plan is
    built once per process for each (body, entry, old, emit): a
    constructor returns the plan it has built before for equal arguments.
    Its kernel is generated (or taken from its shape) and bound at the
    first use of `run`, so a plan that never runs costs nothing more.

    The variables bound on entry are the ones the `entry` atom binds when
    it is matched against a given fact (a delta fact for a pivoted rule, a
    traced fact for a rule head, a demand head for a subsumption test).
    The body atoms are ordered greedily: next comes the atom with the most
    positions that hold a ground term or a bound variable, ties broken by
    body order; its first such position is the key.  A step looks its
    candidates up in the instance's relation of its predicate, through the
    index of the key position (built at its first lookup), then binds or
    checks the other positions with `is` and `is not` on locals: terms are
    hash-consed, so identity is equality.  A step whose atom is bound at
    every position builds the fact and tests the relation's fact set
    instead, and builds no index.  `steps` holds (predicate, key position,
    index in `body`, bound at every position) per step, in join order.

    `run(facts, instance, out, new, fresh)` appends to `out` one match for
    each way to match the entry atom against one of `facts` and join the
    body.  `new` and `fresh` map predicates to sets of their facts.  Every
    step keeps off the facts in `new`; with `old=k`, the first k atoms of
    `body` keep off the facts in `fresh` as well, so a conjunction pivoted
    on its atom k finds a match holding several `fresh` facts once, at the
    first.  A match is the tuple of the
    instances of the `emit` atoms.  Nothing may write to the instance
    during a run, so the relations are looked up once per run.

    Plans of one shape (`_SHAPES`) share the kernel's code; each binds its
    own predicates, ground terms and function symbols as the kernel's
    trailing arguments.  The kernel's source is registered with `linecache`
    under a file name that holds the conjunction, so tracebacks and
    profiles show the line and the rule it joins."""

    __slots__ = ("key", "run")
    _table: "dict[tuple, JoinPlan]" = {}

    def __new__(cls, body, entry: Atom, old: int = 0, emit: "tuple[Atom, ...]" = ()):
        key = (tuple(body), entry, old, emit)
        plan = JoinPlan._table.get(key)
        if plan is None:
            plan = JoinPlan._table[key] = object.__new__(cls)
            plan.key = key
        return plan

    def _shape(self) -> tuple:
        """The plan's shape and the objects of its sites (`_canonical`)."""
        body, entry, old, emit = self.key
        form, sites = _canonical(body, entry, emit)
        shape = _SHAPES.get((form, old))
        if shape is None:
            shape = _SHAPES[form, old] = _shape(*form, old)
        return shape, sites

    def __getattr__(self, name: str):
        """Build the kernel at the first use of `run`."""
        if name != "run":
            raise AttributeError(name)
        (code, lines, args, _), sites = self._shape()
        body, entry, old, emit = self.key
        filename = "<kernel %s :- %s%s>" % (
            ", ".join(map(repr, emit)), ", ".join(map(repr, (entry,) + body)), "; old %d" % old if old else ""
        )
        linecache.cache[filename] = (sum(map(len, lines)), None, lines, filename)
        self.run = FunctionType(
            _renamed(code, filename), _KERNEL_GLOBALS, "join", tuple(sites[i] for i in args)
        )
        return self.run

    @property
    def steps(self) -> tuple:
        (_, _, _, steps), sites = self._shape()
        return tuple((sites[p], *rest) for p, *rest in steps)

    def run_from(self, fact: Atom, instance: "Instance", out) -> None:
        """Append to `out` the matches whose entry atom is `fact`; the
        caller has checked that the predicates agree."""
        self.run((fact,), instance, out, {}, {})

    def holds_from(self, fact: Atom, instance: "Instance") -> bool:
        """Whether some match has `fact` as its entry atom; the join stops
        at the first."""
        try:
            self.run((fact,), instance, FIRST_MATCH, {}, {})
        except MatchFound:
            return True
        return False
