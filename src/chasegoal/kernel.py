"""Terms, atoms, rules and indexed fact stores shared by every pipeline stage,
and the join plans that match rule bodies against the stores.

Terms and predicates are hash-consed: a constructor returns the one object
per value, so two equal terms are the same object and compare and hash by
identity.  Every ground term also has an int id from one process-wide term
table, and lists indexed by id hold each term's object, depth and, for a
function term, symbol and argument ids; the term order is computed from
them (`precedes`).  A stored fact is a row: the exact tuple of its
arguments' ids.  An instance keeps one relation per predicate, a set of
rows indexed by id, so the predicate is only the relation's key, and a
fact is one tuple of ints, which the cyclic garbage collector stops
tracking at its first collection.  The engine works on rows from end to
end; atoms, tuples (predicate, args) of term objects, come back only at
the boundary: rules, building and reading an instance, and the results.
A term's, atom's or rule's `repr` is the text the front end reads back.

A join plan is compiled into a kernel: a generated Python function whose
nested `for` loops walk the index candidates of each body atom, unpack
rows and compare ids with `!=`, and which builds its output, a rule head's
row for instance, at the innermost loop.  Two process-wide tables keep
generation off the hot path: `JoinPlan` returns the plan it has built
before for equal arguments, which generates its kernel's source once, and
`_SHAPES` maps each source text to its compiled code.  The source takes
the plan's predicates, ground term ids and function symbols as arguments,
so plans that differ only in those share one text and compile it once.
Like the term table, both grow with the distinct plans and texts a process
has seen."""

from __future__ import annotations

import linecache
import re
from dataclasses import dataclass
from operator import itemgetter
from types import CodeType, FunctionType
from typing import Iterable, Iterator, Optional, Union

# ---------------------------------------------------------------------------
# Hash-consing
# ---------------------------------------------------------------------------


class _Interned:
    """Base of the hash-consed classes.  Each class looks a value up in a
    table from value to object (ground terms in the term table), and its
    constructor returns the table's object for a value it has built before,
    so equal values are the same object.  Equality and hashing are therefore
    `object`'s identity defaults, which run in C.  The tables hold their
    objects for the life of the process.

    The value is the tuple of the `_fields`, given by position.  Copying
    and pickling keep identity: a copy is the object itself, and an
    unpickled object is looked up through the constructor."""

    __slots__ = ()
    _fields: "tuple[str, ...]" = ()
    _table: dict

    def __new__(cls, *value):
        obj = cls._table.get(value)
        if obj is None:
            obj = _build(cls, cls._table, value, **dict(zip(cls._fields, value)))
        return obj

    def __repr__(self) -> str:
        fields = ", ".join("%s=%r" % (f, getattr(self, f)) for f in self._fields)
        return "%s(%s)" % (type(self).__name__, fields)

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
# Terms and the term table
# ---------------------------------------------------------------------------

# The term table gives every ground term an int id, in the order the terms
# are built, for the life of the process.  A ground term keeps its id
# (`id`; None for a term with a variable), and the lists below, indexed by
# id, hold each ground term's object, depth (0 for a constant, one more than
# its deepest argument for a function term) and, for a function term, its
# symbol and argument ids, so the engine reads them without touching the
# object; the table is the only place a term's depth is kept.  The term
# order (`precedes`) is computed from these lists.  A constant is found by
# its name in `_CONSTANTS`, a ground function term by its symbol and
# argument ids in `_FUNCTIONS`, whose key is the term's `STRUCT` entry; a
# lookup that misses builds the term.
TERMS: "list[Term]" = []
DEPTH: "list[int]" = []
# (symbol, argument id, ...) of a function term, () of a constant.
STRUCT: "list[tuple]" = []
# The inverse of `STRUCT`: each term id -> the ids of the function terms
# that hold it as a direct argument (twice if one holds it twice).  Only
# merges read it, through `ancestors`, which first extends it over the terms
# built since its last call: it covers the first `_parented` ids, and a
# process that never merges never builds it.
PARENTS: "dict[int, list[int]]" = {}
_parented = 0
# The depth of the deepest term in the table.
_deepest = 0


def deepest() -> int:
    """The depth of the deepest ground term built so far: no fact can hold
    a deeper one."""
    return _deepest


def _enter(term, depth: int, struct: tuple) -> int:
    """Give a new ground term the next id and record it in the lists."""
    global _deepest
    tid = len(TERMS)
    object.__setattr__(term, "id", tid)
    TERMS.append(term)
    DEPTH.append(depth)
    STRUCT.append(struct)
    if depth > _deepest:
        _deepest = depth
    return tid


def precedes(s: int, t: int) -> bool:
    """Whether the ground term with id `s` comes before the one with id `t`
    in the term order: by depth, then by name or symbol, then at the first
    arguments that differ, then by arity.  Constants come first, so a class
    with a constant has a constant representative.  Equal subterms share one
    id, so each level descends into one pair of arguments: O(depth)."""
    while DEPTH[s] == DEPTH[t]:
        xs, xt = STRUCT[s] or (TERMS[s].name,), STRUCT[t] or (TERMS[t].name,)
        if xs[0] != xt[0]:
            return xs[0] < xt[0]
        pair = next(((u, v) for u, v in zip(xs[1:], xt[1:]) if u != v), None)
        if pair is None:
            return len(xs) < len(xt)
        s, t = pair
    return DEPTH[s] < DEPTH[t]


def ancestors(*terms: int) -> set:
    """A new set of `terms` and of every function term that holds one of
    them at any depth, read from `PARENTS`, which it first extends over the
    terms built since its last call."""
    global _parented
    for t, struct in enumerate(STRUCT[_parented:], _parented):
        for s in struct[1:]:
            PARENTS.setdefault(s, []).append(t)
    _parented = len(STRUCT)
    seen = set(terms)
    todo = list(seen)
    while todo:
        for v in PARENTS.get(todo.pop(), ()):
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


def arg_ids(t: int) -> "tuple[int, ...]":
    """The argument ids of the term with id `t`, () for a constant."""
    return STRUCT[t][1:]


class _ConstantTable(dict):
    """Constants by name: looking up a name the table lacks builds the
    constant and enters it in the term table (`__missing__`)."""

    __slots__ = ()

    def __missing__(self, name: str) -> "Constant":
        c = object.__new__(Constant)
        object.__setattr__(c, "name", name)
        _enter(c, 0, ())
        self[name] = c
        return c


class _FunctionTable(dict):
    """Ids of ground function terms by (symbol, argument id, ...): looking up
    one the table lacks builds the term and enters it in the term table
    (`__missing__`), so a kernel builds a head's function term with one
    lookup."""

    __slots__ = ()

    def __missing__(self, struct: tuple) -> int:
        symbol, ids = struct[0], struct[1:]
        t = object.__new__(Functional)
        object.__setattr__(t, "symbol", symbol)
        object.__setattr__(t, "args", tuple([TERMS[i] for i in ids]))
        tid = self[struct] = _enter(t, 1 + max([DEPTH[i] for i in ids], default=0), struct)
        return tid


_CONSTANTS: "dict[str, Constant]" = _ConstantTable()
_FUNCTIONS: "dict[tuple, int]" = _FunctionTable()
# Function terms with a variable, which only rules hold: interned by symbol
# and argument objects, outside the term table.
_OPEN: "dict[tuple, Functional]" = {}


class Variable(_Interned):
    __slots__ = ("name",)
    _fields = __slots__
    _table: "dict[tuple, Variable]" = {}
    id = None

    def __repr__(self) -> str:
        return "?" + self.name


class Constant(_Interned):
    """A constant.  `Constant(name)` is one lookup in the term table's map
    of names (`_table`), which builds the constant at the first lookup of
    its name."""

    __slots__ = ("name", "id")
    _fields = ("name",)
    _table: "dict[str, Constant]" = _CONSTANTS
    # The names `repr` leaves unquoted; the front end reads back both forms.
    _bare = re.compile(r"[A-Za-z0-9_]+")

    def __new__(cls, name: str):
        return _CONSTANTS[name]

    def __repr__(self) -> str:
        if self._bare.fullmatch(self.name):
            return self.name
        return "'%s'" % self.name.replace("'", "''")


class Functional(_Interned):
    """A function term.  A ground one is found in the term table by its
    symbol and argument ids; one with a variable in `_OPEN`."""

    __slots__ = ("symbol", "args", "id")
    _fields = ("symbol", "args")

    def __new__(cls, symbol: str, args: "tuple[Term, ...]"):
        args = tuple(args)
        ids = [a.id for a in args]
        if None not in ids:
            return TERMS[_FUNCTIONS[(symbol, *ids)]]
        t = _OPEN.get((symbol, args))
        if t is None:
            t = _build(cls, _OPEN, (symbol, args), symbol=symbol, args=args, id=None)
        return t

    def __repr__(self) -> str:
        return "%s(%s)" % (self.symbol, ",".join(map(repr, self.args)))


Term = Union[Variable, Constant, Functional]


def is_ground(x: "Term | Atom") -> bool:
    if isinstance(x, Atom):
        return all(a.id is not None for a in x.args)
    return x.id is not None


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


# ---------------------------------------------------------------------------
# Predicates and atoms
# ---------------------------------------------------------------------------


class Predicate(_Interned):
    """A relation symbol: an input predicate, or the graph predicate of a
    constant or function symbol (`finalize.graph_predicate`)."""

    __slots__ = ("name", "arity")
    _fields = __slots__
    _table: "dict[tuple, Predicate]" = {}


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

    __slots__ = ("base", "adornment")
    _fields = __slots__
    _table: "dict[tuple, MagicPredicate]" = {}

    @property
    def arity(self) -> int:
        return self.adornment.count("b")


PredicateId = Union[Predicate, _EqualityPredicate, MagicPredicate]


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
        if not self[1]:
            return pred_label(self[0])
        return "%s(%s)" % (pred_label(self[0]), ",".join(map(repr, self[1])))


# Builds an atom from a (predicate, args) pair whose args are a tuple,
# skipping `Atom.__new__`: tuple.__new__(Atom, pair).
_new_atom = tuple.__new__


def eq(t1: Term, t2: Term) -> Atom:
    return Atom(EQUALITY, (t1, t2))


def equality_fault(a: Atom, relational_vars: "set[Variable]") -> "str | None":
    """Why the body equality `a` breaks equality safety, or None: it must
    be ?x = ?y or ?x = s with s ground, and share a variable with the
    relational atoms of its body, whose variables are `relational_vars`."""
    s, t = a.args
    if not isinstance(s, Variable):
        return "left side is not a variable" if isinstance(t, Variable) else "neither side is a variable"
    if not (isinstance(t, Variable) or is_ground(t)):
        return "right side is neither a variable nor ground"
    if not (vars_of(a) & relational_vars):
        return "no variable shared with a relational body atom"
    return None


def pred_label(p: PredicateId) -> str:
    if isinstance(p, Predicate):
        return p.name
    if isinstance(p, _EqualityPredicate):
        return "eq"
    if isinstance(p, MagicPredicate):
        return "m_%s#%s" % (pred_label(p.base), p.adornment)
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

    def __repr__(self) -> str:
        return "%s -> %s" % (", ".join(map(repr, self.body)), ", ".join(map(repr, self.head)))

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
# Substitutions
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


def fresh_name(candidates: "Iterable[str]", taken: "set[str]") -> str:
    """The first of `candidates` not in `taken`, which it adds to `taken`."""
    name = next(c for c in candidates if c not in taken)
    taken.add(name)
    return name


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

_EMPTY: frozenset = frozenset()
_term = TERMS.__getitem__


class ChaseError(RuntimeError):
    rule: "Optional[Rule]" = None  # the rule a tripped guard was applying


class BodyContractViolation(ChaseError):
    """A rule or a fact outside what the engine takes: a rule body that
    breaks the chase's contract, a head variable no body binds, or a fact
    with a variable."""


def atom_of(pred: "PredicateId", row) -> Atom:
    """The atom of a predicate's row."""
    return _new_atom(Atom, (pred, tuple(map(_term, row))))


def row_of(fact: Atom) -> "tuple[int, ...]":
    """The row of a ground atom; an atom with a variable raises
    `BodyContractViolation`."""
    row = tuple([t.id for t in fact[1]])
    if None in row:
        raise BodyContractViolation("non-ground fact %r" % (fact,))
    return row


class _Relation:
    """The rows of one predicate, and an index for each argument position
    looked up so far: a map from each term id to the rows holding it there.
    A bucket holding one row is the 1-tuple of it, which the cyclic
    collector stops tracking: it becomes a set when a second row arrives,
    and a 1-tuple again when a removal leaves one; a kernel iterates either
    kind."""

    __slots__ = ("facts", "index")

    def __init__(self, facts: Iterable = (), index: "Optional[dict]" = None):
        self.facts: set = set(facts)
        self.index: dict[int, dict] = {} if index is None else index

    def clone(self) -> "_Relation":
        return _Relation(
            self.facts,
            {
                pos: {t: s if s.__class__ is tuple else set(s) for t, s in index.items()}
                for pos, index in self.index.items()
            },
        )


def _index_rows(index: dict, pos: int, rows) -> None:
    """Add rows to the buckets of a position index, by their term id at
    `pos`."""
    for row in rows:
        t = row[pos]
        s = index.get(t)
        if s is None:
            index[t] = (row,)
        elif s.__class__ is tuple:
            index[t] = {s[0], row}
        else:
            s.add(row)


def containing(instance: "Instance", terms: Iterable[int]) -> dict:
    """A new map from each predicate of `instance` to its rows holding one
    of `terms` at any depth of an argument, as a dict's keys: the unary
    relations first, then the others, each group in relation order.  A
    unary fact holding `u` is the row `(u,)` of its relation, an n-ary one
    is found in the index of each of its positions (`Instance.index_at`),
    and a fact holding `u` below a function symbol through the function
    terms above `u` (`ancestors`).  A nullary relation holds no term."""
    terms = ancestors(*terms)
    singles = {(t,) for t in terms}
    found: dict = {}
    nary = []
    for pred, rows in instance.relations():
        arity = len(next(iter(rows), ()))
        if arity == 1:
            hits = rows & singles
            if hits:
                found[pred] = dict.fromkeys(hits)
        elif arity:
            nary.append((pred, arity))
    for pred, arity in nary:
        for pos in range(arity):
            index = instance.index_at(pred, pos)
            for t in index.keys() & terms:
                found.setdefault(pred, {}).update(dict.fromkeys(index[t]))
    return found


class Instance:
    """Mutable set of ground atoms, stored as one relation per predicate.

    A relation holds its predicate's facts as rows, exact tuples of term
    ids (see the term table), so a stored fact is one tuple of ints that
    the cyclic collector stops tracking, and the predicate appears only as
    the relation's key.  The engine reads and writes rows (`rows`,
    `add_all`, `extend`, `remove`, `index_at`); atoms come back only at
    this boundary: building an instance from atoms, iterating it, and
    `in`, `add`, `discard` and `with_predicate`.

    A relation also holds an index for each argument position some join or
    merge has looked up (`index_at`), from each term id to the rows holding
    it there.  An index is built at the first lookup of its position and
    kept up to date from then on; a join reads it from the relation, so no
    other map of the indexes is kept.  Merges find the facts holding a term
    through these indexes too (`containing`), so no index by term is kept.

    Copy-on-write: `copy` and `snapshot` share every relation with the
    original, in O(predicates).  No fact of a shared relation is ever added
    or removed: the side that writes it first, either one, clones that
    one relation and writes the clone, so no write shows on the other side.
    Position indexes are derived data: any sharer may build one on a shared
    relation, every sharer then reads it, and a clone copies it.  So the
    indexes the joins over a long-lived base build stay with that base.

    Single writer: the sets returned by the row lookups are live views and
    must be copied before mutating the instance while iterating them.  An
    index entry is dropped once it empties, and a write may clone the
    relation a view belongs to, so a view held across a write need not see
    it.
    """

    def __init__(self, facts: Iterable[Atom] = ()):
        self._rels: dict[PredicateId, _Relation] = {}
        # The relations this instance may write: those no other one shares.
        self._mine: dict[PredicateId, _Relation] = {}
        self._size = 0
        by_pred: dict[PredicateId, list] = {}
        for f in facts:
            by_pred.setdefault(f[0], []).append(row_of(f))
        for pred, rows in by_pred.items():
            self.extend(pred, rows)

    def _share(self, cls) -> "Instance":
        new = object.__new__(cls)
        new._rels = dict(self._rels)
        new._mine = {}
        new._size = self._size
        self._mine = {}
        return new

    def copy(self) -> "Instance":
        """A writable instance with the same facts, sharing every relation
        copy-on-write."""
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

    # -- rows ----------------------------------------------------------------

    def add_all(self, pred: PredicateId, rows: Iterable) -> dict:
        """Add in one write the rows of `pred` this instance lacks; returns
        them once each, in order, as the keys of a dict.  Into an empty
        relation the rows go in C; once it holds rows, a Python
        comprehension tests each one.  A shared relation that holds every
        row is not cloned.  A writer that does not read the new rows calls
        `extend`."""
        rel = self._mine.get(pred)
        current = self._rels.get(pred) if rel is None else rel
        have = _EMPTY if current is None else current.facts
        new = dict.fromkeys([r for r in rows if r not in have] if have else rows)
        if new:
            if rel is None:
                rel = self._own(pred)
            rel.facts.update(new)
            self._size += len(new)
            for pos, index in rel.index.items():
                _index_rows(index, pos, new)
        return new

    def extend(self, pred: PredicateId, rows: Iterable) -> None:
        """Add the rows of `pred` in one write that reports nothing: set
        operations in C, on a clone if the relation is shared.  Only a
        relation with an index has its new rows found, to index them."""
        rel = self._mine.get(pred) or self._own(pred)
        if rel.index:
            rows = set(rows).difference(rel.facts)
            for pos, index in rel.index.items():
                _index_rows(index, pos, rows)
        n = len(rel.facts)
        rel.facts.update(rows)
        self._size += len(rel.facts) - n

    def remove(self, pred: PredicateId, row) -> bool:
        rel = self._rels.get(pred)
        if rel is None or row not in rel.facts:
            return False
        if self._mine.get(pred) is not rel:
            rel = self._own(pred)
        rel.facts.discard(row)
        self._size -= 1
        for pos, index in rel.index.items():
            t = row[pos]
            s = index[t]
            if s.__class__ is tuple:  # an emptied entry is dropped
                del index[t]
                continue
            s.discard(row)
            if len(s) == 1:
                index[t] = (*s,)
        return True

    def rows(self, pred: PredicateId) -> set:
        rel = self._rels.get(pred)
        return _EMPTY if rel is None else rel.facts

    def relations(self) -> "Iterator[tuple[PredicateId, set]]":
        """Each predicate with a relation, and its rows."""
        return ((pred, rel.facts) for pred, rel in self._rels.items())

    def index_at(self, pred: PredicateId, pos: int) -> dict:
        """The index of argument position `pos` of `pred`'s rows, from each
        term id to the rows holding it there, a 1-tuple or a set.  It is
        built at the first lookup of the position in any instance sharing
        the relation.  A predicate that has no relation yet gets a new empty
        map, which no write updates."""
        rel = self._rels.get(pred)
        if rel is None:
            return {}
        index = rel.index.get(pos)
        if index is None:
            index = rel.index[pos] = {}
            _index_rows(index, pos, rel.facts)
        return index

    # -- atoms ---------------------------------------------------------------

    def add(self, fact: Atom) -> bool:
        return bool(self.add_all(fact[0], (row_of(fact),)))

    def discard(self, fact: Atom) -> bool:
        return is_ground(fact) and self.remove(fact[0], row_of(fact))

    def __contains__(self, fact: Atom) -> bool:
        return is_ground(fact) and row_of(fact) in self.rows(fact[0])

    def __iter__(self) -> Iterator[Atom]:
        for pred, rows in list(self.relations()):
            for row in rows:
                yield atom_of(pred, row)

    def __len__(self) -> int:
        return self._size

    def with_predicate(self, pred: PredicateId) -> "set[Atom]":
        """A new set of `pred`'s facts."""
        return {atom_of(pred, row) for row in self.rows(pred)}

    def predicates(self) -> "set[PredicateId]":
        return {pred for pred, rel in self._rels.items() if rel.facts}


class ReadOnlyInstance(Instance):
    """An instance whose facts never change, made by `Instance.snapshot`:
    `add`, `add_all`, `extend`, `discard` and `remove` raise `TypeError`,
    and `copy` gives a writable instance."""

    def add_all(self, pred: PredicateId, rows: Iterable) -> dict:
        raise TypeError("a read-only instance cannot change; write to a copy()")

    def extend(self, pred: PredicateId, rows: Iterable) -> None:
        raise TypeError("a read-only instance cannot change; write to a copy()")

    def remove(self, pred: PredicateId, row) -> bool:
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

# Kernels compiled in this process: source text -> its code and its lines
# for `linecache`.  The source names no predicate, ground term or function
# symbol: the kernel takes them as trailing arguments k0, k1, ..., which a
# plan binds as the defaults of its function.  Plans that differ only in
# those objects generate the same text, and compile it once.  The table
# grows with the distinct texts a process has seen, like the term table.
_SHAPES: "dict[str, tuple]" = {}
_KERNEL_GLOBALS = {"fun": _FUNCTIONS, "struct": STRUCT}
# The nested `for` loops one generated function holds; CPython allows 20
# nested blocks, so a longer plan continues in a function of its own.
_MAX_LOOPS = 16


def _is_key(t: Term, bound: "set[Variable]") -> bool:
    return t in bound if isinstance(t, Variable) else t.id is not None


def _tuple(items) -> str:
    items = list(items)
    return "(%s,)" % items[0] if len(items) == 1 else "(%s)" % ", ".join(items)


class _KernelSource:
    """The source of a kernel, written step by step.  A variable some later
    position reads lives in the local `v<n>`, numbered in the order the
    kernel binds them (`slots`); a variable nothing reads again is not
    bound.  Every other object the kernel reads is an argument `k<n>`,
    recorded in `args` (a ground term by its id), or one of the term
    table's globals: `fun`, which finds a function term's id, and `struct`,
    which splits one.  Every row the kernel emits, a body atom's too, is
    built from the bound variables (`build`)."""

    def __init__(self, reads: "dict[Variable, int]"):
        self.reads = reads  # occurrences of each variable, its output included
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

    def loop(self, target: str, iterable: str):
        self.line("for %s in %s:" % (target, iterable))
        self.depth += 1
        self.loops += 1

    def unpack(self, args: "tuple[Term, ...]", key_pos: int = -1) -> "Optional[list[str]]":
        """The assignment targets that bind the variables of the patterns
        `args` when they unpack a row, None if they bind none; position
        `key_pos` is known to hold its pattern.  The positions to check are
        queued in `checks`."""
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
        return targets if any(x != "_" for x in targets) else None

    def check(self):
        """Check the queued positions against their patterns: a term id
        against a bound variable's or a ground term's with `!=`, a function
        pattern against the term's symbol and argument ids (`struct`)."""
        while self.checks:
            t, u = self.checks.pop(0)
            if isinstance(t, Variable):
                self.line("if %s != %s: continue" % (u, self.var(t)))
            elif t.id is not None:
                self.line("if %s != %s: continue" % (u, self.arg(t.id)))
            else:
                s = self.temp()
                self.line("%s = struct[%s]" % (s, u))
                self.line(
                    "if len(%s) != %d or %s[0] != %s: continue"
                    % (s, len(t.args) + 1, s, self.arg(t.symbol))
                )
                targets = self.unpack(t.args)
                if targets is not None:
                    self.line("%s = %s" % (_tuple(["_"] + targets), s))

    def build(self, t: Term) -> str:
        """An expression for the id of the instance of `t` under the bound
        variables; a function term is looked up in (and, if new, entered
        into) the term table."""
        if isinstance(t, Variable):
            return self.var(t)
        if t.id is not None:
            return self.arg(t.id)
        return "fun[%s]" % ", ".join([self.arg(t.symbol)] + list(map(self.build, t.args)))

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
            self.prologue.append("s%d = instance.rows(%s)" % (n, p))
        if full:
            self.line("f%d = %s" % (n, _tuple(map(self.build, atom.args))))
            self.line("if f%d not in s%d or %s: continue" % (n, n, off))
            return
        if key_pos < 0:
            self.loop("f%d" % n, "s%d" % n)
        else:
            self.prologue.append("x%d = instance.index_at(%s, %d)" % (n, p, key_pos))
            self.loop("f%d" % n, "x%d.get(%s, ())" % (n, self.build(atom.args[key_pos])))
        targets = self.unpack(atom.args, key_pos)
        if targets is not None:
            self.line("%s = f%d" % (_tuple(targets), n))
        self.check()
        self.line("if %s: continue" % off)


def _renamed(code: CodeType, filename: str) -> CodeType:
    """`code` and the functions defined in it, under another file name."""
    consts = tuple(_renamed(c, filename) if isinstance(c, CodeType) else c for c in code.co_consts)
    return code.replace(co_filename=filename, co_consts=consts)


def _count_reads(reads: dict, terms) -> None:
    """Count in `reads` the occurrences of each variable in `terms`."""
    for t in terms:
        if t.__class__ is Variable:
            reads[t] = reads.get(t, 0) + 1
        elif t.id is None:
            _count_reads(reads, t.args)


def _source(body, entry: Atom, emit, old: int) -> tuple:
    """Generate the kernel of a plan.  Returns its source text, the objects
    it takes as its trailing arguments, and its steps."""
    reads: dict = {}
    for a in (entry, *body, *emit):
        _count_reads(reads, a[1])
    src = _KernelSource(reads)
    src.open(None)
    targets = src.unpack(entry.args)
    src.loop("_" if targets is None else _tuple(targets), "facts")
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
        steps.append((atom.predicate, key_pos, j, full))
        if not full and src.loops == _MAX_LOOPS:
            # Continue in a function of its own, defined in the kernel,
            # that takes the bound variables.
            call = "join_%d(%s)" % (len(src.functions) + 1, ", ".join(map(src.var, src.slots)))
            src.line(call)
            src.close()
            src.open("def %s:" % call)
        src.step(len(steps) - 1, atom, key_pos, full, j < old)
    rows = [_tuple(map(src.build, a.args)) for a in emit]
    src.line("out.append(%s)" % (rows[0] if len(rows) == 1 else _tuple(rows)))
    src.close()
    join, *rest = src.functions
    join[0] = "def join(%s):" % ", ".join(
        ["facts", "instance", "out", "new", "fresh"] + ["k%d" % i for i in range(len(src.args))]
    )
    text = "\n".join(join[:1] + ["    " + s for f in rest for s in f] + join[1:]) + "\n"
    return text, tuple(src.args), tuple(steps)


class JoinPlan:
    """A conjunction compiled once for the variables bound on entry, into
    a kernel: a generated Python function of nested loops.  A plan is
    built once per process for each (body, entry, old, emit): a
    constructor returns the plan it has built before for equal arguments.
    Its kernel is generated and bound at the first use of `run`, so a plan
    that never runs costs nothing more.

    The variables bound on entry are the ones the `entry` atom binds when
    it is matched against a given fact (a delta fact for a pivoted rule, a
    traced fact for a rule head, a demand head for a subsumption test).
    The body atoms are ordered greedily: next comes the atom with the most
    positions that hold a ground term or a bound variable, ties broken by
    body order; its first such position is the key.  A step looks its
    candidates up in the instance's relation of its predicate, through the
    index of the key position (built at its first lookup), then unpacks
    each candidate row and binds or checks the other positions, comparing
    term ids with `!=`.  A step whose atom is bound at every position
    builds the row and tests the relation's row set instead, and builds no
    index.  `steps` holds (predicate, key position, index in `body`, bound
    at every position) per step, in join order.

    `run(facts, instance, out, new, fresh)` appends to `out` one match for
    each way to match the entry atom against one of the rows `facts` and
    join the body.  `new` and `fresh` map predicates to sets of their rows.
    Every step keeps off the rows in `new`; with `old=k`, the first k atoms
    of `body` keep off the rows in `fresh` as well, so a conjunction pivoted
    on its atom k finds a match holding several `fresh` facts once, at the
    first.  A match is the row of the instance of the `emit` atom if there
    is one, else the tuple of the rows of the `emit` atoms' instances.
    Nothing may write to the instance during a run, so the relations are
    looked up once per run.  `holds` stops at the first match.

    Plans whose kernels have the same source text (`_SHAPES`) share its
    code; each binds its own predicates, ground term ids and function
    symbols as the kernel's trailing arguments.  The kernel's source is
    registered with `linecache` under a file name that holds the
    conjunction, so tracebacks and profiles show the line and the rule it
    joins."""

    __slots__ = ("key", "run", "steps")
    _table: "dict[tuple, JoinPlan]" = {}

    def __new__(cls, body, entry: Atom, old: int = 0, emit: "tuple[Atom, ...]" = ()):
        key = (tuple(body), entry, old, emit)
        plan = JoinPlan._table.get(key)
        if plan is None:
            plan = JoinPlan._table[key] = object.__new__(cls)
            plan.key = key
        return plan

    def __getattr__(self, name: str):
        """Generate the kernel and bind `run` and `steps` at the first use
        of either."""
        if name not in ("run", "steps"):
            raise AttributeError(name)
        body, entry, old, emit = self.key
        text, args, self.steps = _source(body, entry, emit, old)
        kernel = _SHAPES.get(text)
        if kernel is None:
            code = compile(text, "<kernel>", "exec", dont_inherit=True).co_consts[0]
            kernel = _SHAPES[text] = (code, text.splitlines(True))
        code, lines = kernel
        filename = "<kernel %s :- %s%s>" % (
            ", ".join(map(repr, emit)), ", ".join(map(repr, (entry,) + body)), "; old %d" % old if old else ""
        )
        linecache.cache[filename] = (len(text), None, lines, filename)
        self.run = FunctionType(_renamed(code, filename), _KERNEL_GLOBALS, "join", args)
        return getattr(self, name)

    def holds(self, row, instance: "Instance") -> bool:
        """Whether some match has the row `row` as its entry atom; the join
        stops at the first."""
        try:
            self.run((row,), instance, FIRST_MATCH, {}, {})
        except MatchFound:
            return True
        return False

