"""Parsing and serialization: existential rule files, logic-program dumps,
CSV base instances and schema sidecars.

Rule, program and schema files are line based and share one tokenizer:
one compiled regex splits a line into (kind, text, column) tuples, which a
recursive-descent parser walks by index (a schema line is matched whole, up
to the comment the tokenizer finds).  A `#` starts a comment when it opens
the line or follows a space or tab; inside a token (quoted constants, and
the generated names it marks, such as `m_R#bf`, `con_c#` and `?s#1`) it is
part of the token.  An apostrophe inside a name (`?x'`, `a'`) opens no
quote.

A base instance is read one CSV file per predicate, a chunk of rows at a
time: C code checks the rows' sizes, looks their cells up in the term
table's constants and groups their ids into the rows of one batch write
(`Instance.extend`).  No Python code runs per row or cell.  A file's
blocks of plain text are split at `\\n` and `,`; from the first block
holding a quote, a carriage return or NUL on, `csv.reader` reads it.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import attrgetter
from pathlib import Path
from typing import Iterable

from .kernel import (
    EQUALITY,
    Atom,
    Constant,
    Functional,
    Instance,
    MagicPredicate,
    Predicate,
    PredicateId,
    Program,
    Rule,
    TGD,
    Term,
    Variable,
    eq,
    equality_fault,
    pred_label,
    program_predicates,
    rule_atoms,
    vars_of,
)

# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class FrontendError(ValueError):
    def __init__(self, msg: str, line: int = 0, col: int = 0, source: str = ""):
        self.msg, self.line, self.col, self.source = msg, line, col, source
        where = ""
        if source:
            where += source
        if line:
            where += ":%d" % line
            if col:
                where += ":%d" % col
        super().__init__("%s%s%s" % (where, ": " if where else "", msg))


class MalformedRule(FrontendError):
    pass


class ArityMismatch(FrontendError):
    pass


class UnknownPredicate(FrontendError):
    pass


class UnboundFrontierVariable(FrontendError):
    pass


class SortMismatch(FrontendError):
    """A constant occurs at positions of two different sorts, one in each
    of `atoms`."""

    def __init__(self, msg: str, line: int = 0, col: int = 0, source: str = "", atoms=()):
        super().__init__(msg, line, col, source)
        self.atoms = atoms


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# `finditer` skips whitespace, which no alternative matches.  A `#` at the
# start of a line or after a space or tab starts a comment; inside a token
# it is part of it.  `BAD` takes a character no token starts with.  No other
# two alternatives start with the same character, so they are tried in order
# of frequency.
_TOKEN_RE = re.compile(
    r"""
    (?P<NAME>[A-Za-z0-9_][A-Za-z0-9_']*(?:\#[A-Za-z]*)?)
  | (?P<LP>\()
  | (?P<VAR>\?[A-Za-z0-9_][A-Za-z0-9_'\#]*)
  | (?P<RP>\))
  | (?P<COMMA>,)
  | (?P<ARROW>->)
  | (?P<IMPL>:-)
  | (?P<QUOTED>'(?:[^']|'')*')
  | (?P<EQ>=)
  | (?P<DOT>\.)
  | (?P<COMMENT>(?<![^ \t])\#.*)
  | (?P<BAD>\S)
    """,
    re.VERBOSE,
)

# The token that ends a line's tokens, so that the parser reads one past the
# last without a bounds check.
_END = ("END", "end of rule", 0)


def _tokens(line: str) -> list:
    """The tokens of one line before its comment, as (kind, text, column)
    tuples."""
    toks = [(m.lastgroup, m.group(), m.start() + 1) for m in _TOKEN_RE.finditer(line)]
    if toks and toks[-1][0] == "COMMENT":
        toks.pop()
    return toks


# ---------------------------------------------------------------------------
# Term and atom parsing
# ---------------------------------------------------------------------------
#
# Each parser takes a line's tokens and the index of its first token, and
# returns what it parsed with the index after it.  An error names the column
# only; `_parse_lines` adds the line and the source.


def _expect(toks: list, i: int, kind: str) -> int:
    t = toks[i]
    if t[0] != kind:
        raise MalformedRule("expected %s, found %s" % (kind, t[1]), col=t[2])
    return i + 1


def _parse_term(toks: list, i: int, dump: bool) -> "tuple[Term, int]":
    kind, text, col = toks[i]
    if kind == "VAR":
        if not dump:
            _check_variable_name(text[1:], col)
        return Variable(text[1:]), i + 1
    if kind == "QUOTED":
        return Constant(text[1:-1].replace("''", "'")), i + 1
    if kind == "NAME":
        if not dump and "#" in text:
            raise MalformedRule("'#' is not allowed in constants", col=col)
        if toks[i + 1][0] == "LP":
            if not dump:
                raise MalformedRule("function terms are not allowed in input rules", col=col)
            if toks[i + 2][0] == "RP":  # the Skolem term of a rule with no frontier variable
                return Functional(text, ()), i + 3
            args, i = _parse_args(toks, i + 1, dump)
            return Functional(text, args), i
        return Constant(text), i + 1
    raise MalformedRule("expected a term" + ("" if kind == "END" else ", found %r" % text), col=col)


def _check_predicate_name(name: str, col: int = 0):
    """Raise unless `name` can name an input predicate: it holds no `#`,
    which marks the magic and graph predicates the pipeline generates."""
    if "#" in name:
        raise MalformedRule("'#' is not allowed in predicate names", col=col)


def _check_variable_name(name: str, col: int = 0):
    """Raise unless `name` can name an input variable: it holds no `#`."""
    if "#" in name:
        raise MalformedRule("variable name ?%s uses the reserved character '#'" % name, col=col)


def _predicate(name: str, arity: int, col: int, dump: bool) -> PredicateId:
    """The predicate a name denotes.  Input rules allow ordinary names only;
    dumps also decode magic predicates, the equality's by its adornment."""
    if not dump:
        _check_predicate_name(name, col)
        return Predicate(name, arity)
    if name.startswith("m_") and "#" in name:
        base_label, adornment = name[2:].rsplit("#", 1)
        if adornment == "eqb":
            base: PredicateId = EQUALITY
            ok = base_label == "eq"
        else:
            base = Predicate(base_label, len(adornment))
            ok = set(adornment) <= {"b", "f"}
        if not ok or arity != adornment.count("b"):
            raise MalformedRule("malformed magic predicate %s/%d" % (name, arity), col=col)
        return MagicPredicate(base, adornment)
    if "#" in name and not (name.startswith(("fun_", "con_")) and name.endswith("#")):
        raise MalformedRule("'#' is only allowed in magic and graph predicate names: %s" % name, col=col)
    return Predicate(name, arity)


# The tokens that may follow a nullary atom.
_AFTER_ATOM = frozenset(("COMMA", "ARROW", "IMPL", "DOT", "END"))


def _parse_atom(toks: list, i: int, dump: bool) -> "tuple[Atom, int]":
    """An atom of an input rule (`dump` false) or of a program dump (`dump`
    true: function terms, generated variables and generated predicates)."""
    kind, text, col = toks[i]
    if kind == "NAME":
        after = toks[i + 1][0]
        if after == "LP":
            args, i = _parse_args(toks, i + 1, dump)
            return Atom(_predicate(text, len(args), col, dump), args), i
        if after in _AFTER_ATOM:
            return Atom(_predicate(text, 0, col, dump), ()), i + 1
    elif kind == "END":
        raise MalformedRule("expected an atom")
    # An equality s = t.
    lhs, i = _parse_term(toks, i, dump)
    rhs, i = _parse_term(toks, _expect(toks, i, "EQ"), dump)
    return eq(lhs, rhs), i


def _parse_list(toks: list, i: int, item, dump: bool) -> "tuple[tuple, int]":
    """One or more comma-separated items, each parsed by `item`."""
    first, i = item(toks, i, dump)
    items = [first]
    while toks[i][0] == "COMMA":
        x, i = item(toks, i + 1, dump)
        items.append(x)
    return tuple(items), i


def _parse_args(toks: list, i: int, dump: bool) -> "tuple[tuple[Term, ...], int]":
    """The argument list `(t, t, ...)` whose `(` is token `i`."""
    args, i = _parse_list(toks, i + 1, _parse_term, dump)
    return args, _expect(toks, i, "RP")


def _parse_lines(text: str, source: str, parse_rule):
    """Yield (line number, rule) for each line of `text` holding one:
    `parse_rule` parses the rule from the line's tokens, and an optional
    closing `.` may follow, then nothing else.  A line holding a character
    no token starts with is rejected at that character, whatever else is
    wrong with it."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokens(raw)
        if not toks:
            continue
        toks.append(_END)
        try:
            rule, i = parse_rule(toks)
            if toks[i][0] == "DOT":
                i += 1
            if toks[i] is not _END:
                raise MalformedRule("trailing input after rule", col=toks[i][2])
        except MalformedRule as e:
            for kind, char, col in toks:
                if kind == "BAD":
                    raise MalformedRule("unexpected character %r" % char, lineno, col, source) from None
            raise MalformedRule(e.msg, lineno, e.col, source) from None
        yield lineno, rule


# ---------------------------------------------------------------------------
# Existential rule files
# ---------------------------------------------------------------------------


def check_rule(r: TGD):
    """Raise `FrontendError` unless an existential rule has a shape the
    pipeline accepts: its body has a relational atom, and an equality head
    is the only head atom, every variable of it occurs in the body, and at
    least one of its sides is a variable.  `parse_rules` runs it on every
    rule it reads and adds the line to the message; `check_scenario` runs
    it on every rule of a scenario."""
    if all(a.is_equality for a in r.body):
        raise MalformedRule("rule body needs at least one relational atom")
    if not any(a.is_equality for a in r.head):
        return
    if len(r.head) != 1:
        raise MalformedRule("an equality head must be the only head atom")
    lhs, rhs = r.head[0].args
    body_vars = vars_of(r.body)
    for side in (lhs, rhs):
        if isinstance(side, Variable) and side not in body_vars:
            raise UnboundFrontierVariable(
                "equality head variable ?%s does not occur in the body" % side.name
            )
    if not isinstance(lhs, Variable) and not isinstance(rhs, Variable):
        raise MalformedRule("at least one side of an equality head must be a variable")


def _parse_existential_rule(toks: list) -> "tuple[TGD, int]":
    body, i = _parse_list(toks, 0, _parse_atom, False)
    head, i = _parse_list(toks, _expect(toks, i, "ARROW"), _parse_atom, False)
    return TGD(body, head), i


def parse_rules(text: str, source: str = "<rules>") -> "list[TGD]":
    """Parse existential rules, one per line: `body -> head`.

    Head atoms are relational (head variables missing from the body are
    existential) or a single equality `?x = ?y` / `?x = c` (an
    equality-generating rule).  Input rules are function free, and a body
    may hold equality atoms.  A predicate keeps the arity of its first use,
    no predicate or variable name holds `#`, and every rule passes
    `check_rule` and `_check_input_rule`, so an error names its line.  No
    stage dump reads back through this parser: `sg` prints the variables it
    generates, which hold `#`, and the later stages are logic programs for
    `parse_program`.
    """
    return [rule for _, rule in _numbered_rules(text, source)]


def _numbered_rules(text: str, source: str) -> "list[tuple[int, TGD]]":
    """The rules `parse_rules` reads, each with its line number."""
    rules: list[tuple[int, TGD]] = []
    arities: dict[str, tuple[int, int]] = {}
    for lineno, rule in _parse_lines(text, source, _parse_existential_rule):
        for a in rule.body + rule.head:
            if a.is_equality:
                continue
            seen = arities.get(a.predicate.name)
            if seen is not None and seen[0] != a.predicate.arity:
                raise ArityMismatch(
                    "predicate %s used with arity %d (arity %d at line %d)"
                    % (a.predicate.name, a.predicate.arity, seen[0], seen[1]),
                    lineno,
                    1,
                    source,
                )
            arities.setdefault(a.predicate.name, (a.predicate.arity, lineno))
        try:
            check_rule(rule)
            _check_input_rule(rule)
        except FrontendError as e:
            raise type(e)(e.msg, lineno, 1, source) from None
        rules.append((lineno, rule))
    return rules


# ---------------------------------------------------------------------------
# Logic program files
# ---------------------------------------------------------------------------


def _parse_program_rule(toks: list) -> "tuple[Rule, int]":
    head, i = _parse_atom(toks, 0, True)
    body: tuple = ()
    if toks[i][0] == "IMPL":
        body, i = _parse_list(toks, i + 1, _parse_atom, True)
    return Rule(head, body), i


def parse_program(text: str, source: str = "<program>") -> Program:
    """Parse a logic program, one rule per line: `head :- body.` or `head.`.

    Only magic predicate names are decoded: `m_R#bf`, `m_A#` and the
    equality's `m_eq#eqb`.  The graph predicates `fun_f#` and `con_c#` and
    every name without `#` are ordinary predicates; no other name holds `#`.
    """
    return Program(tuple(rule for _, rule in _parse_lines(text, source, _parse_program_rule)))


# ---------------------------------------------------------------------------
# Base instances and schemas
# ---------------------------------------------------------------------------

def _check_sorts(name: str, arity: int, sorts: "tuple[str, ...]", line: int = 0, source: str = ""):
    """Raise unless `name/arity` declares one sort per argument, each a name."""
    if len(sorts) != arity:
        raise ArityMismatch("%s/%d declares %d sorts" % (name, arity, len(sorts)), line, 1, source)
    for sort in sorts:
        if not re.fullmatch(r"\w+", sort):
            raise MalformedRule(
                "%s/%d declares sort %r, which is not a name" % (name, arity, sort), line, 1, source
            )


def parse_schema(text: str, source: str = "<schema>") -> "dict[tuple[str, int], tuple[str, ...]]":
    """Parse sort declarations, one per line: `pred/arity: sort1, sort2`."""
    out: dict[tuple[str, int], tuple[str, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = _tokens(raw)
        if not toks:
            continue
        _, last, col = toks[-1]
        line = raw[: col - 1 + len(last)].strip()
        m = re.fullmatch(r"(\w+)\s*/\s*(\d+)\s*:\s*(.*)", line)
        if m is None:
            raise MalformedRule("malformed schema line %r" % line, lineno, 1, source)
        name, arity = m.group(1), int(m.group(2))
        sorts = tuple(s.strip() for s in m.group(3).split(",")) if m.group(3).strip() else ()
        _check_sorts(name, arity, sorts, lineno, source)
        if (name, arity) in out:
            raise MalformedRule("duplicate schema line for %s/%d" % (name, arity), lineno, 1, source)
        out[(name, arity)] = sorts
    return out


# Records read and built per batch: enough that the batch's calls cost
# little per row, few enough that the lists `csv.reader` builds for them
# seldom live through a collection.  Lists that do are promoted and bring
# full collections sooner: at 1024 rows, warm campus `rel` queries ran 0.35
# full collections each, against 0.06 at 128 and 0.04 when each list died
# with its row.  Batch sizes decide nothing else: a batch's write
# (`Instance.extend`) adds its rows one after another in C, so a set's
# iteration order follows the sequence of rows, however it is cut.
_CHUNK = 128
# Characters read by the split reader per block, which bounds the text it
# holds beyond one batch.
_BLOCK = 1 << 14
# The characters that mean more to `csv.reader` than text: a quote, a
# carriage return (a line end, alone or before `\n`) and NUL (an error on
# Python 3.10).  A block holding none of them splits at `\n` and `,` alone.
_CSV_ONLY = ('"', "\r", "\0")


def _first_error(path: Path, pred: Predicate):
    """Read a CSV file again row by row and raise at its first error: an
    `ArityMismatch` at the physical line its first row of the wrong size
    ends on, or the error `csv.reader` raises (a field over
    `csv.field_size_limit()`, or NUL on Python 3.10) at the line it reads."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                if len(row) != pred.arity and (row or not pred.arity):
                    raise ArityMismatch(
                        "row has %d fields, %s has arity %d" % (len(row), pred.name, pred.arity),
                        reader.line_num,
                        1,
                        str(path),
                    )
        except csv.Error as err:
            raise FrontendError(str(err), reader.line_num, 0, str(path)) from None
    raise FrontendError("file changed while it was read", source=str(path))


def _add_rows(instance: Instance, pred: Predicate, lines, path: Path):
    """Add the rows `csv.reader` reads from `lines` in batches of `_CHUNK`
    records, empty ones dropped after batching unless `pred` is nullary.
    `zip` pulls one id from each column in turn, so constants new to the
    process get their ids in row order."""
    arity = pred.arity
    intern = Constant._table.__getitem__
    ident = attrgetter("id")
    reader = csv.reader(lines)
    try:
        while rows := list(islice(reader, _CHUNK)):
            if arity:
                rows = list(filter(None, rows))
            if not all(map(arity.__eq__, map(len, rows))):
                _first_error(path, pred)
            columns = [map(ident, map(intern, col)) for col in zip(*rows)]
            instance.extend(pred, zip(*columns) if arity else [()])
    except csv.Error:
        _first_error(path, pred)


def _add_lines(instance: Instance, pred: Predicate, lines: "list[str]", path: Path):
    """Add one batch of records that hold no quote, carriage return or NUL,
    as `_add_rows` adds the rows `csv.reader` reads from them: a line holds
    `arity - 1` commas, and its cells are interned in row order."""
    arity = pred.arity
    lines = list(filter(None, lines))
    if not lines:
        return
    if arity == 1:
        cells, ok = lines, "," not in "".join(lines)
    else:
        cells = ",".join(lines).split(",")
        ok = list(map(str.count, lines, repeat(","))).count(arity - 1) == len(lines)
    if not ok:
        _first_error(path, pred)
    ids = map(attrgetter("id"), map(Constant._table.__getitem__, cells))
    instance.extend(pred, zip(*[ids] * arity))


def _add_plain_blocks(instance: Instance, pred: Predicate, fh, path: Path):
    """Add the records of `fh` block by block for as long as its blocks
    hold none of `_CSV_ONLY` and the text split at once (a block after the
    unfinished line before it) is no longer than `csv.field_size_limit()`,
    so that it holds no field csv rejects.  Return what is left for
    `csv.reader`: nothing, or the records not yet added followed by the
    rest of the file.

    A line ends at `\\n` only; `str.splitlines` would also end it at
    characters csv keeps in a cell (`\\x0c`, `\\u2028`, ...).  Records go
    in batches of `_CHUNK`, so the first that is left starts a batch."""
    limit = csv.field_size_limit()
    pending: "list[str]" = []
    tail = ""
    while block := fh.read(_BLOCK):
        if any(map(block.__contains__, _CSV_ONLY)) or len(tail) + len(block) > limit:
            # `csv.reader` ends a record at the end of each string it is
            # given, so the block is read on to the end of its last line,
            # a `\r\n` that the block cuts included.
            block += fh.readline()
            return chain(io.StringIO("\n".join([*pending, tail + block]), newline=""), fh)
        *lines, tail = (tail + block).split("\n")
        pending += lines
        full = len(pending) - len(pending) % _CHUNK
        for i in range(0, full, _CHUNK):
            _add_lines(instance, pred, pending[i : i + _CHUNK], path)
        del pending[:full]
    if tail:
        pending.append(tail)
    _add_lines(instance, pred, pending, path)
    return ()


def _not_utf8(path: Path, err: UnicodeDecodeError) -> FrontendError:
    """The error for a file that is not UTF-8, naming its first bad byte by
    its offset in the file.  The file's bytes are decoded again: a reader
    that decodes in chunks reports offsets into its chunk."""
    try:
        path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as whole:
        err = whole
    return FrontendError(
        "not UTF-8: byte 0x%02x at offset %d" % (err.object[err.start], err.start), source=str(path)
    )


def _unreadable(path: Path, err: OSError) -> FrontendError:
    return FrontendError("cannot read: %s" % (err.strerror or err), source=str(path))


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as err:
        raise _not_utf8(path, err) from None
    except OSError as err:
        raise _unreadable(path, err) from None


def parse_instance(data_dir, signature: "dict[str, Predicate]") -> Instance:
    """Read one headerless CSV file per predicate (file stem = predicate
    name) from a directory.  An empty row is skipped for a predicate with
    arguments and is the fact of a nullary one; a row of any other wrong
    size raises `ArityMismatch` at the physical line it ends on, so a
    quoted cell spanning lines does not shift the count.  A file that
    cannot be read, is not UTF-8 or that `csv.reader` rejects raises
    `FrontendError` naming it.  Sorts are not checked here:
    `check_scenario` checks them over the rules and the facts together.

    A predicate with arguments has its file split in blocks of `_BLOCK`
    characters at `\\n` and `,` (`_add_plain_blocks`), so that memory is
    bounded by one block, up to the first block holding a quote, a carriage
    return or NUL, or a line longer than `csv.field_size_limit()`.
    `csv.reader` reads the rest, and a nullary predicate's whole file.  Both
    readers give the same rows in the same order, and intern their cells
    in the same order, so an instance does not depend on which read it.  A
    batch holding a row of the wrong size, or a row `csv.reader` rejects,
    has the file read again (`_first_error`)."""
    instance = Instance()
    for path in sorted(Path(data_dir).glob("*.csv")):
        pred = signature.get(path.stem)
        if pred is None:
            raise UnknownPredicate(
                "file %s does not match any predicate of the rule set" % path.name,
                source=str(path),
            )
        try:
            with open(path, newline="", encoding="utf-8-sig") as fh:
                rest = _add_plain_blocks(instance, pred, fh, path) if pred.arity else fh
                _add_rows(instance, pred, rest, path)
        except UnicodeDecodeError as err:
            raise _not_utf8(path, err) from None
        except OSError as err:
            raise _unreadable(path, err) from None
    return instance


def constant_sorts(atoms: Iterable[Atom], schema) -> "dict[Constant, dict[str, Atom]]":
    """The sorts that schema positions give each constant at an argument of
    `atoms`, each with the first atom that gives it.  A constant the schema
    gives no sort is absent.  Two sorts for one constant are not an error
    here: `check_scenario` rejects them in input, and the program that
    relevance abstracts can hold such a constant (one abstracted function
    symbol stands for terms of several sorts)."""
    found: dict[Constant, dict[str, Atom]] = {}
    for atom in atoms:
        if not isinstance(atom.predicate, Predicate):
            continue
        sorts = schema.get((atom.predicate.name, atom.predicate.arity))
        if sorts is None:
            continue
        for t, sort in zip(atom.args, sorts):
            if isinstance(t, Constant):
                found.setdefault(t, {}).setdefault(sort, atom)
    return found


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def serialize_program(p) -> str:
    """Deterministic text form of a Program, a rule list or an existential
    rule list: sorted by head predicate label (`=` for an existential
    rule with an equality head), then the rule's text, its `repr`."""
    rules = p.rules if isinstance(p, Program) else tuple(p)

    def key(r):
        if isinstance(r, Rule):
            return (pred_label(r.head.predicate), repr(r))
        head = r.head[0]
        return ("=" if head.is_equality else pred_label(head.predicate), repr(r))

    return "\n".join(text for _, text in sorted(map(key, rules))) + "\n"


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """A query answering problem: rules, base instance, query predicate,
    optional schema, and whether distinct constants are known distinct.

    Building one checks the input contract (`check_scenario`) and raises
    `FrontendError` on an input outside it, whether `load_scenario` or
    other code builds it.  Its fields cannot be reassigned afterwards, and
    after the check it keeps a read-only snapshot of the instance it was
    given (`Instance.snapshot`): the snapshot refuses writes, and later
    writes to the given instance do not reach it."""

    rules: "tuple[TGD, ...]"
    instance: Instance
    query: Predicate
    schema: "dict[tuple[str, int], tuple[str, ...]] | None" = None
    una_known: bool = False

    def __post_init__(self):
        check_scenario(self)
        object.__setattr__(self, "instance", self.instance.snapshot())


def rules_signature(rules: Iterable) -> "dict[str, Predicate]":
    return {p.name: p for p in program_predicates(rules) if isinstance(p, Predicate)}


# The goal-driven modes close answers under equality only through the
# variables of query-rule heads, so the query predicate must get all its
# facts through such variables.
_QUERY_WORKAROUND = "; use a non-query predicate and a rule from it into %s"


def check_query_predicate(rules: "Iterable[TGD]", query: Predicate):
    """The query predicate may appear in rule heads only, never in a body and
    never with an existential variable, a constant, or a variable that only
    body equalities bind in its arguments."""
    for r in rules:
        for a in r.body:
            if a.predicate == query:
                raise MalformedRule("query predicate %s occurs in a rule body" % query.name)
        for a in r.head:
            if a.predicate != query:
                continue
            if vars_of(a) & r.existential_vars:
                raise MalformedRule(
                    "query predicate %s has an existential argument" % query.name
                )
            if not all(isinstance(t, Variable) for t in a.args):
                raise MalformedRule(
                    "query predicate %s has a constant argument in rule %r"
                    % (query.name, r) + _QUERY_WORKAROUND % query.name
                )
            if vars_of(a) - vars_of([b for b in r.body if not b.is_equality]):
                raise MalformedRule(
                    "query predicate %s has an argument that only body equalities bind in rule %r"
                    % (query.name, r) + _QUERY_WORKAROUND % query.name
                )


def _check_input_rule(r: TGD):
    """Raise unless a rule holds only what `parse_rules` reads, no function
    term and no `#` in a variable name, and only body equalities the
    pipeline takes: written variable first, as `singularize` writes them,
    each keeps equality safety (`kernel.equality_fault`)."""
    for a in rule_atoms(r):
        for t in a.args:
            if isinstance(t, Functional):
                raise MalformedRule("function terms are not allowed in input rules: %r" % r)
            if isinstance(t, Variable):
                _check_variable_name(t.name)
    relational = vars_of([a for a in r.body if not a.is_equality])
    for a in r.body:
        if a.is_equality:
            fault = equality_fault(a if isinstance(a.args[0], Variable) else eq(*a.args[::-1]), relational)
            if fault:
                raise MalformedRule("body equality %r is not safe in rule %r: %s" % (a, r, fault))


def check_scenario(sc: Scenario):
    """Raise `FrontendError` unless a scenario keeps the input contract, on
    which all four modes give the same answers:
    - every rule keeps `check_rule` and `_check_input_rule`, the base holds
      facts of ordinary predicates only, and no predicate of the rules or
      the base has a name holding `#` (`_check_predicate_name`);
    - the query predicate keeps `check_query_predicate` and has no base
      facts;
    - a schema entry declares one sort, a name, per argument, and the
      arity of a predicate the rules use;
    - under a schema, no constant has two sorts, counting the positions it
      holds in rule atoms and in facts alike.  The typed relevance
      abstraction assumes one sort per constant; with two, it would prune
      rules that derive answers."""
    for r in sc.rules:
        check_rule(r)
        _check_input_rule(r)
    sig = rules_signature(sc.rules)
    for pred in chain(sig.values(), sc.instance.predicates()):
        if not isinstance(pred, Predicate):
            raise FrontendError("base facts of %s, which is not an input predicate" % pred_label(pred))
        _check_predicate_name(pred.name)
    check_query_predicate(sc.rules, sc.query)
    if sc.instance.with_predicate(sc.query):
        raise FrontendError(
            "query predicate %s has base facts" % sc.query.name
            + _QUERY_WORKAROUND % sc.query.name,
            source="%s.csv" % sc.query.name,
        )
    if sc.schema is None:
        return
    for (name, arity), sorts in sc.schema.items():
        _check_sorts(name, arity, sorts)
        if name in sig and sig[name].arity != arity:
            raise ArityMismatch(
                "schema declares %s/%d, rules use arity %d" % (name, arity, sig[name].arity)
            )
    atoms = chain((a for r in sc.rules for a in rule_atoms(r)), sc.instance)
    for c, sorts in constant_sorts(atoms, sc.schema).items():
        if len(sorts) > 1:
            (s1, a1), (s2, a2) = sorted(sorts.items())[:2]
            raise SortMismatch(
                "constant %s has sort %s at %r and sort %s at %r"
                % (c.name, s1, a1, s2, a2),
                atoms=(a1, a2),
            )


def load_scenario(
    rules_path,
    data_dir,
    query_pred: str,
    schema_path=None,
    una_known: bool = False,
) -> Scenario:
    """Parse a rule file, a directory of CSV facts and an optional schema
    into a `Scenario`, which checks the input contract as it is built.  A
    rule that breaks `check_query_predicate` is reported at its line,
    before the facts are read.  A constant of two sorts is reported at the
    first rule holding one of the two atoms, and an atom no rule holds is
    named with the CSV file of its fact."""
    rules_path = Path(rules_path)
    numbered = _numbered_rules(_read_text(rules_path), str(rules_path))
    rules = [rule for _, rule in numbered]
    sig = rules_signature(rules)
    if query_pred not in sig:
        raise UnknownPredicate(
            "query predicate %s does not occur in the rules" % query_pred,
            source=str(rules_path),
        )
    for lineno, rule in numbered:
        try:
            check_query_predicate((rule,), sig[query_pred])
        except FrontendError as e:
            raise type(e)(e.msg, lineno, 1, str(rules_path)) from None
    schema = None
    if schema_path is not None:
        schema_path = Path(schema_path)
        schema = parse_schema(_read_text(schema_path), source=str(schema_path))
    instance = parse_instance(data_dir, sig)
    try:
        return Scenario(tuple(rules), instance, sig[query_pred], schema, una_known)
    except SortMismatch as e:
        line_of = {a: lineno for lineno, rule in reversed(numbered) for a in rule_atoms(rule)}
        lines = [line_of[a] for a in e.atoms if a in line_of]
        msg = e.msg + "".join(
            "; %r is a fact in %s" % (a, Path(data_dir) / ("%s.csv" % a.predicate.name))
            for a in e.atoms if a not in line_of
        )
        raise SortMismatch(msg, min(lines, default=0), 1, str(rules_path) if lines else "", e.atoms) from None
