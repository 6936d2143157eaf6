"""Rule and program grammars, CSV instances, schemas, scenario loading."""

import copy
from collections import Counter
import csv
import io
import json
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chasegoal import (
    ArityMismatch,
    FrontendError,
    MalformedRule,
    PipelineConfig,
    Scenario,
    SortMismatch,
    UnboundFrontierVariable,
    UnknownPredicate,
    load_scenario,
    parse_instance,
    parse_program,
    parse_rules,
    parse_schema,
    run_pipeline,
    serialize_program,
)
from chasegoal import frontend
from chasegoal.finalize import graph_predicate
from chasegoal.frontend import _BLOCK, _CHUNK, check_query_predicate, rules_signature
from chasegoal.kernel import (
    EQUALITY,
    TGD,
    Atom,
    Constant,
    Functional,
    Instance,
    MagicPredicate,
    Predicate,
    Program,
    Rule,
    Variable,
    eq,
    precedes,
    vars_of,
)

from helpers import BODY_EQUALITY_ERRORS, Q1, RUNNING_RULES, null_chase, running_example


def test_parse_rules_running_example_shapes():
    rules = parse_rules(RUNNING_RULES)
    assert len(rules) == 5 and all(isinstance(r, TGD) for r in rules)
    equality_heads = [r.head[0].is_equality for r in rules]
    assert equality_heads.count(False) == 3 and equality_heads.count(True) == 2


def test_existential_variables_detected():
    (r,) = parse_rules("S(?x,?z) -> R(?x,?y)")
    assert isinstance(r, TGD)
    assert r.existential_vars == {Variable("y")}


def test_egd_sides():
    (r,) = parse_rules("T(?x,?y) -> ?x = ?y")
    assert isinstance(r, TGD)
    assert r.head == (eq(Variable("x"), Variable("y")),)
    assert not r.existential_vars


def test_egd_constant_side_allowed():
    (r,) = parse_rules("P(?x) -> ?x = 'a'")
    assert r.head == (eq(Variable("x"), Constant("a")),)


def test_existential_rules_render_and_reparse():
    rules = parse_rules(RUNNING_RULES)
    text = "\n".join(map(repr, rules))
    again = parse_rules(text)
    assert again == rules


def test_quoted_constants_round_trip():
    (r,) = parse_rules("P(?x), R(?x,'two words') -> Q('it''s')")
    text = repr(r)
    assert parse_rules(text) == [r]


def test_comment_and_blank_lines_skipped():
    rules = parse_rules("# a comment\n\nP(?x) -> Q(?x)  # trailing\n")
    assert len(rules) == 1


@pytest.mark.parametrize(
    "bad,err",
    [
        ("P(?x) Q(?x)", MalformedRule),                 # missing arrow
        ("P(?x) -> Q(?x) extra", MalformedRule),        # trailing input
        ("P(?x), P(?x,?y) -> Q(?x)", ArityMismatch),
        ("?x = ?y -> Q(?x)", MalformedRule),            # no relational body atom
        ("P(?x) -> ?y = ?z", UnboundFrontierVariable),
        ("P(?x) -> 'a' = 'b'", MalformedRule),          # no variable side
        ("P(?x) -> ?x = ?y, Q(?x)", MalformedRule),     # equality not alone
        ("P(f(?x)) -> Q(?x)", MalformedRule),           # input rules are function free
        ("P#x(?x) -> Q(?x)", MalformedRule),            # '#' in a predicate name
        ("P(?x), N#x -> Q(?x)", MalformedRule),         # '#' in a nullary predicate name
        ("P(a#b) -> Q(?x)", MalformedRule),             # '#' in a constant
        ("P(?x#1) -> Q(?x#1)", MalformedRule),          # '#' in a variable name
    ],
)
def test_parse_rules_rejects(bad, err):
    with pytest.raises(err):
        parse_rules(bad)


@pytest.mark.parametrize(
    "text", ["P(?_s1) -> Q(?_s1)", "fun_g(?x,?y) -> Q(?x)", "P(?x), con_c(?x) -> Q(?x)"]
)
def test_parse_rules_accepts_names_without_the_generated_mark(text):
    # Only '#' marks a generated name, so a leading '_' on a variable and the
    # prefixes fun_ and con_ on a predicate are ordinary; graph predicates
    # are fun_g# and con_c#.
    (rule,) = parse_rules(text)
    assert parse_rules(repr(rule)) == [rule]
    assert all(type(a.predicate) is Predicate for a in rule.body + rule.head)


def test_error_message_carries_location():
    with pytest.raises(MalformedRule) as exc:
        parse_rules("P(?x) -> Q(?x)\nP(?x) Q(?x)", source="rules.txt")
    assert "rules.txt:2" in str(exc.value)


# The full text of each error, taken from the parser before its tokenizer
# became one regex pass: the rows of `test_parse_rules_rejects`, then errors
# of the program and schema grammars.  A character no token starts with is
# reported before any other error on its line.
PINNED_ERRORS = [
    ("rules", "P(?x) Q(?x)", MalformedRule, "<rules>:1:7: expected ARROW, found Q"),
    ("rules", "P(?x) -> Q(?x) extra", MalformedRule, "<rules>:1:16: trailing input after rule"),
    ("rules", "P(?x), P(?x,?y) -> Q(?x)", ArityMismatch,
     "<rules>:1:1: predicate P used with arity 2 (arity 1 at line 1)"),
    ("rules", "?x = ?y -> Q(?x)", MalformedRule,
     "<rules>:1:1: rule body needs at least one relational atom"),
    ("rules", "P(?x) -> ?y = ?z", UnboundFrontierVariable,
     "<rules>:1:1: equality head variable ?y does not occur in the body"),
    ("rules", "P(?x) -> 'a' = 'b'", MalformedRule,
     "<rules>:1:1: at least one side of an equality head must be a variable"),
    ("rules", "P(?x) -> ?x = ?y, Q(?x)", MalformedRule,
     "<rules>:1:1: an equality head must be the only head atom"),
    ("rules", "P(f(?x)) -> Q(?x)", MalformedRule,
     "<rules>:1:3: function terms are not allowed in input rules"),
    ("rules", "P#x(?x) -> Q(?x)", MalformedRule, "<rules>:1:1: '#' is not allowed in predicate names"),
    ("rules", "P(?x), N#x -> Q(?x)", MalformedRule,
     "<rules>:1:8: '#' is not allowed in predicate names"),
    ("rules", "P(a#b) -> Q(?x)", MalformedRule, "<rules>:1:3: '#' is not allowed in constants"),
    ("rules", "P(?x#1) -> Q(?x#1)", MalformedRule,
     "<rules>:1:3: variable name ?x#1 uses the reserved character '#'"),
    ("rules", "P(?x) -> Q(?x)\n\n  P(?x) Q(?x) @", MalformedRule,
     "<rules>:3:15: unexpected character '@'"),
    ("rules", "P('abc) -> Q(a) # c", MalformedRule, "<rules>:1:3: unexpected character \"'\""),
    ("rules", "P(?x) -> Q(?x)#c", MalformedRule, "<rules>:1:15: unexpected character '#'"),
    ("rules", "P(,) -> Q(a)", MalformedRule, "<rules>:1:3: expected a term, found ','"),
    ("rules", "P(?x) ->", MalformedRule, "<rules>:1: expected an atom"),
    ("rules", "P(?x) -> Q(?x). R(?x)", MalformedRule, "<rules>:1:17: trailing input after rule"),
    ("program", "m_R#xf(?x) :- R(?x,?y).", MalformedRule,
     "<program>:1:1: malformed magic predicate m_R#xf/1"),
    ("program", "m_R#bf(?x,?y) :- R(?x,?y).", MalformedRule,
     "<program>:1:1: malformed magic predicate m_R#bf/2"),
    ("program", "R#b(?x) :- S(?x).", MalformedRule,
     "<program>:1:1: '#' is only allowed in magic and graph predicate names: R#b"),
    ("program", "fun_g#b(a).", MalformedRule,
     "<program>:1:1: '#' is only allowed in magic and graph predicate names: fun_g#b"),
    ("program", "Q(?x) :- con_#c(?x).", MalformedRule,
     "<program>:1:10: '#' is only allowed in magic and graph predicate names: con_#c"),
    ("program", "P#(a).", MalformedRule, "<program>:1:1: '#' is only allowed in magic and graph predicate names: P#"),
    ("program", "Q(?x) :- m_R#eqb(?x).", MalformedRule,
     "<program>:1:10: malformed magic predicate m_R#eqb/1"),
    ("program", "Q(?x) :- R(?x) & S(?x).", MalformedRule, "<program>:1:16: unexpected character '&'"),
    ("program", "Q(?x) :- R(?x). S(?x)", MalformedRule, "<program>:1:17: trailing input after rule"),
    ("program", "Q(?x) :- R(?x", MalformedRule, "<program>:1: expected RP, found end of rule"),
    ("program", "Q(f(?x) :- R(?x).", MalformedRule, "<program>:1:9: expected RP, found :-"),
    ("program", "Q(?x) :-", MalformedRule, "<program>:1: expected an atom"),
    ("schema", "S/2: student", ArityMismatch, "<schema>:1:1: S/2 declares 1 sorts"),
    ("schema", "S/2 student, dept # c", MalformedRule,
     "<schema>:1:1: malformed schema line 'S/2 student, dept'"),
    ("schema", "S/1: a\nS/1: a", MalformedRule, "<schema>:2:1: duplicate schema line for S/1"),
]


@pytest.mark.parametrize("grammar,text,err,message", PINNED_ERRORS)
def test_error_texts_are_pinned(grammar, text, err, message):
    parse = {"rules": parse_rules, "program": parse_program, "schema": parse_schema}[grammar]
    with pytest.raises(err) as exc:
        parse(text)
    assert type(exc.value) is err and str(exc.value) == message


@pytest.mark.parametrize(
    "line,body",
    [
        ("P(?x', ?y) -> Q(?y) # note", "P(?x', ?y)"),           # variable
        ("P(a', ?y) -> Q(?y) # note", "P('a''', ?y)"),          # bare constant
        ("P(?x', 'a #b') -> Q(?x') # it's", "P(?x', 'a #b')"),  # quoted constant holding '#'
    ],
)
def test_trailing_comment_after_an_apostrophe_in_a_name(line, body):
    # An apostrophe inside a name opens no quote, so the comment ends the line.
    (rule,) = parse_rules(line)
    head = line.split("-> ")[1].split(" #")[0]
    assert [rule] == parse_rules("%s -> %s" % (body, head))
    assert rule.body[0].args[0] in (Variable("x'"), Constant("a'"))


def test_stage_dumps_parse_back_verbatim():
    # the program grammar must read everything the pipeline writes:
    # magic predicates, function-graph predicates, Skolem terms, facts
    rep = run_pipeline(running_example(3), PipelineConfig(mode="all"))
    for name in ("sk", "rel", "magic", "defun", "desg"):
        text = serialize_program(rep.stages[name])
        assert serialize_program(parse_program(text)) == text


def test_program_grammar_decodes_special_predicates():
    prog = parse_program("m_R#bf(?x) :- m_Q#f, fun_g(?x,g(?x)).")
    (rule,) = prog.rules
    assert isinstance(rule.head.predicate, MagicPredicate)
    assert rule.head.predicate.adornment == "bf"
    assert rule.body[0].predicate.arity == 0


def test_program_grammar_round_trips_generated_shapes():
    # a constant's graph predicate, a function's graph predicate and a
    # function term of two arguments
    text = "Q(?x) :- con_c#(?x), fun_g#(?x,?y), R(?x,f(?x,?y)).\n"
    prog = parse_program(text)
    assert serialize_program(prog) == text
    con, fun, r = prog.rules[0].body
    assert con.predicate is graph_predicate(Constant("c")) is Predicate("con_c#", 1)
    assert fun.predicate is graph_predicate(Functional("g", (Variable("x"),))) is Predicate("fun_g#", 2)
    assert r.args[1] == Functional("f", (Variable("x"), Variable("y")))


def test_program_grammar_decodes_magic_names_only():
    # The equality's demand is known by its adornment, so an input predicate
    # named eq keeps its own demand; a graph predicate's name is an ordinary
    # name, of any arity, and so is a name with its prefix but no '#'.
    text = "m_eq#bf(?x) :- m_eq#eqb(?x), con_c#(?x,?y), fun_g#(?x), con_c(?x), m_fun_g#b(?x)."
    (rule,) = parse_program(text).rules
    assert rule.head.predicate is MagicPredicate(Predicate("eq", 2), "bf")
    assert [a.predicate for a in rule.body] == [
        MagicPredicate(EQUALITY, "eqb"), Predicate("con_c#", 2), Predicate("fun_g#", 1),
        Predicate("con_c", 1), MagicPredicate(Predicate("fun_g", 1), "b")]



def test_serialize_program_is_deterministic():
    p1 = parse_program("B(?x) :- A(?x).\nA(c).\n")
    p2 = parse_program("A(c).\nB(?x) :- A(?x).\n")
    assert serialize_program(p1) == serialize_program(p2)


# -- schemas and instances -------------------------------------------------


def test_parse_schema():
    schema = parse_schema("S/2: student, dept\nB/1: student\n")
    assert schema[("S", 2)] == ("student", "dept")
    assert schema[("B", 1)] == ("student",)
    # blank and comment-only lines declare nothing
    assert parse_schema("\n  \n# sorts\nS/2: student, dept\n\nB/1: student  # one\n") == schema


@pytest.mark.parametrize(
    "bad,err",
    [
        ("S/2: student", ArityMismatch),
        ("S/2 student, dept", MalformedRule),
        ("S/1: a\nS/1: a", MalformedRule),
        ("S/2: student,", MalformedRule),
        ("R/1: s t", MalformedRule),
    ],
)
def test_parse_schema_rejects(bad, err):
    with pytest.raises(err):
        parse_schema(bad)


def write_csvs(tmp_path, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")


def test_parse_instance_reads_csv_per_predicate(tmp_path):
    write_csvs(tmp_path, {"B.csv": "a1\n", "S.csv": "a1,a2\na2,a3\n"})
    sig = {"B": Predicate("B", 1), "S": Predicate("S", 2)}
    inst = parse_instance(tmp_path, sig)
    assert len(inst) == 3
    assert inst.with_predicate(sig["S"]) == {
        a for a in inst if a.predicate.name == "S"
    }


def test_parse_instance_unknown_file(tmp_path):
    write_csvs(tmp_path, {"Z.csv": "a\n"})
    with pytest.raises(UnknownPredicate):
        parse_instance(tmp_path, {"B": Predicate("B", 1)})


def test_parse_instance_bad_row(tmp_path):
    write_csvs(tmp_path, {"S.csv": "a1\n"})
    with pytest.raises(ArityMismatch):
        parse_instance(tmp_path, {"S": Predicate("S", 2)})


def per_row_instance(data_dir, signature):
    """The loader as a loop that builds and adds one fact per row."""
    instance = Instance()
    for path in sorted(Path(data_dir).glob("*.csv")):
        pred = signature[path.stem]
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.reader(fh):
                if not row and pred.arity > 0:
                    continue
                assert len(row) == pred.arity
                instance.add(Atom(pred, tuple(Constant(cell) for cell in row)))
    return instance


# Cells with the characters CSV quotes (commas, quotes, line breaks) and
# characters that `str.splitlines` takes for line breaks but csv keeps in a
# cell (form feed, line separator).
csv_cells = st.text(alphabet="ab,'\"\n\r \x0c\u2028", max_size=4)
# The dialects the writers draw.  A minimally quoting writer quotes a line
# break only if the line terminator holds it; with `\n` alone and no quote or
# carriage return in the cells, a file is read by the split reader.
CSV_DIALECTS = [(csv.QUOTE_MINIMAL, "\r\n"), (csv.QUOTE_ALL, "\n"), (csv.QUOTE_MINIMAL, "\n")]


@st.composite
def csv_files(draw):
    """The text of a binary, a unary and a nullary predicate's CSV files,
    with empty rows (a fact of the nullary one) and duplicate rows."""
    files = {}
    for name, arity in (("S", 2), ("B", 1), ("N", 0)):
        rows = draw(st.lists(st.lists(csv_cells, min_size=arity, max_size=arity), max_size=6))
        rows += draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else []
        if arity:
            rows += [[]] * draw(st.integers(0, 2))
        rows = draw(st.permutations(rows))
        out = io.StringIO()
        quoting, end = draw(st.sampled_from(CSV_DIALECTS))
        if (quoting, end) == (csv.QUOTE_MINIMAL, "\n"):
            # Left unquoted, a carriage return would end the row.
            rows = [[cell.replace("\r", "") for cell in row] for row in rows]
        csv.writer(out, quoting=quoting, lineterminator=end).writerows(rows)
        files[name + ".csv"] = out.getvalue()
    return files


@given(csv_files())
def test_parse_instance_agrees_with_a_per_row_loader(files):
    sig = {"S": Predicate("S", 2), "B": Predicate("B", 1), "N": Predicate("N", 0)}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text, encoding="utf-8", newline="")
        inst = parse_instance(tmp, sig)
        want = per_row_instance(tmp, sig)
    assert set(inst) == set(want) and len(inst) == len(want)
    for pred in sig.values():
        assert inst.with_predicate(pred) == want.with_predicate(pred)
    for fact in inst:
        assert type(fact) is Atom
        assert all(t is Constant(t.name) for t in fact.args)


def test_parse_instance_names_the_physical_line_after_a_multiline_cell(tmp_path):
    # The third record starts on line 4: the quoted cell before it spans two.
    write_csvs(tmp_path, {"S.csv": "'x',y\n\"multi\nline\",b\nonly_one\n"})
    with pytest.raises(ArityMismatch) as err:
        parse_instance(tmp_path, {"S": Predicate("S", 2)})
    assert err.value.line == 4
    assert str(err.value) == "%s:4:1: row has 1 fields, S has arity 2" % (tmp_path / "S.csv")


def test_parse_instance_empty_rows(tmp_path):
    # An empty row of a nullary predicate is its fact.
    N = Predicate("N", 0)
    write_csvs(tmp_path, {"N.csv": "\n"})
    assert set(parse_instance(tmp_path, {"N": N})) == {Atom(N, ())}
    # An empty row of a binary predicate is skipped, but is still a line.
    S = Predicate("S", 2)
    write_csvs(tmp_path, {"N.csv": "", "S.csv": "a,b\n\na\n"})
    with pytest.raises(ArityMismatch) as err:
        parse_instance(tmp_path, {"N": N, "S": S})
    assert err.value.line == 3
    write_csvs(tmp_path, {"S.csv": "a,b\n\n"})
    assert set(parse_instance(tmp_path, {"N": N, "S": S})) == {Atom(S, (Constant("a"), Constant("b")))}


# -- the split reader against csv.reader ---------------------------------------

_LOAD_IN_A_FRESH_INTERPRETER = """
import json, sys
from chasegoal.frontend import parse_instance
from chasegoal.kernel import Constant, Predicate
S = Predicate("S", 2)
rows = parse_instance(sys.argv[1], {"S": S}).rows(S)
print(json.dumps([list(rows), [[name, c.id] for name, c in Constant._table.items()]]))
"""


def load_in_a_fresh_interpreter(data_dir):
    """The rows of `S` in their order and every constant with its id, after
    `parse_instance` reads `data_dir` in a fresh interpreter, to which each
    of its cells is new."""
    src = Path(__file__).resolve().parent.parent / "src"
    run = subprocess.run(
        [sys.executable, "-c", _LOAD_IN_A_FRESH_INTERPRETER, str(data_dir)],
        env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0"),
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


@pytest.mark.parametrize("records", [300, 2 * _CHUNK])
def test_plain_and_quoted_files_load_the_same_rows_and_ids(tmp_path, records):
    # Records into a third batch, or filling two, with repeated cells, a
    # duplicate row and empty records; written plain, the split reader reads
    # them, and with every cell quoted, csv.reader does.
    rows = [["r%d" % (i * 7 % 101), "s%d" % (i % 37)] for i in range(records - 4)]
    rows[50:50] = [[]]
    rows[200:200] = [[], [], rows[3]]
    for name, quoting in (("plain", csv.QUOTE_MINIMAL), ("quoted", csv.QUOTE_ALL)):
        (tmp_path / name).mkdir()
        with open(tmp_path / name / "S.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, quoting=quoting, lineterminator="\n").writerows(rows)
    assert '"' not in (tmp_path / "plain" / "S.csv").read_text()
    assert (tmp_path / "quoted" / "S.csv").read_text().startswith('"')
    plain = load_in_a_fresh_interpreter(tmp_path / "plain")
    assert len(plain[0]) == records - 4
    assert plain == load_in_a_fresh_interpreter(tmp_path / "quoted")


def test_a_plain_file_names_a_wrong_row_size_past_a_batch(tmp_path):
    # The row after the bad one is short by the cell the bad one has too
    # many, so the batch holds as many cells as it should.
    lines = ["a%d,b%d" % (i, i) for i in range(299)] + ["a,b,c", "d"] + ["z,z"] * 50
    write_csvs(tmp_path, {"S.csv": "\n".join(lines) + "\n"})
    with pytest.raises(ArityMismatch) as err:
        parse_instance(tmp_path, {"S": Predicate("S", 2)})
    assert str(err.value) == "%s:300:1: row has 3 fields, S has arity 2" % (tmp_path / "S.csv")


@pytest.mark.parametrize("bad", [False, True])
def test_a_plain_file_with_a_quoted_cell_reads_as_csv_reads_it(tmp_path, bad):
    # The quoted cell on line 200 spans two lines; csv.reader reads the file
    # from the batch that holds it, and a bad row after it is named by its
    # physical line.
    lines = ["a%d,b%d" % (i, i) for i in range(400)]
    lines[199] = '"x,\ny",z'
    if bad:
        lines[349] = "only_one"
    write_csvs(tmp_path, {"S.csv": "\n".join(lines) + "\n"})
    sig = {"S": Predicate("S", 2)}
    if bad:
        with pytest.raises(ArityMismatch) as err:
            parse_instance(tmp_path, sig)
        assert err.value.line == 351
        return
    inst = parse_instance(tmp_path, sig)
    assert Atom(sig["S"], (Constant("x,\ny"), Constant("z"))) in set(inst)
    assert set(inst) == set(per_row_instance(tmp_path, sig)) and len(inst) == 400


@pytest.mark.parametrize("shift", [-1, 0, 1])
@pytest.mark.parametrize("end", ["\r\n", "\r", "quote"])
def test_a_block_boundary_cuts_nothing_csv_reads(tmp_path, monkeypatch, end, shift):
    # The first block of a plain file ends with its last character one
    # before, at or one after a carriage return: its `\r\n` or its lone
    # `\r` ends one record.  Or a quoted cell early in the block hands it
    # to csv.reader, and the boundary cuts a line: it is one record too.
    # The batches are csv.reader's records in runs of `_CHUNK`, empty ones
    # dropped.
    lines = ["a%d,b%d" % (i, i) for i in range(1400)]
    head = "\n".join(lines) + "\n"
    assert len(head) < _BLOCK - 10
    pad = _BLOCK - 1 + shift - len(head) - len("p,")
    if end == "quote":
        text = '"q",r\n' + head + "p," + "x" * (pad + 10) + "\n"
    else:
        text = head + "p," + "x" * pad + end
    text += "".join("c%d,d%d\n" % (i, i) for i in range(400))
    write_csvs(tmp_path, {"S.csv": text})
    sig = {"S": Predicate("S", 2)}
    want = per_row_instance(tmp_path, sig)
    assert len(want) == 1801 + (end == "quote")
    with open(tmp_path / "S.csv", newline="", encoding="utf-8") as fh:
        records = list(csv.reader(fh))
    batches, extend = [], Instance.extend

    def record_batch(self, pred, rows):
        rows = list(rows)
        batches.append(len(rows))
        return extend(self, pred, rows)

    monkeypatch.setattr(Instance, "extend", record_batch)
    inst = parse_instance(tmp_path, sig)
    assert set(inst) == set(want) and len(inst) == len(want)
    sizes = [sum(map(bool, records[i : i + _CHUNK])) for i in range(0, len(records), _CHUNK)]
    assert batches == sizes


def test_a_line_longer_than_the_field_limit_reads_as_csv_reads_it(tmp_path):
    # Its fields are each within csv.field_size_limit(), so csv.reader
    # reads it; the split reader defers to it rather than split it.
    long_row = ("y" * (csv.field_size_limit() // 2 + 10), "z" * (csv.field_size_limit() // 2 + 10))
    lines = ["a%d,b%d" % (i, i) for i in range(300)]
    lines[150] = ",".join(long_row)
    write_csvs(tmp_path, {"S.csv": "\n".join(lines) + "\n"})
    S = Predicate("S", 2)
    inst = parse_instance(tmp_path, {"S": S})
    assert Atom(S, tuple(map(Constant, long_row))) in set(inst) and len(inst) == 300


def test_a_nul_reads_as_csv_reads_it(tmp_path):
    # csv.reader keeps NUL in a cell from Python 3.11 on, and rejects the
    # line before.
    write_csvs(tmp_path, {"S.csv": "a,b\nc\x00d,e\n"})
    sig = {"S": Predicate("S", 2)}
    try:
        want = per_row_instance(tmp_path, sig)
    except csv.Error as err:
        with pytest.raises(FrontendError) as got:
            parse_instance(tmp_path, sig)
        assert str(got.value) == "%s:2: %s" % (tmp_path / "S.csv", err)
        return
    assert set(parse_instance(tmp_path, sig)) == set(want) and len(want) == 2


def test_an_unreadable_input_is_named(tmp_path):
    (tmp_path / "S.csv").mkdir()
    with pytest.raises(FrontendError) as err:
        parse_instance(tmp_path, {"S": Predicate("S", 2)})
    assert str(err.value) == "%s: cannot read: Is a directory" % (tmp_path / "S.csv")
    (tmp_path / "S.csv").rmdir()
    with pytest.raises(FrontendError) as err:
        load_scenario(tmp_path, tmp_path, "Q")
    assert str(err.value) == "%s: cannot read: Is a directory" % tmp_path


def test_constant_interned_on_first_lookup_keeps_identity():
    name = "interned on first lookup"
    while name in Constant._table:
        name += "'"
    c = Constant._table[name]
    assert Constant(name) is c and c.name == name
    # A constant of its own: it precedes every function term, and among
    # the constants its name places it.
    assert precedes(c.id, Functional("f", (Constant("a"),)).id)
    assert precedes(Constant("a").id, c.id) and not precedes(c.id, Constant("a").id)
    assert precedes(c.id, Constant("z").id) and not precedes(Constant("z").id, c.id)
    assert copy.copy(c) is c and copy.deepcopy(c) is c
    assert pickle.loads(pickle.dumps(c)) is c
    # Unpickled in a table that lacks the name, it is built there, once.
    data = pickle.dumps(c)
    del Constant._table[name]
    again = pickle.loads(data)
    assert Constant._table[name] is again and Constant(name) is again
    assert pickle.loads(data) is again


# -- round trips ---------------------------------------------------------------
#
# Tier-1 runs each property on its default example count; the script
# `tests/frontend_differential.py` runs it on about 2000 draws from fixed
# seeds.  The strategies are built once: hypothesis checks each new strategy
# object on its first draw.

# Constant names hold what only a quoted constant can: quotes, commas,
# spaces, tabs, '#' and the characters of other tokens.
constants = st.text(alphabet="ab'#, \t()=.-", max_size=4).map(Constant)
comments = st.text(alphabet="ab'#, ", max_size=6)
gaps = st.sampled_from([" ", "  ", "\t"])
blank_lines = st.lists(st.sampled_from(["", "  ", "# note", "\t#'"]), max_size=1)
line_ends = st.sampled_from(["", "\n"])
arities = st.integers(0, 3)


def named(first: str, rest: str = "ab_'"):
    """Names that start with a character of `first`; apostrophes are legal
    inside names."""
    return st.builds(lambda a, b: a + b, st.sampled_from(first), st.text(alphabet=rest, max_size=2))


# A predicate name ends in its arity, so a rule file uses each with one.
# Input names may start as generated ones do but for their '#': a variable
# with '_', a predicate with fun_ or con_.
predicate_names = st.builds(lambda a, b: a + b, st.sampled_from(["", "fun_", "con_"]), named("PQR"))
input_terms = st.one_of(named("_xyzXY1").map(Variable), constants)


@st.composite
def relational_atoms(draw, terms):
    arity = draw(arities)
    pred = Predicate(draw(predicate_names) + str(arity), arity)
    return Atom(pred, tuple(draw(terms) for _ in range(arity)))


input_atoms = relational_atoms(input_terms)


@st.composite
def _input_rules(draw):
    """A TGD of the rule grammar: relational atoms of arity 0-3 over
    variables and constants, at times a body equality, and either relational
    heads or one equality head over body variables and constants.  A body
    equality has a side that is a variable of a relational atom, as
    `parse_rules` requires (`frontend._check_input_rule`)."""
    body = [draw(input_atoms) for _ in range(draw(st.integers(1, 3)))]
    relational_vars = sorted(vars_of(body), key=repr)
    if relational_vars and draw(st.booleans()):
        sides = [draw(st.sampled_from(relational_vars)), draw(input_terms)]
        if draw(st.booleans()):
            sides.reverse()
        body.insert(draw(st.integers(0, len(body))), eq(*sides))
    body_vars = sorted(vars_of(body), key=repr)
    if body_vars and draw(st.booleans()):
        pick = st.sampled_from(body_vars)
        sides = [draw(pick), draw(st.one_of(pick, constants))]
        if draw(st.booleans()):
            sides.reverse()
        return TGD(tuple(body), (eq(*sides),))
    return TGD(tuple(body), tuple(draw(input_atoms) for _ in range(draw(st.integers(1, 3)))))


input_rules = _input_rules()


def commented(draw, lines) -> str:
    """`lines` with trailing comments, comment lines and blank lines."""
    out = []
    for line in lines:
        out += draw(blank_lines)
        if draw(st.booleans()):
            line += draw(gaps) + "#" + draw(comments)
        out.append(line)
    return "\n".join(out) + draw(line_ends)


@st.composite
def rule_files(draw):
    rules = [draw(input_rules) for _ in range(draw(st.integers(1, 4)))]
    return rules, commented(draw, map(repr, rules))


@given(rule_files())
def test_rules_round_trip_through_render(drawn):
    rules, text = drawn
    assert parse_rules(text) == rules


# Dumps hold generated variables (`?s#1`, `?z#1`), function terms, and the
# magic, function graph and constant graph predicates.  A graph predicate is
# named as defunctionalization names it, from any constant text.
dump_leaves = st.one_of(
    named("xyz_", "x1_'#").map(Variable),
    st.integers(1, 12).map(lambda n: Variable("s#%d" % n)),
    constants,
)
symbols = named("fgs", "k_0'")
# A function term may have no argument, as the Skolem term of a rule with no
# frontier variable has.
dump_terms = st.recursive(
    dump_leaves,
    lambda inner: st.builds(Functional, symbols, st.lists(inner, max_size=2).map(tuple)),
    max_leaves=4,
)
dump_relational = relational_atoms(dump_terms)
atom_kinds = st.sampled_from(["relational", "magic", "eq-magic", "fun", "con", "equality"])
# Any text of up to four code points, drawn without Hypothesis's character
# tables, which are slow to build in a fresh checkout.
any_text = st.lists(st.integers(0, 0x10FFFF).map(chr), max_size=4).map("".join)
# An empty adornment is a nullary magic predicate's (`m_A#`).
adornments = st.text(alphabet="bf", max_size=3)


@st.composite
def _dump_atoms(draw):
    kind = draw(atom_kinds)
    if kind == "relational":
        return draw(dump_relational)
    if kind == "equality":
        # The left side is no function term: `f(?x) = ?y` reads as an atom.
        return eq(draw(dump_leaves), draw(dump_terms))
    if kind == "magic":
        adornment = draw(adornments)
        base = Predicate(draw(predicate_names) + str(len(adornment)), len(adornment))
        pred = MagicPredicate(base, adornment)
    elif kind == "eq-magic":
        pred = MagicPredicate(EQUALITY, "eqb")
    elif kind == "fun":
        pred = graph_predicate(Functional(draw(symbols), (Variable("x"),) * draw(st.integers(0, 2))))
    else:
        pred = graph_predicate(Constant(draw(any_text)))
    return Atom(pred, tuple(draw(dump_terms) for _ in range(pred.arity)))


dump_atoms = _dump_atoms()


@st.composite
def program_files(draw):
    rules = [
        Rule(draw(dump_atoms), tuple(draw(dump_atoms) for _ in range(draw(arities))))
        for _ in range(draw(st.integers(1, 4)))
    ]
    program = Program(tuple(rules))
    return program, commented(draw, serialize_program(program).splitlines())


@given(dump_terms, dump_atoms, st.lists(dump_atoms, max_size=3), input_rules)
def test_repr_reads_back_to_an_equal_value(term, head, body, tgd):
    # The text of a term, an atom and a rule is what the parsers read: a
    # term as the argument of a fact, an atom as a fact, a rule as a line of
    # a dump and an existential rule as a line of a rule file.
    fact = Atom(Predicate("P1", 1), (term,))
    assert repr(fact) == "P1(%r)" % (term,)
    for rule in (Rule(fact, ()), Rule(head, ()), Rule(head, tuple(body))):
        assert parse_program(repr(rule)).rules == (rule,)
    assert parse_rules(repr(tgd)) == [tgd]


@given(program_files())
def test_programs_round_trip_through_serialize(drawn):
    program, text = drawn
    parsed = parse_program(text)
    assert Counter(parsed.rules) == Counter(program.rules)
    assert serialize_program(parsed) == serialize_program(program)


CSV_SIGNATURE = {"S": Predicate("S", 2), "B": Predicate("B", 1), "N": Predicate("N", 0)}
csv_dialects = st.sampled_from(CSV_DIALECTS)


@st.composite
def csv_tables(draw):
    """The rows of a binary, a unary and a nullary predicate's files: cells
    with commas, quotes and line breaks, empty rows, at times more rows than
    one chunk, and at times, in one file, a row of the wrong size after the
    first chunk."""
    bad = draw(st.sampled_from([None, *CSV_SIGNATURE]))
    tables = {}
    for name, pred in CSV_SIGNATURE.items():
        arity = pred.arity
        filler = _CHUNK if name == bad else draw(st.sampled_from([0, _CHUNK])) + draw(st.integers(0, 40))
        rows = [["f%d" % (i % 700)] * arity for i in range(filler)]
        for _ in range(draw(st.integers(0, 6))):
            row = [draw(csv_cells) for _ in range(arity)]
            rows.insert(draw(st.integers(0, len(rows))), row)
        for _ in range(draw(st.integers(0, 2)) if arity else 0):
            rows.insert(draw(st.integers(0, len(rows))), [])
        if name == bad:
            size = draw(st.sampled_from([n for n in range(1, 4) if n != arity]))
            row = [draw(csv_cells) for _ in range(size)]
            rows.insert(draw(st.integers(_CHUNK, len(rows))), row)
        tables[name] = rows
    return tables, draw(csv_dialects), draw(st.booleans())


@given(csv_tables())
def test_csv_tables_round_trip_through_parse_instance(drawn):
    # Written by csv.writer, at times after a byte-order mark, each file
    # reads as a plain csv.reader reads it, or fails at the physical line
    # of its first row of the wrong size.
    check_csv_tables(drawn)


@given(csv_tables())
def test_csv_tables_round_trip_across_small_blocks(drawn):
    # The tables above fit in one block of the split reader.  In blocks of
    # 8 characters a file with rows spans several, its lines are cut
    # between blocks, and a quote or carriage return after the first block
    # hands the rest of the file to csv.reader from a later block (35 of
    # the 191 files of tier-1's draws).
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(frontend, "_BLOCK", 8)
        check_csv_tables(drawn)


def check_csv_tables(drawn):
    tables, (quoting, end), bom = drawn
    want, error = {pred: set() for pred in CSV_SIGNATURE.values()}, None
    with tempfile.TemporaryDirectory() as tmp:
        for name, rows in sorted(tables.items()):
            pred, path = CSV_SIGNATURE[name], Path(tmp) / (name + ".csv")
            with open(path, "w", newline="", encoding="utf-8-sig" if bom else "utf-8") as fh:
                csv.writer(fh, quoting=quoting, lineterminator=end).writerows(rows)
            with open(path, newline="", encoding="utf-8-sig") as fh:
                reader = csv.reader(fh)
                for row in reader:
                    if len(row) == pred.arity:
                        want[pred].add(Atom(pred, tuple(map(Constant, row))))
                    elif (row or not pred.arity) and error is None:
                        error = "%s:%d:1: row has %d fields, %s has arity %d" % (
                            path, reader.line_num, len(row), name, pred.arity)
        if error is not None:
            with pytest.raises(ArityMismatch) as exc:
                parse_instance(tmp, CSV_SIGNATURE)
            assert str(exc.value) == error
            return
        inst = parse_instance(tmp, CSV_SIGNATURE)
    for pred, facts in want.items():
        assert inst.with_predicate(pred) == facts
    assert all(type(fact) is Atom for fact in inst)


# -- scenarios ---------------------------------------------------------------


def test_load_scenario_end_to_end(tmp_path):
    (tmp_path / "rules.txt").write_text(RUNNING_RULES, encoding="utf-8")
    data = tmp_path / "data"
    data.mkdir()
    write_csvs(data, {"B.csv": "a1\n", "S.csv": "a1,a2\na2,a3\n"})
    sc = load_scenario(tmp_path / "rules.txt", data, "Q", una_known=True)
    assert sc.query == Predicate("Q", 1)
    assert len(sc.instance) == 3
    assert sc.una_known
    rep = run_pipeline(sc, PipelineConfig(mode="all"))
    assert rep.answers == (("a1",),)


@pytest.mark.parametrize("marked", ["rules.txt", "schema.txt", "data/P.csv"])
def test_load_scenario_ignores_a_byte_order_mark(tmp_path, marked):
    # A UTF-8 byte-order mark at the start of a file is not part of its
    # first rule, schema entry or constant.
    files = {"rules.txt": "P(?x) -> Q(?x)\n", "schema.txt": "P/1: thing\n", "data/P.csv": "a1\na2\n"}
    (tmp_path / "data").mkdir()
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8-sig" if name == marked else "utf-8")
    sc = load_scenario(tmp_path / "rules.txt", tmp_path / "data", "Q", tmp_path / "schema.txt")
    assert sc.schema == {("P", 1): ("thing",)}
    assert run_pipeline(sc, PipelineConfig(mode="all")).answers == (("a1",), ("a2",))


def test_load_scenario_rejects_data_sort_the_rules_contradict(tmp_path):
    # the rules put c at a dept position, the data has c as a student
    (tmp_path / "rules.txt").write_text("S(?x), D(c) -> Q(?x)", encoding="utf-8")
    (tmp_path / "schema.txt").write_text("S/1: student\nD/1: dept\n", encoding="utf-8")
    data = tmp_path / "data"
    data.mkdir()
    write_csvs(data, {"S.csv": "c\n"})
    with pytest.raises(SortMismatch, match="constant c"):
        load_scenario(tmp_path / "rules.txt", data, "Q", tmp_path / "schema.txt")


def test_load_scenario_unknown_query(tmp_path):
    (tmp_path / "rules.txt").write_text("P(?x) -> Q(?x)", encoding="utf-8")
    data = tmp_path / "data"
    data.mkdir()
    write_csvs(data, {"P.csv": "a\n"})
    with pytest.raises(UnknownPredicate):
        load_scenario(tmp_path / "rules.txt", data, "Nope")


def test_query_predicate_never_in_bodies():
    rules = parse_rules("P(?x) -> Q(?x)\nQ(?x) -> R(?x,?x)")
    with pytest.raises(MalformedRule):
        check_query_predicate(rules, Predicate("Q", 1))


def test_query_predicate_never_existential():
    rules = parse_rules("P(?x) -> Q(?y)")
    with pytest.raises(MalformedRule):
        check_query_predicate(rules, Predicate("Q", 1))


def test_query_predicate_never_with_a_constant():
    rules = parse_rules("P(?x) -> Q(?x,c)")
    with pytest.raises(MalformedRule, match="constant argument in rule P"):
        check_query_predicate(rules, Predicate("Q", 2))


def test_load_scenario_rejects_base_facts_of_the_query_predicate(tmp_path):
    (tmp_path / "rules.txt").write_text("P(?x) -> Q(?x)", encoding="utf-8")
    data = tmp_path / "data"
    data.mkdir()
    write_csvs(data, {"P.csv": "a\n", "Q.csv": "b\n"})
    with pytest.raises(FrontendError, match="Q.csv: query predicate Q has base facts"):
        load_scenario(tmp_path / "rules.txt", data, "Q")


# A Scenario built in code is checked like a loaded one.  Unchecked, each
# of the next three inputs gets different answers in different modes.


def facts(text):
    """Ground atoms from the head of a bodiless rule: `P(a), S(b,c)`."""
    (rule,) = parse_rules("Z(?x) -> " + text)
    return Instance(rule.head)


def test_scenario_built_in_code_rejects_a_constant_of_two_sorts():
    # Unchecked, mat and magic answer a; typed relevance prunes the rule in
    # rel and all.
    schema = {("S", 1): ("student",), ("D", 1): ("dept",)}
    rules = tuple(parse_rules("S(?x), D(?x) -> Q(?x)"))
    with pytest.raises(SortMismatch, match="constant a has sort"):
        Scenario(rules, facts("S(a), D(a)"), Predicate("Q", 1), schema)
    # Without a schema, or with sorts that agree, the same input is accepted,
    # and the checked schema cannot be swapped afterwards.
    sc = Scenario(rules, facts("S(a), D(a)"), Predicate("Q", 1))
    with pytest.raises(AttributeError):
        sc.schema = schema
    Scenario(rules, facts("S(a), D(a)"), Predicate("Q", 1), {("S", 1): ("s",), ("D", 1): ("s",)})


def test_scenario_built_in_code_rejects_a_sort_that_is_not_a_name():
    rules = tuple(parse_rules("S(?x,?y) -> Q(?x)"))
    for sorts in [("student", ""), ("student", "s t")]:
        with pytest.raises(MalformedRule, match="S/2 declares sort '(s t)?', which is not a name"):
            Scenario(rules, facts("S(a,b)"), Predicate("Q", 1), {("S", 2): sorts})


def through_a_predicate(name):
    """`A(?x,?y) -> <name>(?x,?y)` and `<name>(?x,?y) -> Q(?x)`."""
    rel, args = Predicate(name, 2), (Variable("x"), Variable("y"))
    rule = TGD((Atom(Predicate("A", 2), args),), (Atom(rel, args),))
    return rule, TGD((Atom(rel, args),), (Atom(Q1, args[:1]),))


@pytest.mark.parametrize("name", ["P#b"])
def test_scenario_built_in_code_rejects_a_reserved_predicate_name(name):
    # '#' marks the predicates the pipeline generates: unchecked, the dumps
    # of P#b would not read back, and an m_P#b would read back as magic.
    with pytest.raises(MalformedRule, match="'#' is not allowed in predicate names"):
        Scenario(through_a_predicate(name), facts("A(a,b)"), Q1)


@pytest.mark.parametrize("name", ["fun_g", "con_c"])
def test_scenario_built_in_code_accepts_fun_and_con_predicate_names(name):
    # Graph predicates are named fun_g# and con_c#, so these input names
    # collide with none; refused until then.
    sc = Scenario(through_a_predicate(name), facts("A(a,b)"), Q1)
    assert null_chase(sc).answers == {("a",)}
    for mode in ("mat", "rel", "magic", "all"):
        assert run_pipeline(sc, PipelineConfig(mode=mode)).answers == (("a",),), mode


def test_scenario_built_in_code_rejects_a_function_term():
    # Unchecked, every mode answered a and the null chase x, the name of a
    # variable: input like this lies outside what the reference can check.
    x = Variable("x")
    fx = Functional("f", (x,))
    A, B = Predicate("A", 1), Predicate("B", 1)
    rules = (TGD((Atom(A, (x,)),), (Atom(B, (fx,)),)), TGD((Atom(B, (fx,)),), (Atom(Q1, (x,)),)))
    with pytest.raises(MalformedRule) as err:
        Scenario(rules, facts("A(a)"), Q1)
    assert str(err.value) == "function terms are not allowed in input rules: A(?x) -> B(f(?x))"


def with_a_variable_named(name):
    """`A(?x), B(?x,c), C(?<name>) -> Q(?x)`, built in code: sg gives the
    constant c a variable of its own."""
    x = Variable("x")
    body = (Atom(Predicate("A", 1), (x,)), Atom(Predicate("B", 2), (x, Constant("c"))),
            Atom(Predicate("C", 1), (Variable(name),)))
    return (TGD(body, (Atom(Q1, (x,)),)),)


def test_scenario_built_in_code_keeps_its_variables_apart_from_generated_ones():
    # sg once named its variables ?_s1, ?_s2, ... and captured this rule's
    # ?_s1: every mode answered nothing, the null chase a.
    sc = Scenario(with_a_variable_named("_s1"), facts("A(a), B(a,c), C(z)"), Q1)
    assert null_chase(sc).answers == {("a",)}
    for mode in ("mat", "rel", "magic", "all"):
        assert run_pipeline(sc, PipelineConfig(mode=mode)).answers == (("a",),), mode


def test_scenario_built_in_code_rejects_a_variable_with_the_generated_mark():
    # sg names its variables ?s#1, ?s#2, ...: '#' marks a generated name.
    with pytest.raises(MalformedRule) as err:
        Scenario(with_a_variable_named("s#1"), facts("A(a), B(a,c), C(z)"), Q1)
    assert str(err.value) == "variable name ?s#1 uses the reserved character '#'"


@pytest.mark.parametrize("text, message", BODY_EQUALITY_ERRORS, ids=["no-variable", "unbound", "query-head"])
def test_scenario_rejects_a_body_equality_the_pipeline_cannot_take(text, message):
    # Built in code: `parse_rules` refuses the unsafe body equalities itself.
    rules = tuple(r for _, r in frontend._parse_lines(text, "<rules>", frontend._parse_existential_rule))
    with pytest.raises(MalformedRule) as err:
        Scenario(rules, facts("A(a)"), Q1)
    assert str(err.value) == message
    if message.startswith("body equality"):
        with pytest.raises(MalformedRule) as err:
            parse_rules("B(?x) -> Q(?x)\n" + text, "rules.txt")
        assert str(err.value) == "rules.txt:2:1: " + message


def test_scenario_built_in_code_rejects_base_facts_of_a_generated_predicate():
    # Unchecked, con_c#(d) would be the graph fact of the constant c, and
    # every mode would answer u; the rules ask for B(u,c), which is not in
    # the base.
    rules = tuple(parse_rules("A(?x), B(?x,c) -> Q(?x)"))
    u, d = Constant("u"), Constant("d")
    base = list(facts("A(u), B(u,d)"))
    with pytest.raises(MalformedRule, match="'#' is not allowed in predicate names"):
        Scenario(rules, Instance(base + [Atom(graph_predicate(Constant("c")), (d,))]), Predicate("Q", 1))
    for fact, label in [(Atom(MagicPredicate(Predicate("A", 1), "b"), (u,)), "m_A#b"), (eq(u, d), "eq")]:
        with pytest.raises(FrontendError, match="base facts of %s, which is not an input predicate" % label):
            Scenario(rules, Instance(base + [fact]), Predicate("Q", 1))


def test_scenario_built_in_code_rejects_base_facts_of_the_query_predicate():
    rules = tuple(parse_rules("A(?x) -> Q(?x)\nS(?x,?y) -> ?x = ?y"))
    with pytest.raises(FrontendError, match="Q.csv: query predicate Q has base facts"):
        Scenario(rules, facts("A(a), Q(b), S(b,c)"), Predicate("Q", 1))


def test_scenario_keeps_a_read_only_snapshot_of_its_instance():
    # The same input written after the check: once gave a b c in mat and
    # rel but a b in magic and all.
    rules = tuple(parse_rules("A(?x) -> Q(?x)\nS(?x,?y) -> ?x = ?y"))
    given = facts("A(a), S(b,c)")
    sc = Scenario(rules, given, Predicate("Q", 1))
    (late,) = facts("Q(b)")
    with pytest.raises(TypeError, match="read-only"):
        sc.instance.add(late)
    with pytest.raises(TypeError, match="read-only"):
        sc.instance.discard(next(iter(sc.instance)))
    given.add(late)
    assert late not in sc.instance and len(sc.instance) == 2
    for mode in ("mat", "rel", "magic", "all"):
        assert run_pipeline(sc, PipelineConfig(mode=mode)).answers == (("a",),), mode


def test_scenario_built_in_code_rejects_a_constant_in_a_query_head():
    rules = tuple(parse_rules("B(?x) -> Q(?x,c)\nE(?x) -> ?x = c"))
    with pytest.raises(MalformedRule, match=r"constant argument in rule B\(\?x\) -> Q"):
        Scenario(rules, facts("B(a), E(d)"), Predicate("Q", 2))


def test_scenario_built_in_code_rejects_a_schema_the_rules_disagree_with():
    # Unchecked, the first schema let mat and magic answer a while rel and
    # all failed in stage rel, where typed relevance unpacks one sort per
    # argument; the second was accepted silently.
    rules = tuple(parse_rules("S(?x,?y) -> Q(?x)"))
    with pytest.raises(ArityMismatch) as err:
        Scenario(rules, facts("S(a,b)"), Predicate("Q", 1), {("S", 2): ("s",)})
    assert str(err.value) == "S/2 declares 1 sorts"
    with pytest.raises(ArityMismatch) as err:
        Scenario(rules, facts("S(a,b)"), Predicate("Q", 1), {("S", 3): ("s", "s", "s")})
    assert str(err.value) == "schema declares S/3, rules use arity 2"
    # An entry for a predicate the rules do not use is accepted.
    Scenario(rules, facts("S(a,b)"), Predicate("Q", 1), {("S", 2): ("s", "t"), ("T", 1): ("t",)})


P, R = Predicate("P", 1), Predicate("R", 1)
x, y = Variable("x"), Variable("y")


@pytest.mark.parametrize(
    "text,rule,err,msg",
    [
        (
            "P(?x) -> ?x = ?y",
            TGD((Atom(P, (x,)),), (eq(x, y),)),
            UnboundFrontierVariable,
            "equality head variable ?y does not occur in the body",
        ),
        (
            "P(?x) -> ?x = ?x, R(?x)",
            TGD((Atom(P, (x,)),), (eq(x, x), Atom(R, (x,)))),
            MalformedRule,
            "an equality head must be the only head atom",
        ),
        (
            "P(?x) -> a = b",
            TGD((Atom(P, (x,)),), (eq(Constant("a"), Constant("b")),)),
            MalformedRule,
            "at least one side of an equality head must be a variable",
        ),
        (
            "?x = ?y -> R(?x)",
            TGD((eq(x, y),), (Atom(R, (x,)),)),
            MalformedRule,
            "rule body needs at least one relational atom",
        ),
    ],
    ids=["unbound-side", "equality-beside-atom", "constant-sides", "equality-body"],
)
def test_scenario_built_in_code_gets_the_parsers_rule_checks(text, rule, err, msg):
    # Unchecked, each rule failed late, in a different stage per mode; the
    # unbound side became an existential and was Skolemized.
    with pytest.raises(err) as parsed:
        parse_rules(text)
    assert type(parsed.value) is err
    assert str(parsed.value) == "<rules>:1:1: " + msg
    with pytest.raises(err) as built:
        Scenario((rule,), Instance(), Predicate("Q", 1))
    assert type(built.value) is err
    assert str(built.value) == msg


def test_rules_signature_collects_predicates():
    sig = rules_signature(parse_rules(RUNNING_RULES))
    assert set(sig) == {"B", "T", "A", "R", "Q", "S"}
