"""Rule and program grammars, CSV instances, schemas, scenario loading."""

import copy
import csv
import io
import pickle
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
from chasegoal.frontend import check_query_predicate, render_rule, rules_signature
from chasegoal.kernel import (
    TGD,
    Atom,
    Constant,
    FunPredicate,
    Functional,
    Instance,
    MagicPredicate,
    Predicate,
    Variable,
    eq,
)

from helpers import RUNNING_RULES, running_example


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
    text = "\n".join(render_rule(r) for r in rules)
    again = parse_rules(text)
    assert again == rules


def test_quoted_constants_round_trip():
    (r,) = parse_rules("P(?x), R(?x,'two words') -> Q('it''s')")
    text = render_rule(r)
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
        ("P(?_s1) -> Q(?_s1)", MalformedRule),          # reserved prefix
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


def test_error_message_carries_location():
    with pytest.raises(MalformedRule) as exc:
        parse_rules("P(?x) -> Q(?x)\nP(?x) Q(?x)", source="rules.txt")
    assert "rules.txt:2" in str(exc.value)


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
    text = "Q(?x) :- con_c(?x), fun_g(?x,?y), R(?x,f(?x,?y)).\n"
    prog = parse_program(text)
    assert serialize_program(prog) == text
    con, fun, r = prog.rules[0].body
    assert con.predicate == FunPredicate("c", 1, of_constant=True)
    assert fun.predicate == FunPredicate("g", 2)
    assert r.args[1] == Functional("f", (Variable("x"), Variable("y")))


def test_program_grammar_rejects_binary_constant_graph_predicate():
    with pytest.raises(MalformedRule, match="con_c must be unary"):
        parse_program("Q(?x) :- con_c(?x,?y).\n")


def test_serialize_program_is_deterministic():
    p1 = parse_program("B(?x) :- A(?x).\nA(c).\n")
    p2 = parse_program("A(c).\nB(?x) :- A(?x).\n")
    assert serialize_program(p1) == serialize_program(p2)


# -- schemas and instances -------------------------------------------------


def test_parse_schema():
    schema = parse_schema("S/2: student, dept\nB/1: student\n")
    assert schema[("S", 2)] == ("student", "dept")
    assert schema[("B", 1)] == ("student",)


@pytest.mark.parametrize(
    "bad,err",
    [
        ("S/2: student", ArityMismatch),
        ("S/2 student, dept", MalformedRule),
        ("S/1: a\nS/1: a", MalformedRule),
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


# Cells with the characters CSV quotes: commas, quotes, line breaks.
csv_cells = st.text(alphabet="ab,'\"\n\r ", max_size=4)


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
        # A minimally quoting writer quotes a line break only if the line
        # terminator holds it.
        quoting, end = draw(st.sampled_from([(csv.QUOTE_MINIMAL, "\r\n"), (csv.QUOTE_ALL, "\n")]))
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


def test_constant_interned_on_first_lookup_keeps_identity():
    name = "interned on first lookup"
    while name in Constant._table:
        name += "'"
    c = Constant._table[name]
    assert Constant(name) is c and (c.name, c.key) == (name, (0, name, ()))
    assert copy.copy(c) is c and copy.deepcopy(c) is c
    assert pickle.loads(pickle.dumps(c)) is c
    # Unpickled in a table that lacks the name, it is built there, once.
    data = pickle.dumps(c)
    del Constant._table[name]
    again = pickle.loads(data)
    assert Constant._table[name] is again and Constant(name) is again
    assert pickle.loads(data) is again


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
