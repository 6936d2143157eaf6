"""Pipeline driver, report emission and the command line."""

import csv
import importlib
import json
import re
import time
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

import chasegoal
from chasegoal import (
    AbstractionFixpointDiverged,
    Limits,
    PipelineConfig,
    PipelineError,
    Scenario,
    chase,
    dump_stage,
    emit_report,
    extract_answers,
    load_scenario,
    parse_program,
    parse_rules,
    run_pipeline,
    serialize_program,
)
from chasegoal import driver
from chasegoal.cli import main
from chasegoal.driver import MODE_STAGES, MODES
from chasegoal.engine import FactLimitExceeded
from chasegoal.kernel import Atom, Constant, Instance, Predicate, Program
from chasegoal.pruning import relevance

from helpers import (
    BODY_EQUALITY_ERRORS,
    Q1,
    RUNNING_RULES,
    campus_fixture,
    null_chase,
    running_example,
    scenario_draws,
    write_fact_waiting_probe,
    write_memory_probe,
)


def test_all_modes_agree_on_the_worked_example():
    sc = running_example(5)
    for mode in ("mat", "rel", "magic", "all"):
        rep = run_pipeline(sc, PipelineConfig(mode=mode))
        assert rep.answers == (("a1",),), mode
        assert rep.mode == mode


@pytest.mark.parametrize("n", [100, 1000])
def test_magic_mode_demand_stays_linear_on_the_chain(n):
    t0 = time.perf_counter()
    rep = run_pipeline(running_example(n), PipelineConfig(mode="magic"))
    took = time.perf_counter() - t0
    assert rep.answers == (("a1",),)
    assert rep.chase_stats.derived_facts <= 6 * n
    assert rep.chase_stats.rule_applications <= 8 * n
    assert n < 1000 or took < 5.0


def test_magic_mode_answers_campus_like_mat():
    sc = campus_fixture()
    want = run_pipeline(sc, PipelineConfig(mode="mat")).answers
    assert len(want) == 100
    assert run_pipeline(sc, PipelineConfig(mode="magic")).answers == want


def test_report_carries_rule_counts_and_timings():
    rep = run_pipeline(running_example(3), PipelineConfig(mode="all"))
    assert rep.rule_counts["sg"] == 5 and rep.rule_counts["sk"] == 6
    assert set(rep.rule_counts) == {"sg", "sk", "rel", "magic", "defun", "desg"}
    assert set(rep.timings) == {"sg", "sk", "rel", "magic", "defun", "desg", "chase"}
    assert all(t >= 0 for t in rep.timings.values())


def test_mat_mode_skips_goal_stages():
    rep = run_pipeline(running_example(3), PipelineConfig(mode="mat"))
    assert "rel" not in rep.stages and "magic" not in rep.stages
    assert {"sg", "sk", "defun", "desg"} <= set(rep.stages)


def test_dump_stage_round_trips():
    # sg keeps the arrow format and generated ?s# variables, so it is for
    # inspection only; every later stage is a re-readable program
    rep = run_pipeline(running_example(3), PipelineConfig(mode="all"))
    sg = dump_stage(rep, "sg")
    assert sg.count(" -> ") == rep.rule_counts["sg"]
    for name in ("sk", "rel", "magic", "defun", "desg"):
        assert len(parse_program(dump_stage(rep, name)).rules) == rep.rule_counts[name]
    with pytest.raises(KeyError):
        dump_stage(run_pipeline(running_example(3), PipelineConfig(mode="mat")), "magic")


def test_dumps_with_nullary_magic_predicates_and_skolem_terms_round_trip():
    # A has no argument, so its magic predicate has an empty adornment
    # (m_A#); A -> R(?y) has no frontier variable, so its Skolem term has
    # no argument.
    sc = Scenario(
        rules=tuple(parse_rules("B(?x) -> A\nA -> R(?y)\nR(?x) -> Q(?x)\n")),
        instance=Instance([Atom(Predicate("B", 1), (Constant("b"),))]),
        query=Q1,
    )
    dumps = []
    for mode in ("mat", "rel", "magic", "all"):
        rep = run_pipeline(sc, PipelineConfig(mode=mode))
        dumps += [dump_stage(rep, name) for name in ("sk", "rel", "magic", "defun", "desg")
                  if name in rep.stages]
    for d in dumps:
        assert serialize_program(parse_program(d)) == d
    assert any("m_A# " in d for d in dumps) and any("_y()" in d for d in dumps)


# Inputs whose constants are not names, and an input predicate named eq,
# with the answers every mode must give: (rules, base facts, answers).
# Before graph predicates got their names from `finalize.graph_predicate`,
# the defun and desg dumps of each constant input but the TGD-head one held
# the constant's text unquoted in a predicate name, and parse_program
# rejected them; eq was a reserved name.
READBACK_INPUTS = [
    ("A(?x), B(?x,%s) -> Q(?x)" % c, "A(u), A(v), B(u,%s), B(v,w)" % c, [("u",)])
    for c in ("'a b'", "'a,b'", "'a#b'", "'a(b)'", "'a'''", "'é'")
] + [
    ("A(?x) -> ?x = 'c d'\nB(?x,?y), C(?y) -> Q(?x)", "A(u), B(v,'c d'), C(u)", [("v",)]),
    ("A(?x) -> R(?x,'c d')\nR(?x,?y), C(?y) -> Q(?x)", "A(u), C('c d')", [("u",)]),
    ("A(?x,?y) -> eq(?x,?y)\neq(?x,?y) -> Q(?x)", "A(a,b)", [("a",)]),
]


@pytest.mark.parametrize(
    "rules,base,answers", READBACK_INPUTS,
    ids=["space", "comma", "hash", "parens", "quote", "accent", "egd-head", "tgd-head", "eq"],
)
def test_every_dump_of_an_accepted_constant_reads_back(rules, base, answers):
    # Every dump from sk on reads back to its own text, the final one chases
    # to the run's answers, and those are the null chase's.
    (facts,) = parse_rules("Z(?x) -> " + base)
    sc = Scenario(tuple(parse_rules(rules)), Instance(facts.head), Q1)
    assert sorted(null_chase(sc).answers) == answers
    for mode in MODES:
        rep = run_pipeline(sc, PipelineConfig(mode=mode))
        assert sorted(rep.answers) == answers, mode
        for name in MODE_STAGES[mode][1:]:
            text = dump_stage(rep, name)
            assert serialize_program(parse_program(text)) == text, (mode, name)
        again = chase(parse_program(dump_stage(rep, "desg")), sc.instance)
        assert sorted(tuple(c.name for c in t) for t in extract_answers(again, Q1)) == answers, mode


@pytest.mark.parametrize(
    "rules, answers",
    [
        ("A(?x), a = ?x -> Q(?x)", {("a",)}),
        ("A(?x), ?x = a -> Q(?x)", {("a",)}),
        ("A(?x), ?x = ?y -> B(?y)\nB(?x) -> Q(?x)", {("a",), ("b",)}),
        ("A(?x), C(?y), ?y = ?x -> Q(?x)", {("a",)}),
    ],
    ids=["constant-left", "constant-right", "equality-bound-head", "two-atoms"],
)
def test_body_equalities_agree_with_the_null_chase(rules, answers):
    # The constant on the left once failed in stage sg, "left side is not
    # a variable", while its mirror answered a; sg now writes it variable
    # first.  The third is the workaround check_query_predicate names for
    # a query head that only an equality binds.
    (facts,) = parse_rules("Z(?x) -> A(a), A(b), C(a)")
    sc = Scenario(tuple(parse_rules(rules)), Instance(facts.head), Q1)
    assert null_chase(sc).answers == answers
    for mode in MODES:
        assert set(run_pipeline(sc, PipelineConfig(mode=mode)).answers) == answers, mode


def test_a_memory_error_in_a_round_names_its_rule(tmp_path):
    # Capped at 300 MB of address space, the probe runs out of memory while
    # it builds one batch of the chase.  The error names the rule, and the
    # batch is freed before the error is reported.  Uncaught, it named no
    # rule, and under larger caps its report itself could run out of memory
    # and exit 1 with a traceback.
    import os
    import resource
    import subprocess
    import sys

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20))

    repo = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-m", "chasegoal.cli"] + write_memory_probe(tmp_path),
        env=dict(os.environ, PYTHONPATH=str(repo / "src")), preexec_fn=cap,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2, done.stderr
    (line,) = done.stderr.splitlines()
    assert line.startswith("error: stage chase: MemoryError, applying m_E#bbbbbb("), line


@pytest.mark.parametrize("mode", ["magic", "all"])
def test_cli_answers_the_fact_waiting_probe(tmp_path, mode):
    # P's all-free demand waits on the B fact, so P is not demanded in full;
    # magic makes no demand its guard covers, and stays linear in P's arity.
    result = CliRunner().invoke(main, write_fact_waiting_probe(tmp_path, 14) + ["--mode", mode])
    assert result.exit_code == 0, result.output
    with open(tmp_path / "out" / "answers.csv", newline="", encoding="utf-8") as fh:
        assert [tuple(r) for r in csv.reader(fh)] == [("a",)]


def test_each_mode_dumps_its_stages_one_rule_repr_a_line():
    sc = running_example(3)
    for mode in MODES:
        rep = run_pipeline(sc, PipelineConfig(mode=mode))
        assert tuple(rep.stages) == MODE_STAGES[mode]
        for name, rules in rep.stages.items():
            rules = rules.rules if isinstance(rules, Program) else rules
            assert Counter(dump_stage(rep, name).splitlines()) == Counter(map(repr, rules))


def test_dumped_final_program_chases_like_the_run():
    # The desg dump of a magic run, read back and chased, is the run: the
    # same instance and term map.  The derived fact count is not compared,
    # because it depends on the rule order.
    sc = running_example(150)
    rep = run_pipeline(sc, PipelineConfig(mode="magic"))
    again = chase(parse_program(dump_stage(rep, "desg")), sc.instance)
    assert set(again.instance) == set(rep.chase_result.instance)
    assert again.mu == rep.chase_result.mu


def test_emit_report_writes_answers_and_stats(tmp_path):
    rep = run_pipeline(running_example(3), PipelineConfig(mode="all"))
    out = tmp_path / "report"
    emit_report(rep, out, stats_json=tmp_path / "stats.json")

    with open(out / "answers.csv", newline="", encoding="utf-8") as fh:
        rows = [tuple(r) for r in csv.reader(fh)]
    assert rows == [("a1",)]

    stats = (out / "stats.txt").read_text(encoding="utf-8")
    assert "mode: all" in stats and "answers: 1" in stats
    assert "chase derived facts: 12" in stats

    payload = json.loads((tmp_path / "stats.json").read_text(encoding="utf-8"))
    assert payload["answers"] == [["a1"]]
    assert payload["chase"]["derived_facts"] == 12
    assert payload["rule_counts"]["desg"] == 16


STATS_TXT = """\
mode: all
query: Q
answers: 1
rules after sg: 5
rules after sk: 6
rules after rel: 5
rules after magic: 13
rules after defun: 16
rules after desg: 16
chase derived facts: 12
chase merges: 1
chase rule applications: 22
chase iterations: 8
time sg: T
time sk: T
time rel: T
time magic: T
time defun: T
time desg: T
time chase: T
"""


def test_stats_txt_renders_the_json_payload_line_by_line(tmp_path):
    rep = run_pipeline(running_example(3), PipelineConfig(mode="all"))
    emit_report(rep, tmp_path, stats_json=tmp_path / "stats.json")
    text = (tmp_path / "stats.txt").read_text(encoding="utf-8")
    assert re.sub(r": \d+\.\d{6}s$", ": T", text, flags=re.M) == STATS_TXT
    payload = json.loads((tmp_path / "stats.json").read_text(encoding="utf-8"))
    assert list(payload["timings"]) == list(rep.timings)
    for name, seconds in payload["timings"].items():
        assert "time %s: %.6fs\n" % (name, seconds) in text

# the S/R loop sprouts ever deeper terms; the EGD collapses each sprout
# back into its parent, so the concrete chase is finite, but the analysis
# fixpoint keeps equality atoms as plain facts and diverges
DIVERGING = """
S(?x) -> R(?x,?y)
R(?x,?y) -> S(?y)
R(?x,?y) -> ?x = ?y
S(?x) -> Q(?x)
"""


def test_relevance_divergence_falls_back_to_abstraction():
    S1 = Predicate("S", 1)
    sc = Scenario(
        rules=tuple(parse_rules(DIVERGING)),
        instance=Instance([Atom(S1, (Constant("a"),))]),
        query=Q1,
    )
    rep = run_pipeline(sc, PipelineConfig(mode="rel"))
    assert rep.relevance_retried
    assert rep.answers == (("a",),)
    # the retried stage is what relevance keeps with functions abstracted at once
    direct = relevance(rep.stages["sk"], sc.instance, abstract_functions=True)
    assert dump_stage(rep, "rel") == serialize_program(direct)


def test_relevance_time_spans_both_attempts(monkeypatch):
    attempts = []

    def slow_relevance(*args, **kwargs):
        attempts.append(kwargs["abstract_functions"])
        time.sleep(0.05)
        return relevance(*args, **kwargs)

    monkeypatch.setattr(driver, "relevance", slow_relevance)
    base = Instance([Atom(Predicate("S", 1), (Constant("a"),))])
    sc = Scenario(tuple(parse_rules(DIVERGING)), base, Q1)
    rep = run_pipeline(sc, PipelineConfig(mode="rel"))
    assert attempts == [False, True] and rep.relevance_retried
    assert rep.timings["rel"] >= 0.1
    assert list(rep.timings) == ["sg", "sk", "rel", "defun", "desg", "chase"]


def test_run_pipeline_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode 'fast'"):
        run_pipeline(running_example(3), PipelineConfig(mode="fast"))


def test_a_stage_that_loses_equality_safety_fails_by_name(monkeypatch):
    # A body equality whose left side is a constant is not equality-safe.
    unsafe = parse_program("Q(?x) :- A(?x), a1 = ?x.")
    monkeypatch.setattr(driver, "magic", lambda program: Program(unsafe.rules, program.query))
    with pytest.raises(PipelineError) as exc:
        run_pipeline(running_example(3), PipelineConfig(mode="magic"))
    assert exc.value.stage == "magic"
    assert str(exc.value) == (
        "stage magic: equality safety lost after magic: a1 = ?x (left side is not a variable)"
    )


def test_relevance_fixpoint_past_its_limits_fails_stage_rel(monkeypatch):
    # The first attempt passes the critical instance of 2 facts and trips
    # inside the fixpoint, naming the rule it was applying.  The retry, with
    # function symbols abstracted to constants, has a critical instance of
    # 12 facts and trips its size check, which applies no rule and is final.
    trips = []

    def traced(*args, **kwargs):
        try:
            return relevance(*args, **kwargs, fixpoint_limits=Limits(max_facts=5))
        except (AbstractionFixpointDiverged, FactLimitExceeded) as err:
            rule = None if err.rule is None else repr(err.rule)
            trips.append((kwargs["abstract_functions"], type(err), str(err), rule))
            raise

    monkeypatch.setattr(driver, "relevance", traced)
    with pytest.raises(PipelineError) as exc:
        run_pipeline(running_example(3), PipelineConfig(mode="rel"))
    assert exc.value.stage == "rel"
    assert isinstance(exc.value.cause, FactLimitExceeded)
    assert trips == [
        (False, AbstractionFixpointDiverged, "more than 5 facts", "?x1 = ?x1 :- B(?x1)."),
        (True, FactLimitExceeded, "critical instance of 12 facts, more than 5", None),
    ]
    assert str(exc.value) == "stage rel: critical instance of 12 facts, more than 5"


def test_a_trip_in_the_retried_relevance_fixpoint_names_its_rule(monkeypatch):
    # Both attempts pass the critical instance of 2 facts and trip inside
    # the fixpoint; the error names the rule of the retry, whose Skolem term
    # the abstraction made a constant.  The critical instance's size check
    # applies no rule, so a trip there names none.
    attempts = []

    def counted(*args, **kwargs):
        attempts.append(kwargs["abstract_functions"])
        return relevance(*args, **kwargs, fixpoint_limits=Limits(max_facts=max_facts))

    monkeypatch.setattr(driver, "relevance", counted)
    sc = Scenario(tuple(parse_rules(DIVERGING)), Instance([Atom(Predicate("S", 1), (Constant("a"),))]), Q1)
    max_facts = 2
    with pytest.raises(PipelineError) as exc:
        run_pipeline(sc, PipelineConfig(mode="rel"))
    assert attempts == [False, True]
    assert isinstance(exc.value.cause, AbstractionFixpointDiverged)
    assert str(exc.value) == "stage rel: more than 2 facts, applying R(?x,_fn_sk_0_y) :- S(?x)."
    max_facts = 1
    with pytest.raises(PipelineError) as exc:
        run_pipeline(sc, PipelineConfig(mode="rel"))
    assert str(exc.value) == "stage rel: critical instance of 2 facts, more than 1"


def test_every_module_is_reachable_as_a_package_attribute():
    # A package-level name that equals a module's name would hide it.
    for path in Path(chasegoal.__file__).parent.glob("*.py"):
        if path.stem != "__init__":
            module = importlib.import_module("chasegoal." + path.stem)
            assert getattr(chasegoal, path.stem) is module, path.stem


# -- command line -------------------------------------------------------------


RULES = """\
B(?x) -> A(?x)
A(?x) -> Q(?x)
"""


def write_inputs(tmp_path, rules=RULES, facts={"B": [("a1",), ("a2",)]}):
    rules_path = tmp_path / "rules.txt"
    rules_path.write_text(rules, encoding="utf-8")
    data = tmp_path / "data"
    data.mkdir()
    for pred, rows in facts.items():
        with open(data / ("%s.csv" % pred), "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
    return rules_path, data


def test_cli_run_success(tmp_path):
    rules_path, data = write_inputs(tmp_path)
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main,
        ["run", "--rules", str(rules_path), "--data", str(data),
         "--query-pred", "Q", "--mode", "all", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert "2 answer(s)" in result.output
    with open(out / "answers.csv", newline="", encoding="utf-8") as fh:
        assert [tuple(r) for r in csv.reader(fh)] == [("a1",), ("a2",)]


def test_cli_dump_stage_prints_final_rules(tmp_path):
    rules_path, data = write_inputs(tmp_path)
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main,
        ["run", "--rules", str(rules_path), "--data", str(data),
         "--query-pred", "Q", "--mode", "mat", "--out", str(out),
         "--dump-stage", "desg"],
    )
    assert result.exit_code == 0, result.output
    assert "A(?" in result.output and ":-" in result.output


def test_cli_stats_json(tmp_path):
    rules_path, data = write_inputs(tmp_path)
    out = tmp_path / "out"
    stats = tmp_path / "s.json"
    result = CliRunner().invoke(
        main,
        ["run", "--rules", str(rules_path), "--data", str(data),
         "--query-pred", "Q", "--out", str(out), "--stats-json", str(stats)],
    )
    assert result.exit_code == 0, result.output
    assert json.loads(stats.read_text(encoding="utf-8"))["query"] == "Q"


def test_cli_times_the_load_first(tmp_path):
    # `chasegoal run` reports the time of `load_scenario` before the stages';
    # `run_pipeline`'s own timings leave the load out.
    rules_path, data = write_inputs(tmp_path)
    out, stats = tmp_path / "out", tmp_path / "s.json"
    result = CliRunner().invoke(
        main,
        ["run", "--rules", str(rules_path), "--data", str(data), "--mode", "rel",
         "--query-pred", "Q", "--out", str(out), "--stats-json", str(stats)],
    )
    assert result.exit_code == 0, result.output
    timings = json.loads(stats.read_text(encoding="utf-8"))["timings"]
    assert list(timings) == ["load", "sg", "sk", "rel", "defun", "desg", "chase"]
    assert all(t >= 0 for t in timings.values())
    lines = [line for line in (out / "stats.txt").read_text(encoding="utf-8").splitlines()
             if line.startswith("time ")]
    assert [line.split(":")[0] for line in lines] == ["time " + name for name in timings]
    assert "load" not in run_pipeline(running_example(3), PipelineConfig(mode="rel")).timings


def test_cli_stats_json_in_a_missing_directory_exits_one(tmp_path):
    rules_path, data = write_inputs(tmp_path)
    stats = tmp_path / "nodir" / "s.json"
    result = CliRunner().invoke(
        main,
        ["run", "--rules", str(rules_path), "--data", str(data), "--query-pred", "Q",
         "--out", str(tmp_path / "out"), "--stats-json", str(stats)],
    )
    assert result.exit_code == 1, result.output
    assert result.output.startswith("error: cannot write the reports:")
    assert str(stats) in result.output and "Traceback" not in result.output

def test_cli_bad_rules_exits_one(tmp_path):
    rules_path, data = write_inputs(tmp_path, rules="B(?x -> A(?x)\n")
    result = CliRunner().invoke(
        main,
        ["run", "--rules", str(rules_path), "--data", str(data),
         "--query-pred", "Q", "--out", str(tmp_path / "out")],
    )
    assert result.exit_code == 1
    assert "error:" in result.output


def test_cli_unknown_query_exits_one(tmp_path):
    rules_path, data = write_inputs(tmp_path)
    result = CliRunner().invoke(
        main,
        ["run", "--rules", str(rules_path), "--data", str(data),
         "--query-pred", "Nope", "--out", str(tmp_path / "out")],
    )
    assert result.exit_code == 1
    assert "error:" in result.output


def test_cli_guard_trip_exits_two(tmp_path):
    rules_path, data = write_inputs(
        tmp_path,
        rules="P(?x) -> P(?y), F(?x,?y)\nP(?x) -> Q(?x)\n",
        facts={"P": [("a",)]},
    )
    result = CliRunner().invoke(
        main,
        ["run", "--rules", str(rules_path), "--data", str(data),
         "--query-pred", "Q", "--mode", "mat", "--max-depth", "4",
         "--out", str(tmp_path / "out")],
    )
    assert result.exit_code == 2
    assert "error:" in result.output


# A Skolem term that holds one term at both argument positions: printed in
# full, the fact of the trip at depth 20 takes megabytes.
SHARED_SKOLEM_RULES = """\
A(?x) -> E(?x,?x)
A(?x), A(?z), E(?x,?z) -> R(?x,?z,?y), A(?y)
A(?x) -> Q(?x)
"""


@pytest.mark.parametrize("mode", MODES)
def test_cli_guard_trip_prints_one_bounded_line_naming_the_rule(tmp_path, mode):
    rules_path, data = write_inputs(tmp_path, rules=SHARED_SKOLEM_RULES, facts={"A": [("a",)]})
    result = CliRunner().invoke(
        main,
        ["run", "--rules", str(rules_path), "--data", str(data),
         "--query-pred", "Q", "--mode", mode, "--out", str(tmp_path / "out")],
    )
    assert result.exit_code == 2
    assert len(result.stderr.encode()) < 4096
    line, = result.stderr.splitlines()
    # The fact is cut below four levels; the rule is the final program's.
    assert re.fullmatch(
        r"error: stage chase: term depth exceeds 20 in [AR]\(sk_1_y\(sk_1_y\(.*sk_1_y\(\.\.\.,\.\.\.\).*\)"
        r", applying [AR]\(.*sk_1_y\(\?s#1,\?s#2\)\) :- .*A\(\?s#1\), A\(\?s#2\), E\(\?s#1,\?s#2\)\.",
        line,
    ), line


# Six-way Skolem terms: cut only by depth, the fact of the trip printed
# 51 kB in mode mat.
SIX_WAY_RULES = """\
A(?x) -> E(?x,?x,?x,?x,?x,?x)
A(?a), A(?b), A(?c), A(?d), A(?e), A(?f), E(?a,?b,?c,?d,?e,?f) -> R(?a,?b,?c,?d,?e,?f,?y), A(?y)
A(?x) -> Q(?x)
"""


@pytest.mark.parametrize("mode", MODES)
def test_cli_guard_trip_line_stays_short_on_wide_skolem_terms(tmp_path, mode):
    # mat and rel trip the depth guard; magic and all spend the fact budget
    # on |A|^6 bound demand first.
    rules_path, data = write_inputs(tmp_path, rules=SIX_WAY_RULES, facts={"A": [("a",)]})
    result = CliRunner().invoke(
        main,
        ["run", "--rules", str(rules_path), "--data", str(data), "--query-pred", "Q",
         "--mode", mode, "--max-facts", "100000", "--out", str(tmp_path / "out")],
    )
    assert result.exit_code == 2
    assert len(result.stderr.encode()) < 4096
    line, = result.stderr.splitlines()
    assert ", applying " in line
    if mode in ("mat", "rel"):
        # Four levels would print 259 function symbols per argument.
        assert "term depth exceeds 20 in" in line
        assert "sk_1_y(sk_1_y(...,...,...,...,...,...)," in line
        assert "sk_1_y(sk_1_y(sk_1_y(sk_1_y(" not in line


@pytest.mark.parametrize("mode, rule", [
    ("mat", "con_c#(c)."), ("rel", "con_c#(c)."), ("magic", "m_Q#f."), ("all", "m_Q#f."),
])
def test_cli_trip_in_a_bodiless_rule_names_it(tmp_path, mode, rule):
    # The two base facts fill the budget; the first fact the chase adds,
    # before its first round, is the head of a bodiless rule: the constant's
    # graph fact, or magic's seed.
    rules_path, data = write_inputs(
        tmp_path, rules="A(?x), B(?x,c) -> Q(?x)\n", facts={"A": [("a",)], "B": [("a", "c")]}
    )
    result = CliRunner().invoke(
        main,
        ["run", "--rules", str(rules_path), "--data", str(data), "--query-pred", "Q",
         "--mode", mode, "--max-facts", "2", "--out", str(tmp_path / "out")],
    )
    assert result.exit_code == 2
    assert result.stderr == "error: stage chase: more than 2 facts, applying %s\n" % rule


RUN_ARGS = ["run", "--rules", "{tmp}/rules.txt", "--data", "{tmp}/data", "--query-pred", "Q", "--out", "{tmp}/out"]


@pytest.mark.parametrize(
    "args, named",
    [
        ([], "command"),
        (["nope"], "nope"),
        (["--no-such-switch", "run"], "--no-such-switch"),
        (RUN_ARGS + ["--no-such-switch"], "--no-such-switch"),
        (RUN_ARGS[:2] + ["{tmp}/missing.txt"] + RUN_ARGS[3:], "--rules"),
        (RUN_ARGS[:4] + ["{tmp}/missing"] + RUN_ARGS[5:], "--data"),
        (RUN_ARGS + ["--mode", "fast"], "--mode"),
        (RUN_ARGS[:-2], "--out"),
    ],
)
def test_cli_usage_errors_exit_one_with_an_error_line(tmp_path, args, named):
    # An unknown command or option, a path that does not exist, a bad
    # choice and a missing required option are bad input (exit 1), not a
    # guard trip (exit 2); the one line each prints names what was wrong.
    write_inputs(tmp_path)
    result = CliRunner().invoke(main, [a.format(tmp=tmp_path) for a in args])
    assert result.exit_code == 1, result.output
    assert result.output.startswith("error: ") and result.output.count("\n") == 1, result.output
    assert named in result.output


@pytest.mark.parametrize("option, zero_exit", [("--max-depth", 0), ("--max-facts", 2)])
def test_cli_rejects_a_negative_limit_and_keeps_zero(tmp_path, option, zero_exit):
    # A negative limit is a rejected input (exit 1), not a budget trip
    # (exit 2).  A limit of 0 is legal: no term here is deeper than a
    # constant, and the first derived fact trips a fact limit of 0.
    rules_path, data = write_inputs(tmp_path)
    args = ["run", "--rules", str(rules_path), "--data", str(data),
            "--query-pred", "Q", "--out", str(tmp_path / "out")]
    result = CliRunner().invoke(main, args + [option, "-1"])
    assert result.exit_code == 1, result.output
    assert "error: %s" % option in result.output
    result = CliRunner().invoke(main, args + [option, "0"])
    assert result.exit_code == zero_exit, result.output


def test_cli_memory_error_in_a_stage_exits_two(tmp_path, monkeypatch):
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr("chasegoal.driver.chase", out_of_memory)
    rules_path, data = write_inputs(tmp_path)
    result = CliRunner().invoke(
        main,
        ["run", "--rules", str(rules_path), "--data", str(data),
         "--query-pred", "Q", "--out", str(tmp_path / "out")],
    )
    assert result.exit_code == 2, result.output
    assert "error: stage chase: MemoryError" in result.output


def test_cli_una_changes_nothing_here_but_is_accepted(tmp_path):
    rules_path, data = write_inputs(tmp_path)
    result = CliRunner().invoke(
        main,
        ["run", "--rules", str(rules_path), "--data", str(data),
         "--query-pred", "Q", "--mode", "rel", "--una",
         "--out", str(tmp_path / "out")],
    )
    assert result.exit_code == 0, result.output
    assert "2 answer(s)" in result.output


def test_cli_rejects_constant_of_two_sorts_in_every_mode(tmp_path):
    # Unchecked, mat answered a while the typed relevance abstraction of
    # all pruned the only rule and answered nothing.
    rules_path, data = write_inputs(
        tmp_path,
        rules="S(?x), D(?x) -> Q(?x)\n",
        facts={"S": [("a",)], "D": [("a",)]},
    )
    schema = tmp_path / "schema.txt"
    schema.write_text("S/1: student\nD/1: dept\n", encoding="utf-8")
    for mode in ("mat", "all"):
        result = CliRunner().invoke(
            main,
            ["run", "--rules", str(rules_path), "--data", str(data),
             "--schema", str(schema), "--query-pred", "Q", "--mode", mode,
             "--out", str(tmp_path / "out")],
        )
        assert result.exit_code == 1, result.output
        assert "constant a has sort dept at D(a) and sort student at S(a)" in result.output


def test_cli_rejects_rule_constant_of_two_sorts(tmp_path):
    rules_path, data = write_inputs(
        tmp_path,
        rules="S(?x), D(c), E(c) -> Q(?x)\n",
        facts={"S": [("a",)]},
    )
    schema = tmp_path / "schema.txt"
    schema.write_text("S/1: student\nD/1: dept\nE/1: student\n", encoding="utf-8")
    result = CliRunner().invoke(
        main,
        ["run", "--rules", str(rules_path), "--data", str(data),
         "--schema", str(schema), "--query-pred", "Q", "--out", str(tmp_path / "out")],
    )
    assert result.exit_code == 1, result.output
    assert "constant c has sort dept at D(c) and sort student at E(c)" in result.output


@pytest.mark.parametrize(
    "rules, facts, fact_file",
    [
        ("A(?x) -> Q(?x)\nD(?x) -> A(c)\nE(?x) -> B(c)\n", {}, None),
        ("A(?x) -> Q(?x)\nD(?x) -> A(c)\nE(?x) -> B(?x)\n", {"B": [("c",)]}, "B.csv"),
    ],
    ids=["two-rules", "rule-and-fact"],
)
def test_cli_names_the_place_of_a_constant_of_two_sorts(tmp_path, rules, facts, fact_file):
    # Sorts are checked when the Scenario is built, after the rule file is
    # read, so load_scenario places the error: at the first rule holding one
    # of the two atoms, and at the CSV file of an atom that is a fact.
    rules_path, data = write_inputs(tmp_path, rules=rules, facts=facts)
    schema = tmp_path / "schema.txt"
    schema.write_text("A/1: s1\nB/1: s2\n", encoding="utf-8")
    result = CliRunner().invoke(
        main,
        ["run", "--rules", str(rules_path), "--data", str(data), "--schema", str(schema),
         "--query-pred", "Q", "--out", str(tmp_path / "out")],
    )
    assert result.exit_code == 1
    where = "; B(c) is a fact in %s" % (data / fact_file) if fact_file else ""
    assert result.stderr == "error: %s:2:1: constant c has sort s1 at A(c) and sort s2 at B(c)%s\n" % (
        rules_path, where)


def test_cli_types_relevance_by_a_schema(tmp_path):
    # A schema types the relevance abstraction by sort.  The first rule's
    # Skolem term sits at T's t position and at A's u position; the typed
    # analysis still keeps both rules.
    rules_path, data = write_inputs(
        tmp_path,
        rules="B(?x) -> T(?x,?y), A(?y)\nT(?x,?y), A(?y) -> Q(?x)\n",
        facts={"B": [("a",)]},
    )
    schema = tmp_path / "schema.txt"
    schema.write_text("B/1: s\nT/2: s, t\nA/1: u\n", encoding="utf-8")
    for mode in ("rel", "all"):
        out = tmp_path / mode
        result = CliRunner().invoke(
            main,
            ["run", "--rules", str(rules_path), "--data", str(data),
             "--schema", str(schema), "--query-pred", "Q", "--mode", mode, "--out", str(out)],
        )
        assert result.exit_code == 0, (mode, result.output)
        assert (out / "answers.csv").read_text(encoding="utf-8").split() == ["a"]


def test_cli_reports_the_relevance_retry(tmp_path):
    rules_path, data = write_inputs(tmp_path, rules=DIVERGING, facts={"S": [("a",)]})
    args = ["run", "--rules", str(rules_path), "--data", str(data), "--query-pred", "Q"]
    for mode in ("mat", "rel"):
        out = tmp_path / mode
        result = CliRunner().invoke(
            main, args + ["--mode", mode, "--out", str(out), "--stats-json", str(out / "stats.json")]
        )
        assert result.exit_code == 0, (mode, result.output)
    answers = [(tmp_path / m / "answers.csv").read_text(encoding="utf-8") for m in ("mat", "rel")]
    assert answers[0] == answers[1] == "a\n"
    stats = (tmp_path / "rel" / "stats.txt").read_text(encoding="utf-8")
    assert "relevance: retried with function abstraction\n" in stats
    payload = json.loads((tmp_path / "rel" / "stats.json").read_text(encoding="utf-8"))
    assert payload["relevance_retried"] is True
    # the input decides the abstraction; no switch picks it
    for switch in ("--defun-abstraction", "--untyped-critical"):
        result = CliRunner().invoke(main, args + [switch, "--out", str(tmp_path / "x")])
        assert result.exit_code == 1 and "No such option" in result.output and switch in result.output


@pytest.mark.parametrize("name", ["rules.txt", "schema.txt", "data/B.csv"])
def test_cli_names_the_offset_of_a_byte_that_is_not_utf8(tmp_path, name):
    # The bad byte follows 8 KB of valid text, past the first block a
    # reader decodes.
    rules_path, data = write_inputs(tmp_path)
    (tmp_path / "schema.txt").write_text("B/1: s\n", encoding="utf-8")
    path = tmp_path / name
    text = (b"a1\n" * 3000 if name.endswith(".csv") else b"# comment\n" * 900) + path.read_bytes()
    path.write_bytes(text + b"\xff\n")
    result = CliRunner().invoke(
        main,
        ["run", "--rules", str(rules_path), "--data", str(data), "--schema", str(tmp_path / "schema.txt"),
         "--query-pred", "Q", "--out", str(tmp_path / "out")],
    )
    assert result.exit_code == 1, result.output
    assert result.output == "error: %s: not UTF-8: byte 0xff at offset %d\n" % (path, len(text))


def test_cli_names_the_line_of_a_cell_over_the_csv_field_limit(tmp_path):
    # The cell is in the second batch of rows.
    rules_path, data = write_inputs(tmp_path)
    path = data / "B.csv"
    path.write_text("a1\n" * 209 + "x" * 140000 + "\na2\n", encoding="utf-8")
    result = CliRunner().invoke(
        main,
        ["run", "--rules", str(rules_path), "--data", str(data), "--query-pred", "Q",
         "--out", str(tmp_path / "out")],
    )
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output == "error: %s:210: field larger than field limit (%d)\n" % (
        path, csv.field_size_limit())


def test_cli_names_a_csv_path_it_cannot_read(tmp_path):
    rules_path, data = write_inputs(tmp_path, facts={})
    (data / "B.csv").mkdir()
    result = CliRunner().invoke(
        main,
        ["run", "--rules", str(rules_path), "--data", str(data), "--query-pred", "Q",
         "--out", str(tmp_path / "out")],
    )
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert result.output == "error: %s: cannot read: Is a directory\n" % (data / "B.csv")


def test_cli_rejects_schema_arity_the_rules_disagree_with(tmp_path):
    rules_path, data = write_inputs(tmp_path)
    schema = tmp_path / "schema.txt"
    schema.write_text("B/2: student, dept\n", encoding="utf-8")
    result = CliRunner().invoke(
        main,
        ["run", "--rules", str(rules_path), "--data", str(data),
         "--schema", str(schema), "--query-pred", "Q", "--out", str(tmp_path / "out")],
    )
    assert result.exit_code == 1, result.output
    assert "schema declares B/2, rules use arity 1" in result.output


def test_cli_rejects_a_schema_sort_that_is_not_a_name(tmp_path):
    rules_path, data = write_inputs(tmp_path)
    schema = tmp_path / "schema.txt"
    schema.write_text("B/1: student\nS/2: student,\n", encoding="utf-8")
    result = CliRunner().invoke(
        main,
        ["run", "--rules", str(rules_path), "--data", str(data),
         "--schema", str(schema), "--query-pred", "Q", "--out", str(tmp_path / "out")],
    )
    assert result.exit_code == 1, result.output
    assert "schema.txt:2:1: S/2 declares sort '', which is not a name" in result.output


# Input names that look generated but for the '#' that marks generated
# names; refused while sg's variables were ?_s1, ... and graph predicates
# fun_g and con_c.
FREED_NAMES_RULES = """\
con_tact(?x) -> Q(?x)
fun_fact(?x) -> Q(?x)
P(?_x), R(?_x,c) -> Q(?_x)
"""


def test_cli_accepts_names_without_the_generated_mark(tmp_path):
    # Every mode answers as the null chase does, every stage dump from sk on
    # reads back to its own text, and the desg dump chases to the answers.
    facts = {"con_tact": [("a",)], "fun_fact": [("b",)], "P": [("d",), ("e",)], "R": [("d", "c"), ("e", "f")]}
    rules_path, data = write_inputs(tmp_path, rules=FREED_NAMES_RULES, facts=facts)
    sc = load_scenario(rules_path, data, "Q")
    want = null_chase(sc).answers
    assert want == {("a",), ("b",), ("d",)}
    for mode in MODES:
        for name in MODE_STAGES[mode][1:]:
            out = tmp_path / ("out-%s-%s" % (mode, name))
            result = CliRunner().invoke(
                main,
                ["run", "--rules", str(rules_path), "--data", str(data), "--query-pred", "Q",
                 "--mode", mode, "--dump-stage", name, "--out", str(out)],
            )
            assert result.exit_code == 0, result.output
            dump = "".join(result.stdout.splitlines(keepends=True)[:-1])
            assert serialize_program(parse_program(dump)) == dump, (mode, name)
            if name == "desg":
                again = chase(parse_program(dump), sc.instance)
                assert {tuple(c.name for c in t) for t in extract_answers(again, Q1)} == want, mode
            with open(out / "answers.csv", newline="", encoding="utf-8") as fh:
                assert {tuple(r) for r in csv.reader(fh)} == want, mode


@pytest.mark.parametrize("rules, message", BODY_EQUALITY_ERRORS, ids=["no-variable", "unbound", "query-head"])
def test_cli_rejects_a_body_equality_the_pipeline_cannot_take(tmp_path, rules, message):
    # Once these exited 1 in stage sg, "equality safety lost after sg".
    # An unsafe body equality is found while the rule file is read, and a
    # query head bound only through equalities while the rules are checked
    # against the query, so each error names the file and line.
    rules_path, data = write_inputs(tmp_path, rules=rules, facts={"A": [("a",)]})
    result = CliRunner().invoke(
        main,
        ["run", "--rules", str(rules_path), "--data", str(data), "--query-pred", "Q",
         "--out", str(tmp_path / "out")],
    )
    assert result.exit_code == 1
    assert result.stderr == "error: %s:1:1: %s\n" % (rules_path, message)


@pytest.mark.parametrize(
    "rule, message",
    [
        ("B(?x), Q(?x) -> C(?x)", "query predicate Q occurs in a rule body"),
        ("A(?x) -> Q(?y)", "query predicate Q has an existential argument"),
        ("A(?x) -> Q('c')", "query predicate Q has a constant argument in rule A(?x) -> Q(c)"
         "; use a non-query predicate and a rule from it into Q"),
        ("A(?x), ?x = ?y -> Q(?y)", "query predicate Q has an argument that only body equalities "
         "bind in rule A(?x), ?x = ?y -> Q(?y); use a non-query predicate and a rule from it into Q"),
    ],
    ids=["body", "existential", "constant", "equality-only"],
)
def test_cli_names_the_line_of_a_rule_that_breaks_the_query_contract(tmp_path, rule, message):
    # Once these named no line: the query check ran on the built scenario.
    # Reported before the facts are read, so an unreadable CSV file does
    # not hide it.
    rules_path, data = write_inputs(tmp_path, rules="A(?x) -> B(?x)\n%s\n" % rule, facts={"A": [("a",)]})
    (data / "B.csv").write_bytes(b"\xff\n")
    result = CliRunner().invoke(
        main,
        ["run", "--rules", str(rules_path), "--data", str(data), "--query-pred", "Q",
         "--out", str(tmp_path / "out")],
    )
    assert result.exit_code == 1
    assert result.stderr == "error: %s:2:1: %s\n" % (rules_path, message)
    assert not (tmp_path / "out").exists()


def test_cli_dump_of_a_skipped_stage_exits_one(tmp_path):
    rules_path, data = write_inputs(tmp_path)
    result = CliRunner().invoke(
        main,
        ["run", "--rules", str(rules_path), "--data", str(data),
         "--query-pred", "Q", "--mode", "mat", "--dump-stage", "rel",
         "--out", str(tmp_path / "out")],
    )
    assert result.exit_code == 1, result.output
    assert "error: stage rel was not computed in mode mat" in result.output
    # Rejected before the run: no report is written.
    assert not (tmp_path / "out").exists()


def test_cli_rejects_base_facts_of_the_query_predicate_in_every_mode(tmp_path):
    # The goal-driven modes answered a b where the others answer a b c:
    # they close answers under equality only through query-rule heads.
    rules_path, data = write_inputs(
        tmp_path,
        rules="A(?x) -> Q(?x)\nS(?x,?y) -> ?x = ?y\n",
        facts={"A": [("a",)], "Q": [("b",)], "S": [("b", "c")]},
    )
    for mode in ("mat", "rel", "magic", "all"):
        result = CliRunner().invoke(
            main,
            ["run", "--rules", str(rules_path), "--data", str(data),
             "--query-pred", "Q", "--mode", mode, "--out", str(tmp_path / "out")],
        )
        assert result.exit_code == 1, (mode, result.output)
        assert "Q.csv: query predicate Q has base facts" in result.output
        assert "a rule from it into Q" in result.output


def test_cli_rejects_constant_in_a_query_head_in_every_mode(tmp_path):
    # The goal-driven modes answered (a,c) where the others answer (a,c)
    # and (a,d): the constant is not decoupled from its equality class.
    rules_path, data = write_inputs(
        tmp_path,
        rules="B(?x) -> Q(?x,c)\nE(?x) -> ?x = c\n",
        facts={"B": [("a",)], "E": [("d",)]},
    )
    for mode in ("mat", "rel", "magic", "all"):
        result = CliRunner().invoke(
            main,
            ["run", "--rules", str(rules_path), "--data", str(data),
             "--query-pred", "Q", "--mode", mode, "--out", str(tmp_path / "out")],
        )
        assert result.exit_code == 1, (mode, result.output)
        assert "constant argument in rule B(?x) -> Q(?x,c)" in result.output
        assert "a rule from it into Q" in result.output


# One 5-ary base predicate and 11 rule constants, in rules into K: once the
# query reads K, the critical instance would hold (11 + 1)^5 = 248832 facts,
# past relevance's 100000.
WIDE_FAMILY = "".join("P(?a,?b,?c,?d,?e) -> K(?a,c%d)\n" % i for i in range(1, 12))
WIDE_RULES = "P(?a,?b,?c,?d,?e) -> Q(?a)\n" + WIDE_FAMILY


def test_critical_instance_past_the_relevance_limit_trips_before_it_is_built(
    tmp_path, monkeypatch
):
    rules_path, data = write_inputs(
        tmp_path, rules=WIDE_RULES + "K(?a,?b) -> Q(?a)\n", facts={"P": [("a",) * 5]}
    )
    result = CliRunner().invoke(
        main,
        ["run", "--rules", str(rules_path), "--data", str(data),
         "--query-pred", "Q", "--mode", "rel", "--out", str(tmp_path / "out")],
    )
    assert result.exit_code == 2, result.output
    assert "error: stage rel: critical instance of 248832 facts" in result.output

    sc = chasegoal.load_scenario(rules_path, data, "Q")

    def no_fact(self, fact):
        raise AssertionError("built %r" % (fact,))

    monkeypatch.setattr(Instance, "add", no_fact)
    with pytest.raises(PipelineError) as exc:
        run_pipeline(sc, PipelineConfig(mode="rel"))
    assert exc.value.stage == "rel"
    assert isinstance(exc.value.cause, FactLimitExceeded)


def test_a_critical_instance_too_large_is_not_retried(monkeypatch):
    # Abstraction only adds constants, so a retry could not shrink the
    # critical instance of this 5-ary family over 11 constants: relevance
    # runs once.
    attempts = []

    def counted(*args, **kwargs):
        attempts.append(kwargs["abstract_functions"])
        return relevance(*args, **kwargs)

    monkeypatch.setattr(driver, "relevance", counted)
    base = Instance([Atom(Predicate("P", 5), (Constant("a"),) * 5)])
    sc = Scenario(tuple(parse_rules(WIDE_RULES + "K(?a,?b) -> Q(?a)\n")), base, Q1)
    with pytest.raises(PipelineError) as exc:
        run_pipeline(sc, PipelineConfig(mode="rel"))
    assert attempts == [False]
    assert isinstance(exc.value.cause, FactLimitExceeded)
    assert str(exc.value) == "stage rel: critical instance of 248832 facts, more than 100000"


# Rules over fresh predicates that no query trace reaches: a diverging
# existential loop with its base fact, and the 5-ary constant family above.
UNREACHABLE = {
    "loop": ("F(?x) -> G(?x,?y), F(?y)\n", {"F": [("f1",)]}),
    "constants": (WIDE_FAMILY, {"P": [("p",) * 5]}),
}
RUNNING_FACTS = {"B": [("a1",)], "S": [("a1", "a2"), ("a2", "a3")]}
CHAIN_FACTS = {"B": [("a1",)], "S": [("a%d" % i, "a%d" % (i + 1)) for i in range(1, 10)]}
REACHED = {
    "worked": (RUNNING_RULES, RUNNING_FACTS),
    "chain": (RUNNING_RULES, CHAIN_FACTS),
    # the wide input of the test above, whose query does not read K
    "wide": ("P(?a,?b,?c,?d,?e) -> Q(?a)\n", {"P": [("p",) * 5]}),
    # 11 constants in rules the query reads: the critical instance must
    # leave out the base predicates it does not read, such as P
    "constants": (
        "".join("B(?a) -> H(?a,c%d)\n" % i for i in range(1, 12)) + "H(?a,?b) -> Q(?a)\n",
        {"B": [("b",)]},
    ),
}


@pytest.mark.parametrize("mode", ["rel", "all"])
@pytest.mark.parametrize("extra", sorted(UNREACHABLE))
@pytest.mark.parametrize("name", sorted(REACHED))
def test_unreachable_rules_leave_relevance_alone(tmp_path, name, extra, mode):
    rules, facts = REACHED[name]
    extra_rules, extra_facts = UNREACHABLE[extra]
    (tmp_path / "plain").mkdir()
    (tmp_path / "extra").mkdir()
    plain = chasegoal.load_scenario(*write_inputs(tmp_path / "plain", rules, facts), "Q")
    rules_path, data = write_inputs(
        tmp_path / "extra", rules + extra_rules, {**facts, **extra_facts}
    )
    sc = chasegoal.load_scenario(rules_path, data, "Q")
    want = run_pipeline(plain, PipelineConfig(mode=mode))
    got = run_pipeline(sc, PipelineConfig(mode=mode))
    assert not want.relevance_retried and not got.relevance_retried
    for stage in MODE_STAGES[mode][2:]:
        assert dump_stage(got, stage) == dump_stage(want, stage), stage
    assert set(got.answers) == null_chase(plain).answers
    result = CliRunner().invoke(
        main,
        ["run", "--rules", str(rules_path), "--data", str(data),
         "--query-pred", "Q", "--mode", mode, "--out", str(tmp_path / "out")],
    )
    assert result.exit_code == 0, result.output


# random_scenario draws the predicates E, F, P, R, S and Q; for its draws,
# UNREACHABLE's families move to predicates it never draws.
FRESH = {"F": "U", "G": "V", "P": "W"}


def unreachable_for_draws():
    rules, facts = [], []
    for text, base in (UNREACHABLE["loop"], UNREACHABLE["constants"]):
        rules += parse_rules(re.sub(r"\b[FGP]\(", lambda m: FRESH[m.group()[0]] + "(", text))
        facts += [
            Atom(Predicate(FRESH[name], len(row)), tuple(map(Constant, row)))
            for name, rows in base.items()
            for row in rows
        ]
    return tuple(rules), facts


def test_unreachable_rules_leave_relevance_alone_on_drawn_inputs():
    # The relation of the test above on 40 drawn scenarios: with both
    # unreachable families and their base facts appended, every dump from
    # rel on, the retry and the answers stay as they were.
    extra_rules, extra_facts = unreachable_for_draws()
    for i, plain in enumerate(scenario_draws(16, 40)):
        sc = Scenario(
            plain.rules + extra_rules, Instance(list(plain.instance) + extra_facts),
            plain.query, None, plain.una_known,
        )
        for mode in ("rel", "all"):
            want = run_pipeline(plain, PipelineConfig(mode=mode))
            got = run_pipeline(sc, PipelineConfig(mode=mode))
            assert got.relevance_retried == want.relevance_retried, (i, mode)
            for stage in MODE_STAGES[mode][2:]:
                assert dump_stage(got, stage) == dump_stage(want, stage), (i, mode, stage)
            assert got.answers == want.answers, (i, mode)


# -- order independence across interpreters ----------------------------------

# Terms and predicates hash by identity, so set iteration order follows
# object addresses and changes from one interpreter to the next; the
# counts and answers of a run must not.
FRESH_RUN = """
import json, sys
from dataclasses import asdict
from pathlib import Path
from chasegoal import PipelineConfig, load_scenario, run_pipeline
from helpers import running_example
from workloads import ontology
root = Path(sys.argv[1])
onto = ontology(root, 1)
fixtures = {
    "chain-30": running_example(30),
    "ontology": load_scenario(root / "rules.txt", root / "data", onto.query, una_known=onto.una),
}
out = {"ontology expected": sorted(onto.expected)}
for name, sc in fixtures.items():
    for mode in ("mat", "rel", "magic", "all"):
        rep = run_pipeline(sc, PipelineConfig(mode=mode))
        out[name + " " + mode] = {
            "stats": asdict(rep.chase_stats),
            "answers": rep.answers,
            "rule_counts": rep.rule_counts,
            "facts": len(rep.chase_result.instance),
        }
print(json.dumps(out, sort_keys=True))
"""


def test_counts_and_answers_agree_across_fresh_interpreters(tmp_path):
    # The ontology fixture is the benchmark's ontology workload (132 rules,
    # merges in mat and magic); each interpreter also has its own hash seed.
    import os
    import subprocess
    import sys

    repo = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(str(repo / d) for d in ("src", "tests", "bench"))
    runs = []
    for hash_seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, "-c", FRESH_RUN, str(tmp_path / hash_seed)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        runs.append(json.loads(done.stdout))
    first = runs[0]
    for mode in ("mat", "rel", "magic", "all"):
        assert first["ontology " + mode]["answers"] == first["ontology expected"], mode
        assert first["chain-30 " + mode]["answers"] == [["a1"]], mode
    assert first["ontology mat"]["stats"]["merges"] > 0
    for run in runs[1:]:
        assert run == first


def test_benchmark_uses_the_package_as_it_is():
    # bench/child.py mirrors run_pipeline on the package's public API and
    # bench/reference.py recomputes the ontology answers with it; importing
    # both resolves every name they take from chasegoal.  The files are only
    # read: every configuration name and report field child.py uses must
    # exist.  Of its configuration, a caller sets only mode, limits and
    # seed; the relevance values child.py also reads are fixed class
    # attributes, equal to what run_pipeline uses.
    import ast
    import dataclasses
    import inspect
    import sys

    bench = Path(__file__).resolve().parent.parent / "bench"
    saved = list(sys.path)
    sys.path.insert(0, str(bench))  # child.py imports calibration from there
    try:
        importlib.import_module("child")
        importlib.import_module("reference")
    finally:
        sys.path[:] = saved  # reference.py adds bench/ to the path itself

    def config_reads(tree):
        return {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and (
                (isinstance(node.value, ast.Name) and node.value.id == "cfg")
                or (isinstance(node.value, ast.Attribute) and node.value.attr == "cfg")
            )
        }

    tree = ast.parse((bench / "child.py").read_text(encoding="utf-8"))
    bench_reads = config_reads(tree)
    report_keywords = {
        kw.arg
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "RunReport"
        for kw in node.keywords
    }
    assert {"mode", "limits", "una_known"} <= bench_reads
    assert all(hasattr(PipelineConfig(), name) for name in bench_reads), bench_reads
    assert [f.name for f in dataclasses.fields(PipelineConfig)] == ["mode", "limits", "seed"]
    assert config_reads(ast.parse(inspect.getsource(run_pipeline))) == {"mode", "limits", "seed"}
    fixed = {
        "una_known": None,  # the scenario's flag
        "typed_critical": None,  # typed exactly when a schema is given
        "defun_abstraction": False,  # the exact analysis first
        "relevance_limits": inspect.signature(relevance).parameters["fixpoint_limits"].default,
    }
    assert {name: getattr(PipelineConfig, name) for name in fixed} == fixed
    for name in fixed:
        with pytest.raises(TypeError):
            PipelineConfig(**{name: fixed[name]})
    assert {"answers", "chase_stats"} <= report_keywords
    assert report_keywords <= {f.name for f in dataclasses.fields(chasegoal.RunReport)}
