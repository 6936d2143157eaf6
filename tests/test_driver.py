"""Pipeline driver, report emission and the command line."""

import csv
import importlib
import json
import re
import time
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
    parse_program,
    parse_rules,
    run_pipeline,
    serialize_program,
)
from chasegoal import driver
from chasegoal.cli import main
from chasegoal.kernel import Atom, Constant, Instance, Predicate
from chasegoal.pruning import relevance

from helpers import Q1, campus_fixture, running_example


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
    # sg keeps the arrow format and generated ?_s variables, so it is for
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
    # asking for the abstraction up front gives the same rules, no retry
    direct = run_pipeline(sc, PipelineConfig(mode="rel", defun_abstraction=True))
    assert not direct.relevance_retried
    assert direct.answers == rep.answers


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

def test_relevance_fixpoint_past_its_limits_fails_stage_rel():
    with pytest.raises(PipelineError) as exc:
        run_pipeline(
            running_example(3),
            PipelineConfig(mode="rel", relevance_limits=Limits(max_facts=5)),
        )
    assert exc.value.stage == "rel"
    assert isinstance(exc.value.cause, AbstractionFixpointDiverged)


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


def test_cli_defun_abstraction_with_a_schema(tmp_path):
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


# One 5-ary base predicate and 11 rule constants: the critical instance
# would hold (11 + 1)^5 = 248832 facts, past relevance's 100000.
WIDE_RULES = "P(?a,?b,?c,?d,?e) -> Q(?a)\n" + "".join(
    "P(?a,?b,?c,?d,?e) -> K(?a,c%d)\n" % i for i in range(1, 12)
)


def test_critical_instance_past_the_relevance_limit_trips_before_it_is_built(
    tmp_path, monkeypatch
):
    rules_path, data = write_inputs(tmp_path, rules=WIDE_RULES, facts={"P": [("a",) * 5]})
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
    assert isinstance(exc.value.cause, AbstractionFixpointDiverged)


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
    # read: the configuration fields and report fields child.py uses must
    # exist.
    import ast
    import dataclasses
    import sys

    bench = Path(__file__).resolve().parent.parent / "bench"
    saved = list(sys.path)
    sys.path.insert(0, str(bench))  # child.py imports calibration from there
    try:
        importlib.import_module("child")
        importlib.import_module("reference")
    finally:
        sys.path[:] = saved  # reference.py adds bench/ to the path itself

    tree = ast.parse((bench / "child.py").read_text(encoding="utf-8"))
    config_reads = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and (
            (isinstance(node.value, ast.Name) and node.value.id == "cfg")
            or (isinstance(node.value, ast.Attribute) and node.value.attr == "cfg")
        )
    }
    report_keywords = {
        kw.arg
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "RunReport"
        for kw in node.keywords
    }
    assert {"mode", "limits", "una_known"} <= config_reads
    assert config_reads <= {f.name for f in dataclasses.fields(PipelineConfig)}
    assert {"answers", "chase_stats"} <= report_keywords
    assert report_keywords <= {f.name for f in dataclasses.fields(chasegoal.RunReport)}
