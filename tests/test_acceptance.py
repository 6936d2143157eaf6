"""Acceptance gate: one test per release criterion.

Each test prints a single `ACCEPTANCE <n> PASS` line with the measured
numbers and the tolerance it was held to (visible with `pytest -s`; under
plain pytest the per-test PASSED/FAILED line carries the verdict).  All
comparisons are exact unless the line says otherwise.
"""

import time
from itertools import combinations

from chasegoal import (
    AbstractionFixpointDiverged,
    PipelineConfig,
    check_eq_safety,
    magic,
    parse_program,
    parse_rules,
    relevance,
    run_pipeline,
    singularize,
    skolemize,
)
from chasegoal.engine import ChaseError
from chasegoal.frontend import rules_signature
from chasegoal.kernel import Atom, Constant, eq, iter_subterms

from helpers import (
    ORACLE_LIMITS,
    RUNNING_RULES,
    Q1,
    campus_fixture,
    canon_rules,
    derivation_log,
    mu_hat,
    null_chase,
    reference_fixpoint,
    running_example,
    scenario_draws,
    scenario_stream,
)
from test_eqprep import SG_EXPECTED, SK_EXPECTED
from test_finalize import DEFUN_EXPECTED, DESG_EXPECTED
from test_magic import MAGIC_EXPECTED
from test_relevance import REL_UNA_EXPECTED


def passline(n, detail):
    print("\nACCEPTANCE %d PASS - %s" % (n, detail))


def test_criterion_1_worked_example_stage_goldens():
    """Every pipeline stage on the worked example matches its frozen golden
    up to variable renaming, inside one second of wall time."""
    t0 = time.perf_counter()
    rep = run_pipeline(running_example(3), PipelineConfig(mode="all"))
    stages = rep.stages
    assert canon_rules(stages["sg"]) == canon_rules(parse_rules(SG_EXPECTED))
    assert canon_rules(stages["sk"]) == canon_rules(parse_program(SK_EXPECTED))
    assert canon_rules(stages["rel"]) == canon_rules(parse_program(REL_UNA_EXPECTED))
    assert canon_rules(stages["magic"]) == canon_rules(parse_program(MAGIC_EXPECTED))
    assert canon_rules(stages["defun"]) == canon_rules(parse_program(DEFUN_EXPECTED))
    assert canon_rules(stages["desg"]) == canon_rules(parse_program(DESG_EXPECTED))
    took = time.perf_counter() - t0
    assert took < 1.0
    passline(
        1,
        "stage goldens sg=5 sk=6 rel=5 magic=13 defun=16 desg=16 rules in %.2fs "
        "(tolerance: equal up to variable renaming, under 1s)" % took,
    )


def test_criterion_2_worked_example_scaling():
    """All four modes answer {(a1,)} on the a1->...->an chain for n in
    {3, 100, 1000}.  The full pipeline at n=1000 derives at most 20 facts,
    finishes under 5 seconds, and derives nothing that touches a_i for
    i >= 2 (the base chain itself of course stays in the instance)."""
    detail = []
    for n in (3, 100, 1000):
        sc = running_example(n)
        for mode in ("mat", "rel", "magic", "all"):
            with derivation_log() as derived:
                t0 = time.perf_counter()
                rep = run_pipeline(sc, PipelineConfig(mode=mode))
                took = time.perf_counter() - t0
            assert rep.answers == (("a1",),), (mode, n, rep.answers)
            if mode == "all":
                detail.append("all@%d %.2fs/%d facts" % (n, took, rep.chase_stats.derived_facts))
            if mode == "all" and n == 1000:
                assert rep.chase_stats.derived_facts <= 20
                assert took < 5.0
                far = {Constant("a%d" % i) for i in range(2, n + 1)}
                for fact in derived:
                    for t in fact.args:
                        assert far.isdisjoint(iter_subterms(t)), fact
    passline(
        2,
        "12 mode/size runs exact {('a1',)}; %s "
        "(tolerance: answers exact; full pipeline at n=1000 <=20 facts, under 5s, "
        "no a_i with i>=2 at any term depth)" % ", ".join(detail),
    )


def test_criterion_3_mode_agreement_with_the_null_chase():
    """On 200 generated scenarios (existential rules with EGDs, arity <= 2,
    equality-rich) and on the running example at 2, 3, 5 and 10 links,
    every mode's answers equal the labelled-null chase's (the raw
    existential rules, fresh nulls, a union-find of its own).  The null
    chase settles on every draw.  Exact set equality, under 60 seconds."""
    t0 = time.perf_counter()
    n = merged = nonempty = 0
    drawn = list(scenario_stream(20260814, 200))
    unsettled = sum(d.answers is None for d in drawn)
    for d in drawn + [null_chase(running_example(k)) for k in (2, 3, 5, 10)]:
        n += 1
        merged += d.merged
        nonempty += bool(d.answers)
        for mode in ("mat", "rel", "magic", "all"):
            rep = run_pipeline(d.scenario, PipelineConfig(mode=mode))
            assert set(map(tuple, rep.answers)) == d.answers, (mode, d.scenario)
    took = time.perf_counter() - t0
    assert n == 204 and unsettled == 0 and took < 60.0
    # the stream must actually exercise equality reasoning
    assert merged >= 20 and nonempty >= 50
    passline(
        3,
        "200 scenarios and 4 running-example sizes x 4 modes agree with the null "
        "chase in %.1fs; %d scenarios merge named constants, %d have answers, "
        "%d unsettled (tolerance: exact answer sets, none unsettled, under 60s)"
        % (took, merged, nonempty, unsettled),
    )


def test_criterion_4_chase_instance_represents_the_fixpoint():
    """The chase result <I, mu> of the materializing pipeline is a
    representative encoding of the naive reference fixpoint N, on the same
    200 scenarios less those whose N exceeds its guards: merged terms are
    provably equal, provably equal terms share a normal form, N maps into I
    under the normal form, and every I fact over the input signature is
    literally in N.  Exact, under 60 seconds."""
    t0 = time.perf_counter()
    checked_pairs = checked_facts = skipped = 0
    for drawn in scenario_stream(20260814, 200):
        sc = drawn.scenario
        try:
            N = reference_fixpoint(skolemize(sc.rules, sc.query), sc.instance, ORACLE_LIMITS)
        except ChaseError:
            skipped += 1
            continue
        rep = run_pipeline(sc, PipelineConfig(mode="mat"))
        cr = rep.chase_result
        mu = cr.mu
        # The input signature: the predicates of the rules and of the base.
        source = set(rules_signature(sc.rules).values()) | sc.instance.predicates()
        for members in cr.classes.values():
            for t1, t2 in combinations(sorted(members, key=repr), 2):
                checked_pairs += 1
                assert eq(t1, t2) in N or eq(t2, t1) in N, (t1, t2)
        for f in N:
            if f.is_equality:
                t1, t2 = f.args
                checked_pairs += 1
                assert mu_hat(mu, t1) == mu_hat(mu, t2), f
            else:
                checked_facts += 1
                img = Atom(f.predicate, tuple(mu_hat(mu, t) for t in f.args))
                assert img in cr.instance, (f, img)
        for f in cr.instance:
            if f.predicate in source:
                assert f in N, f
    took = time.perf_counter() - t0
    assert took < 60.0 and skipped <= 20
    passline(
        4,
        "%d of 200 scenarios (%d past the naive fixpoint's guards), %d equality "
        "obligations and %d fact mappings hold both ways in %.1fs "
        "(tolerance: exact, under 60s)"
        % (200 - skipped, skipped, checked_pairs, checked_facts, took),
    )


def test_criterion_5_equality_safety_is_preserved():
    """Singularization+Skolemization, relevance and the magic rewriting each
    keep every rule equality-safe, on 100 generated programs.  Exact."""
    t0 = time.perf_counter()
    n = 0
    for sc in scenario_draws(555, 100):
        n += 1
        sk = skolemize(singularize(sc.rules, sc.query), sc.query)
        assert check_eq_safety(sk) == []
        try:
            rel = relevance(sk, sc.instance, una_known=sc.una_known)
        except AbstractionFixpointDiverged:
            rel = relevance(
                sk, sc.instance, una_known=sc.una_known, abstract_functions=True
            )
        assert check_eq_safety(rel) == []
        assert check_eq_safety(magic(rel)) == []
    took = time.perf_counter() - t0
    assert n == 100
    passline(
        5,
        "100 programs stay equality-safe after preparation, relevance and "
        "magic in %.1fs (tolerance: zero violations)" % took,
    )


def test_criterion_6_goal_focus_preserves_termination_budget():
    """The goal-driven pipeline never materializes more than 10x the fact
    budget (base plus derived) of the same pipeline without the magic
    rewriting, across the named fixtures and 10 generated scenarios."""
    t0 = time.perf_counter()

    def budget(sc, mode):
        rep = run_pipeline(sc, PipelineConfig(mode=mode))
        return len(list(sc.instance)) + rep.chase_stats.derived_facts

    fixtures = [
        ("chain-3", running_example(3)),
        ("chain-100", running_example(100)),
        ("chain-1000", running_example(1000)),
        ("campus", campus_fixture()),
    ]
    fixtures += [
        ("generated-%d" % i, d.scenario)
        for i, d in enumerate(scenario_stream(777, 10))
    ]
    worst = 0.0
    for name, sc in fixtures:
        ratio = budget(sc, "all") / budget(sc, "rel")
        worst = max(worst, ratio)
        assert ratio <= 10.0, (name, ratio)
    took = time.perf_counter() - t0
    passline(
        6,
        "14 fixtures, worst focused/unfocused fact budget ratio %.2f in %.1fs "
        "(tolerance: ratio at most 10)" % (worst, took),
    )


def test_criterion_7_chase_is_deterministic():
    """20 evaluation-order seeds produce the identical instance and term map
    on each of 20 generated scenarios.  Exact."""
    t0 = time.perf_counter()
    n = 0
    for sc in scenario_draws(99, 20):
        n += 1
        outcomes = set()
        for seed in range(20):
            rep = run_pipeline(sc, PipelineConfig(mode="mat", seed=seed))
            cr = rep.chase_result
            outcomes.add(
                (frozenset(cr.instance), tuple(sorted(cr.mu.items(), key=repr)))
            )
        assert len(outcomes) == 1, sc
    took = time.perf_counter() - t0
    assert n == 20
    passline(
        7,
        "20 scenarios x 20 seeds give identical <instance, term map> in %.1fs "
        "(tolerance: exact)" % took,
    )


def test_criterion_8_goal_focus_shrinks_materialization():
    """Direction check on the scale claims: full materialization derives at
    least 10x more facts than the goal-driven pipeline on the chain family
    and on the campus fixture with a constant-bearing query."""
    t0 = time.perf_counter()
    details = []
    for name, sc in (("chain-1000", running_example(1000)), ("campus", campus_fixture())):
        mat = run_pipeline(sc, PipelineConfig(mode="mat")).chase_stats.derived_facts
        all_ = run_pipeline(sc, PipelineConfig(mode="all")).chase_stats.derived_facts
        assert mat >= 10 * all_, (name, mat, all_)
        details.append("%s %d/%d=%.0fx" % (name, mat, all_, mat / all_))
    took = time.perf_counter() - t0
    passline(
        8,
        "materialized vs goal-driven derived facts: %s in %.1fs "
        "(tolerance: at least 10x reduction)" % (", ".join(details), took),
    )
