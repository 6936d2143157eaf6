"""Relevance pruning over the critical instance."""

import random
from dataclasses import replace

import pytest

from chasegoal import (
    AbstractionFixpointDiverged,
    Limits,
    PipelineConfig,
    Scenario,
    SortMismatch,
    abstract_functions_to_constants,
    critical_instance,
    driver,
    parse_program,
    parse_rules,
    relevance,
    run_pipeline,
    singularize,
    skolemize,
)
from chasegoal.frontend import rules_signature
from chasegoal.kernel import Atom, Constant, Functional, Instance, Predicate

from helpers import (
    RUNNING_RULES,
    Q1,
    canon_rules,
    random_scenario,
    running_example,
    scenario_stream,
    stale_merge_scenario,
)

B1, S2 = Predicate("B", 1), Predicate("S", 2)

REL_UNA_EXPECTED = """
A(sk_3_y(?x)) :- B(?x).
Q(?s1) :- A(?s2), ?s1 = ?s2, R(?s1,?y).
R(?x,sk_1_y(?x)) :- S(?x,?z).
T(?x,sk_3_y(?x)) :- B(?x).
?x = ?y :- T(?x,?y).
"""


def prepared_running_example():
    return skolemize(singularize(parse_rules(RUNNING_RULES), Q1), Q1)


def test_worked_example_under_una_keeps_five_rules():
    sk = prepared_running_example()
    rel = relevance(sk, running_example(3).instance, una_known=True)
    assert len(rel.rules) == 5
    assert canon_rules(rel) == canon_rules(parse_program(REL_UNA_EXPECTED))


def test_una_prunes_the_self_equality():
    # with distinct constants known distinct, the abstract run never merges
    # the query variable with itself through A, so one equality disappears
    sk = prepared_running_example()
    rel = relevance(sk, running_example(3).instance, una_known=True)
    (q_rule,) = [r for r in rel.rules if r.head.predicate == Q1]
    assert sum(1 for a in q_rule.body if a.is_equality) == 1


def test_without_una_both_equalities_stay():
    sk = prepared_running_example()
    rel = relevance(sk, running_example(3).instance, una_known=False)
    assert len(rel.rules) == 5
    (q_rule,) = [r for r in rel.rules if r.head.predicate == Q1]
    assert sum(1 for a in q_rule.body if a.is_equality) == 2


def test_unreachable_egd_dropped_either_way():
    # the chain EGD only ever equates a Skolem value with itself on the
    # abstract instance, so no query derivation can depend on it
    sk = prepared_running_example()
    for una in (True, False):
        rel = relevance(sk, running_example(3).instance, una_known=una)
        eq_rules = [r for r in rel.rules if r.head.is_equality]
        assert len(eq_rules) == 1  # only T(x,y) -> x = y survives


def test_una_trace_follows_the_egd_behind_a_trivial_equality():
    # Under UNA the abstract run equates the star with itself where the
    # real run merges a and b.  That c = c fact blocks no body equality, but
    # the trace follows it back to the EGD, so rel keeps the merge and
    # answers as mat does.  Without following it, rel answered b alone on
    # the two-rule input and differed on 31 of the dishonest draws below.
    R, P = Predicate("R", 2), Predicate("P", 1)
    a, b = Constant("a"), Constant("b")
    two_rules = Scenario(
        tuple(parse_rules("R(?x,?y) -> ?x = ?y\nP(?x) -> Q(?x)\n")),
        Instance([Atom(R, (a, b)), Atom(P, (b,))]),
        Q1,
        None,
        una_known=True,
    )
    dishonest = [
        replace(d.scenario, una_known=True)
        for seed, draw in ((1, random_scenario), (2, stale_merge_scenario))
        for d in scenario_stream(seed, 200, draw=draw)
        if d.merged
    ]
    assert len(dishonest) == 204
    for sc in [two_rules] + dishonest:
        mat = run_pipeline(sc, PipelineConfig(mode="mat")).answers
        assert run_pipeline(sc, PipelineConfig(mode="rel")).answers == mat, sc
    assert run_pipeline(two_rules, PipelineConfig(mode="rel")).answers == (("a",), ("b",))


def test_relevance_requires_query():
    sk = skolemize(parse_rules("S(?x,?z) -> R(?x,?y)"), None)
    with pytest.raises(ValueError):
        relevance(sk, [S2])


# -- critical instance ---------------------------------------------------


def test_critical_instance_star_tuples():
    sk = prepared_running_example()
    crit = critical_instance(sk, running_example(3).instance)
    star = Constant("*")
    assert set(crit) == {Atom(B1, (star,)), Atom(S2, (star, star))}


def test_critical_instance_includes_program_constants():
    sk = skolemize(parse_rules("B(?x), S(?x,'c') -> Q(?x)"), Q1)
    crit = critical_instance(sk, [B1, S2])
    names = {tuple(t.name for t in f.args) for f in crit.with_predicate(S2)}
    assert names == {("*", "*"), ("*", "c"), ("c", "*"), ("c", "c")}
    # a program constant named like the star renames the star
    sk = skolemize(parse_rules("B(?x), S(?x,'*') -> Q(?x)"), Q1)
    crit = critical_instance(sk, [B1, S2])
    names = {tuple(t.name for t in f.args) for f in crit.with_predicate(S2)}
    assert names == {("*", "*"), ("*", "*'"), ("*'", "*"), ("*'", "*'")}


def test_typed_critical_instance_uses_one_star_per_sort():
    sk = prepared_running_example()
    schema = {("B", 1): ("student",), ("S", 2): ("student", "dept")}
    crit = critical_instance(sk, [B1, S2], typed=True, schema=schema)
    (s_fact,) = crit.with_predicate(S2)
    assert [t.name for t in s_fact.args] == ["*student", "*dept"]
    # a predicate the schema omits gets the star of unknown sort
    crit = critical_instance(sk, [B1, S2], typed=True, schema={("B", 1): ("student",)})
    (b_fact,) = crit.with_predicate(B1)
    (s_fact,) = crit.with_predicate(S2)
    assert [t.name for t in b_fact.args] == ["*student"]
    assert [t.name for t in s_fact.args] == ["*", "*"]
    # typed without a schema is untyped
    crit = critical_instance(sk, [B1, S2], typed=True, schema=None)
    assert set(crit) == set(critical_instance(sk, [B1, S2]))
    assert {t.name for f in crit for t in f.args} == {"*"}


# -- divergence and function abstraction ----------------------------------


DIVERGING = """
S(?x,?z) -> R(?x,?y)
R(?x,?y) -> S(?y,?x)
R(?x,?y) -> Q(?x)
"""


def test_abstract_fixpoint_divergence_detected():
    sk = skolemize(parse_rules(DIVERGING), Q1)
    with pytest.raises(AbstractionFixpointDiverged):
        relevance(sk, [S2], fixpoint_limits=Limits(max_depth=4, max_facts=500))


def test_function_abstraction_restores_termination():
    sk = skolemize(parse_rules(DIVERGING), Q1)
    rel = relevance(
        sk,
        [S2],
        abstract_functions=True,
        fixpoint_limits=Limits(max_depth=4, max_facts=500),
    )
    # nothing is prunable in this loop, the point is that it terminates
    assert len(rel.rules) == 3


def test_abstract_functions_to_constants_shape():
    sk = skolemize(parse_rules("S(?x,?z) -> R(?x,?y)"), None)
    flat = abstract_functions_to_constants(sk)
    (rule,) = flat.rules
    assert not any(isinstance(t, Functional) for t in rule.head.args)
    abstracted = rule.head.args[1]
    assert isinstance(abstracted, Constant)


def test_abstract_functions_to_constants_skips_a_constant_name_the_program_holds():
    p = parse_program("Q(?x) :- P(?x,_fn_sk_0_y).\nR(sk_0_y(?x)) :- Q(?x).")
    kept, abstracted = abstract_functions_to_constants(p).rules
    assert kept == p.rules[0]
    assert abstracted.head.args == (Constant("_fn_sk_0_y'"),)


def test_relevance_output_answers_unchanged_on_worked_example():
    from chasegoal.engine import chase, extract_answers
    from chasegoal.finalize import defunctionalize, desingularize

    sk = prepared_running_example()
    rel = relevance(sk, running_example(3).instance, una_known=True)
    final = desingularize(defunctionalize(rel))
    result = chase(final, running_example(3).instance)
    answers = {tuple(c.name for c in t) for t in extract_answers(result, Q1)}
    assert answers == {("a1",)}


def abstracted_relevance(*args, **kwargs):
    """`relevance` with function symbols abstracted to constants from the
    first attempt on."""
    return relevance(*args, **dict(kwargs, abstract_functions=True))


def test_typed_relevance_agrees_with_the_oracle_or_the_scenario_is_rejected(monkeypatch):
    # Each draw gets a random schema over two sorts.  A draw where some
    # constant gets both is rejected; on every other draw, the typed
    # abstraction keeps the rules that derive answers, also when function
    # abstraction gives one constant several sorts.  Unchecked, 10 of these
    # draws get wrong answers; a critical instance that refuses a constant
    # of two sorts fails 76 of them under function abstraction.
    rng = random.Random(11)
    agreed = rejected = 0
    for drawn in scenario_stream(11, 300):
        sc = drawn.scenario
        schema = {
            (name, p.arity): tuple(rng.choice("st") for _ in range(p.arity))
            for name, p in sorted(rules_signature(sc.rules).items())
        }
        try:
            typed = Scenario(sc.rules, sc.instance, sc.query, schema, sc.una_known)
        except SortMismatch:
            rejected += 1
            continue
        agreed += 1
        for defun in (False, True):
            with monkeypatch.context() as m:
                if defun:
                    m.setattr(driver, "relevance", abstracted_relevance)
                for mode in ("rel", "all"):
                    rep = run_pipeline(typed, PipelineConfig(mode=mode))
                    assert set(rep.answers) == drawn.answers, (mode, defun, typed)
    assert agreed >= 50 and rejected >= 50, (agreed, rejected)
