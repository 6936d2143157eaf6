"""Representative-based chase and the naive reference fixpoint."""

import gc
import random
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chasegoal import (
    BodyContractViolation,
    DepthLimitExceeded,
    FactLimitExceeded,
    Limits,
    PipelineConfig,
    Scenario,
    chase,
    extract_answers,
    naive_fixpoint,
    parse_program,
    parse_rules,
    run_pipeline,
)
from chasegoal import engine, kernel
from chasegoal.driver import MODES
from chasegoal.engine import constant_answers
from chasegoal.kernel import (
    DEPTH,
    EQUALITY,
    STRUCT,
    Atom,
    Constant,
    Functional,
    Instance,
    JoinPlan,
    MagicPredicate,
    Predicate,
    Program,
    Rule,
    Variable,
    eq,
    iter_subterms,
    row_of,
    substitute,
    vars_of,
)

from helpers import (
    Q1,
    brute_force_matches,
    campus_fixture,
    check_stale_merge_draws,
    derivation_log,
    digests_across_interpreters,
    holds_only_representatives,
    null_chase,
    running_example,
    scenario_draws,
    scenario_stream,
    stale_merge_scenario,
)
from test_magic import ontology_fixture

a, b, c = Constant("a"), Constant("b"), Constant("c")
x, y, z = Variable("x"), Variable("y"), Variable("z")
P1, T2 = Predicate("P", 1), Predicate("T", 2)


def nested_ids(t: int) -> "list[int]":
    """The ids of the terms below the function symbol of the term with id
    `t`, read from the term table."""
    nested = list(STRUCT[t][1:])
    for s in nested:
        nested += STRUCT[s][1:]
    return nested


def final_program(scenario, mode="all"):
    rep = run_pipeline(scenario, PipelineConfig(mode=mode))
    return rep.stages["desg"], rep


# -- the two contract examples ---------------------------------------------


def test_empty_program_is_identity():
    base = [Atom(P1, (a,))]
    result = chase(Program(()), base)
    assert set(result.instance) == set(base)
    assert result.mu == {}
    assert result.stats.derived_facts == 0


def test_single_egd_merges_to_smaller_representative():
    egd = Rule(eq(x, y), (Atom(T2, (x, y)),))
    result = chase(Program((egd,)), [Atom(T2, (a, b))])
    assert set(result.instance) == {Atom(T2, (a, a))}
    assert result.mu == {b: a}
    assert result.classes == {a: frozenset({a, b})}
    assert result.stats.merges == 1


# -- worked example trace ----------------------------------------------------


TRACE = [
    "m_Q#f",
    "m_A#f",
    "A(sk_3_y(a1))",
    "fun_sk_3_y#(a1,sk_3_y(a1))",
    "m_eq#eqb(sk_3_y(a1))",
    "m_R#bf(sk_3_y(a1))",
    "m_T#bf(sk_3_y(a1))",
    "m_T#fb(sk_3_y(a1))",
    "T(a1,sk_3_y(a1))",
    "a1 = sk_3_y(a1)",
    "R(a1,sk_1_y(a1))",
    "Q(a1)",
]


def test_worked_example_derivation_trace():
    prog, rep = final_program(running_example(3))
    with derivation_log() as derived:
        result = chase(prog, running_example(3).instance)
    assert [repr(e) for e in derived] == TRACE
    assert result.mu == {Functional("sk_3_y", (Constant("a1"),)): Constant("a1")}
    assert rep.chase_stats.derived_facts == 12


def test_the_derivation_log_holds_every_derived_fact():
    # `derivation_log` spies on the two places a chase derives a fact, a
    # relational batch's write and a union; a third would leave it short.
    drawn = list(scenario_draws(5, 50, draw=stale_merge_scenario))
    merges = 0
    for sc in [running_example(3)] + drawn:
        for mode in MODES:
            with derivation_log() as log:
                stats = run_pipeline(sc, PipelineConfig(mode=mode)).chase_stats
            assert len(log) == stats.derived_facts, (mode, sc.rules)
            merges += stats.merges
    assert merges > 0


# -- merging semantics -------------------------------------------------------


def test_merge_rewrites_top_level_occurrences():
    prog = Program((Rule(eq(x, y), (Atom(T2, (x, y)),)),))
    base = [Atom(T2, (a, b)), Atom(P1, (b,))]
    result = chase(prog, base)
    assert Atom(P1, (a,)) in result.instance
    assert Atom(P1, (b,)) not in result.instance


def test_merge_chooses_constant_over_function_term():
    # representative order: depth first, so constants always win
    f_b = Functional("f", (b,))
    prog = Program((Rule(eq(x, y), (Atom(T2, (x, y)),)),))
    result = chase(prog, [Atom(T2, (f_b, a))])
    assert result.mu == {f_b: a}


def nested_merge_scenario() -> Scenario:
    """U is derived over a Skolem term of b, then b is merged into a."""
    text = """
    R(?x) -> T(?x,?y)
    T(?x,?y) -> U(?y)
    U(?z) -> V(?z,?w)
    R(?x), R(?y) -> ?x = ?y
    R(?x) -> Q(?x)
    """
    R1 = Predicate("R", 1)
    return Scenario(
        rules=tuple(parse_rules(text)),
        instance=Instance([Atom(R1, (a,)), Atom(R1, (b,))]),
        query=Q1,
        una_known=False,
    )


def test_merged_away_term_never_survives_nested():
    # no surviving fact may mention b at any depth, whichever order the
    # rules fired in
    sc = nested_merge_scenario()
    for seed in range(8):
        rep = run_pipeline(sc, PipelineConfig(mode="mat", seed=seed))
        for fact in rep.chase_result.instance:
            assert not any(b in iter_subterms(t) for t in fact.args), (seed, fact)
        assert rep.answers == (("a",), ("b",))


def stale_representative_scenarios():
    """Inputs on which a merge leaves a class representative that mentions
    a merged-away constant below a Skolem symbol.  In the first, sk_z(a)
    is merged into sk_y(b) before b = a, and the fact S(a, sk_y(b)) can
    only be kept by handing that class to sk_z(a): its body fact P(a)
    never mentions b, so nothing re-derives it.  In the third, drawn from
    `stale_merge_scenario`, one equality batch can hand a class on to a
    member that a later merge of the same batch makes stale in turn."""
    L2, M2 = Predicate("L", 2), Predicate("M", 2)
    first = Scenario(
        rules=tuple(
            parse_rules(
                """
                P(?x) -> R(?x, ?y)
                P(?x) -> S(?x, ?z)
                R(?u, ?y), S(?v, ?z), L(?u, ?v) -> ?y = ?z
                M(?x, ?y) -> ?x = ?y
                S(?x, ?y) -> Q(?x)
                """
            )
        ),
        instance=Instance([Atom(P1, (a,)), Atom(P1, (b,)), Atom(L2, (b, a)), Atom(M2, (b, a))]),
        query=Q1,
        una_known=False,
    )
    second = Scenario(
        rules=tuple(
            parse_rules(
                """
                P(?x) -> E(?y, c), R(?x, ?y)
                P(?x) -> E(?x, a)
                E(?x, ?y) -> ?x = ?y
                E(?x, ?y) -> Q(?x)
                """
            )
        ),
        instance=Instance([Atom(P1, (b,))]),
        query=Q1,
        una_known=False,
    )
    s0, s1, s2 = Constant("s0"), Constant("s1"), Constant("s2")
    third = Scenario(
        rules=tuple(
            parse_rules(
                """
                P(?x) -> R0(?x, ?y)
                P(?x) -> R1(?x, ?y)
                P(?x) -> R2(?x, ?y)
                R1(?u, ?y), R2(?v, ?z), L(?u, ?v) -> ?y = ?z
                E(?x, ?y) -> ?x = ?y
                M(?x, ?y), R1(?x, ?z) -> ?x = ?y
                R1(?x, ?y), R2(?u, ?y) -> Q(?x)
                """
            )
        ),
        instance=Instance(
            [Atom(P1, (t,)) for t in (s0, s1, s2)]
            + [Atom(L2, pair) for pair in ((s1, s0), (s1, s2), (s2, s2))]
            + [Atom(M2, pair) for pair in ((Constant("c2"), Constant("c0")), (s0, s2), (s1, s0), (s1, s2))]
        ),
        query=Q1,
        una_known=False,
    )
    return first, second, third


CHASE_SEEDS = [None] + list(range(40))


def test_stale_representative_keeps_answers_in_every_mode():
    sc = stale_representative_scenarios()[0]
    assert null_chase(sc).answers == {("a",), ("b",)}
    for mode in ("mat", "rel", "magic", "all"):
        for seed in CHASE_SEEDS:
            rep = run_pipeline(sc, PipelineConfig(mode=mode, seed=seed))
            assert rep.answers == (("a",), ("b",)), (mode, seed)


def test_stale_representative_gives_one_instance_and_term_map_per_mode():
    for sc in stale_representative_scenarios():
        for mode in ("mat", "rel", "magic", "all"):
            outcomes = set()
            for seed in CHASE_SEEDS:
                cr = run_pipeline(sc, PipelineConfig(mode=mode, seed=seed)).chase_result
                outcomes.add((frozenset(cr.instance), frozenset(cr.mu.items())))
            assert len(outcomes) == 1, mode


def test_merges_see_a_relation_that_filled_after_an_earlier_merge():
    # Draw 154 of `stale_merge_scenario` from seed 21.  In `magic`, under
    # some chase seeds, a merge of sk_0_y(s0) into c0 must rewrite an E
    # fact although E held no fact at the chase's first merge: a lookup of
    # facts by term kept from that merge on missed it and left
    # E(sk_0_y(s0),c0) in the instance.
    sc = Scenario(
        rules=tuple(
            parse_rules(
                """
                P(?x) -> R0(?x, ?y)
                P(?x) -> R1(?x, ?y), E(?y, c0)
                P(?x) -> R2(?x, ?y), E(?y, c0)
                R2(?u, ?y), R0(?v, ?z), L(?u, ?v) -> ?y = ?z
                R2(?u, ?y), R1(?v, ?z), L(?u, ?v) -> ?y = ?z
                E(?x, ?y) -> ?x = ?y
                M(?x, ?y) -> ?x = ?y
                R0(?y, ?x) -> Q(?x)
                """
            )
        ),
        instance=Instance(
            [Atom(P1, (Constant(s),)) for s in ("s0", "s1")]
            + [Atom(Predicate(p, 2), (Constant(s), Constant(t)))
               for p, s, t in (("L", "s1", "s1"), ("M", "s1", "s0"), ("M", "s1", "s1"), ("N", "s1", "c0"))]
        ),
        query=Q1,
        una_known=False,
    )
    assert null_chase(sc).answers == {("c0",)}
    for mode in ("mat", "rel", "magic", "all"):
        outcomes = set()
        for seed in CHASE_SEEDS:
            rep = run_pipeline(sc, PipelineConfig(mode=mode, seed=seed))
            assert rep.answers == (("c0",),) and holds_only_representatives(rep.chase_result), (mode, seed)
            outcomes.add((frozenset(rep.chase_result.instance), frozenset(rep.chase_result.mu.items())))
        assert len(outcomes) == 1, mode


def test_stale_merge_template_agrees_with_oracle_and_across_seeds():
    # Skolem terms equated with each other or with constants, then
    # constants merged: every mode answers as the null chase, and
    # each mode's final program chases to one instance and term map for
    # every evaluation order.  tests/merge_differential.py runs the same
    # check on more seeds.
    assert check_stale_merge_draws(1, 200) >= 80


def test_a_round_holds_only_facts_of_the_instance(monkeypatch):
    # After every batch a round applies, its delta and the previous round's
    # delta its joins enter at hold only facts of the instance: a merge
    # takes the facts it rewrites away out of both.  After every equality
    # batch, a class whose representative mentions a merged-away term has
    # no member that mentions none: the batch handed each such class on.
    fire = engine._ChaseState.fire
    batches = stale = 0

    def checked(state, pred, matches):
        nonlocal batches, stale
        fire(state, pred, matches)
        batches += 1
        for group in (state.delta, state.entries):
            assert all(row in state.instance.rows(p) for p, rows in group.items() for row in rows)
        if pred is not EQUALITY:
            return
        merged = state.uf.parent.keys()
        classes: dict = {}
        for t in list(merged):
            classes.setdefault(state.uf.find(t), []).append(t)
        for root, members in classes.items():
            if not merged.isdisjoint(nested_ids(root)):
                stale += 1
                assert all(not merged.isdisjoint(nested_ids(m)) for m in members), (root, members)

    monkeypatch.setattr(engine._ChaseState, "fire", checked)
    drawn = [d.scenario for d in scenario_stream(1, 40, draw=stale_merge_scenario)]
    for sc in [nested_merge_scenario()] + drawn:
        for mode in ("mat", "rel", "magic", "all"):
            for seed in (None, 0, 1):
                run_pipeline(sc, PipelineConfig(mode=mode, seed=seed))
    assert batches > 1000 and stale > 0


def test_base_equality_fact_is_rejected():
    # Bases hold relational facts only: the front end makes no others.
    facts = [Atom(P1, (b,)), Atom(T2, (c, b)), eq(a, b)]
    for base in (facts, Instance(facts)):
        with pytest.raises(BodyContractViolation, match="equality fact a = b in the base"):
            chase(Program(()), base)


def test_answers_read_through_the_term_map():
    # Q holds of a Skolem term that got merged with a constant: the
    # constants of the class are the answers
    prog, _ = final_program(running_example(3))
    result = chase(prog, running_example(3).instance)
    answers = {tuple(t.name for t in ans) for ans in extract_answers(result, Q1)}
    assert answers == {("a1",)}


def test_determinism_across_seeds_small():
    prog, _ = final_program(running_example(3))
    outcomes = set()
    for seed in range(10):
        r = chase(prog, running_example(3).instance, seed=seed)
        outcomes.add((frozenset(r.instance), tuple(sorted(r.mu.items(), key=repr))))
    assert len(outcomes) == 1


def test_goal_driven_modes_are_deterministic_across_seeds():
    for sc in scenario_draws(99, 20):
        for mode in ("magic", "all"):
            outcomes = set()
            for seed in range(10):
                cr = run_pipeline(sc, PipelineConfig(mode=mode, seed=seed)).chase_result
                outcomes.add((frozenset(cr.instance), tuple(sorted(cr.mu.items(), key=repr))))
            assert len(outcomes) == 1, (mode, sc)


def test_seeded_chase_statistics_repeat_across_interpreters():
    # A merge rewrites the facts holding a merged-away term in the order its
    # lookup hands them out, and a seeded chase then samples that order;
    # the lookup must not let object addresses or hash seeds decide it.
    digests = digests_across_interpreters((2,), 100, interpreters=2)
    assert digests[0] == digests[1]


def test_a_second_run_on_one_scenario_repeats_the_first(tmp_path):
    # The base's relations keep the indexes a run's joins build on them, so
    # a second run starts with indexes the first did not have.  Nothing a
    # run computes may depend on them: its statistics, the order of every
    # relation's rows and the term map's order repeat exactly.
    def outcome(sc, mode, seed):
        result = run_pipeline(sc, PipelineConfig(mode=mode, seed=seed)).chase_result
        rows = [(pred, list(stored)) for pred, stored in result.instance.relations()]
        return result.stats, rows, list(result.mu.items())

    for sc in (running_example(151), campus_fixture(), ontology_fixture(tmp_path)):
        for mode in MODES:
            for seed in (None, 3):
                assert outcome(sc, mode, seed) == outcome(sc, mode, seed), (mode, seed)


# -- semi-naive evaluation ----------------------------------------------------


def test_head_free_body_part_is_checked_once():
    # B(?y) shares no variable with the head: one B fact is witness enough,
    # and the k B facts must not multiply the k applications.
    A, B, H = Predicate("A", 1), Predicate("B", 1), Predicate("H", 1)
    rule = Rule(Atom(H, (x,)), (Atom(A, (x,)), Atom(B, (y,))))
    k = 30
    base = [Atom(A, (Constant("a%d" % i),)) for i in range(k)]
    base += [Atom(B, (Constant("b%d" % i),)) for i in range(k)]
    result = chase(Program((rule,)), base)
    assert result.stats.rule_applications == k
    assert len(result.instance.with_predicate(H)) == k


def test_head_free_body_part_without_witness_blocks_the_rule():
    A, B, H = Predicate("A", 1), Predicate("B", 2), Predicate("H", 1)
    rule = Rule(Atom(H, (x,)), (Atom(A, (x,)), Atom(B, (y, y))))
    base = [Atom(A, (a,)), Atom(B, (a, b))]
    result = chase(Program((rule,)), base)
    assert result.stats.rule_applications == 0
    # a witness derived later enables the rule in a later round
    grow = Rule(Atom(B, (y, y)), (Atom(B, (z, y)),))
    result = chase(Program((rule, grow)), base)
    assert Atom(H, (a,)) in result.instance


def test_rule_with_no_head_linked_atom_fires_once_per_chase():
    # Neither H(c) :- B(?y) nor the nullary demand rule has a body atom
    # sharing a variable with its head: each holds or not, and fires once
    # when it first holds, however many rounds follow.  Which round that is
    # depends on the rule order; the count does not.
    prog = parse_program(
        "B(?x) :- A(?x).\nC(?x) :- B(?x).\nD(?x) :- C(?x).\n"
        "H(c) :- B(?y).\nm_X#f :- m_Q#f.\nm_Q#f.\n"
    )
    base = [Atom(Predicate("A", 1), (Constant("a%d" % i),)) for i in range(3)]
    for seed in [None] + list(range(6)):
        result = chase(prog, base, seed=seed)
        assert result.stats.iterations == 4, seed
        # 3 B, 3 C and 3 D matches, one each for H and m_X
        assert result.stats.rule_applications == 3 * 3 + 2, seed


def test_a_second_chase_of_an_equal_program_compiles_nothing(monkeypatch):
    text = "B(?x) :- A(?x).\nH(?x) :- B(?x), C(?x,?y).\n?x = ?y :- C(?x,?y), C(?y,?x).\n"
    base = [Atom(Predicate("A", 1), (a,)), Atom(Predicate("C", 2), (a, b)), Atom(Predicate("C", 2), (b, a))]
    first = chase(parse_program(text), base)
    rules, plans = dict(engine._RULES), dict(JoinPlan._table)

    def refuse(*args):
        raise AssertionError("a kernel was built again")

    monkeypatch.setattr(JoinPlan, "__getattr__", refuse)
    monkeypatch.setattr(kernel, "_source", refuse)
    again = chase(parse_program(text), base)
    assert engine._RULES == rules and JoinPlan._table == plans
    assert again.instance.predicates() == first.instance.predicates()
    assert set(again.instance) == set(first.instance) and again.stats == first.stats


def test_head_free_components_wait_afresh_in_every_chase():
    # H(c) :- B(?y) waits for a B fact.  The compiled rule is shared by
    # every chase of the program, but the list of parts still waiting is
    # each chase's own: a chase without B facts never derives H(c), even
    # after one that did.
    prog = parse_program("B(?x) :- A(?x).\nH(c) :- B(?y), D(?z).\nD(?x) :- E(?x).\n")
    A, E, H = Predicate("A", 1), Predicate("E", 1), Predicate("H", 1)
    holds = [Atom(A, (a,)), Atom(E, (b,))]
    fails = [Atom(E, (b,))]
    for base, derived in [(holds, True), (fails, False), (holds, True), (fails, False)]:
        result = chase(prog, base)
        assert (Atom(H, (c,)) in result.instance) is derived
        assert result.stats.rule_applications == 1 + derived * 2


def test_rule_is_applied_once_per_match_of_facts_from_one_round():
    # The first round joins the rule once in full over the base E facts.
    # Copied from F, the same E facts all enter the second round's delta
    # instead, so a two-atom path is reachable from both pivots; either
    # way each path is applied only once.
    E, F, H = Predicate("E", 2), Predicate("F", 2), Predicate("H", 2)
    rule = Rule(Atom(H, (x, z)), (Atom(E, (x, y)), Atom(E, (y, z))))
    pairs = ((a, b), (b, c), (c, a), (a, a), (b, b))
    paths = brute_force_matches(rule.body, {Atom(E, pair) for pair in pairs})
    assert len(paths) == 9
    result = chase(Program((rule,)), [Atom(E, pair) for pair in pairs])
    assert result.stats.rule_applications == len(paths)
    copy = Rule(Atom(E, (x, y)), (Atom(F, (x, y)),))
    result = chase(Program((copy, rule)), [Atom(F, pair) for pair in pairs])
    assert result.stats.rule_applications == len(pairs) + len(paths)


def test_first_round_leaves_facts_of_the_same_round_to_the_next():
    # B facts derived in the first round are the second round's delta; the
    # first round's join of the B rule must not also see them.
    A, B, C = Predicate("A", 1), Predicate("B", 1), Predicate("C", 1)
    rules = (Rule(Atom(B, (x,)), (Atom(A, (x,)),)), Rule(Atom(C, (x,)), (Atom(B, (x,)),)))
    base = [Atom(A, (Constant("a%d" % i),)) for i in range(10)]
    base += [Atom(B, (Constant("b%d" % i),)) for i in range(5)]
    for seed in [None] + list(range(8)):
        result = chase(Program(rules), base, seed=seed)
        n_a, n_b = (len(result.instance.with_predicate(p)) for p in (A, B))
        assert (n_a, n_b) == (10, 15)
        assert result.stats.rule_applications == n_a + n_b, seed


def test_semi_naive_round_leaves_facts_of_the_same_round_to_the_next():
    # E(a,b) enters the second round's delta, where F(b,c) is derived by a
    # rule before H's; H(a,c)'s match holds both and must be applied once,
    # in the third round, whichever body atom comes first and whatever the
    # rule order.
    for body in ("E(?x,?y), F(?y,?z)", "F(?y,?z), E(?x,?y)"):
        prog = parse_program(
            "G(?y,?z) :- B(?y,?z).\nE(?x,?y) :- A(?x,?y).\n"
            "F(?y,?z) :- G(?y,?z).\nH(?x,?z) :- %s.\n" % body
        )
        base = [Atom(Predicate("A", 2), (a, b)), Atom(Predicate("B", 2), (b, c))]
        for seed in [None] + list(range(6)):
            result = chase(prog, base, seed=seed)
            assert result.stats.rule_applications == 4, (body, seed)
            assert Atom(Predicate("H", 2), (a, c)) in result.instance


def test_a_semi_naive_round_visits_only_the_rules_that_read_its_delta(monkeypatch):
    # The first round visits every rule; each later one, in program order,
    # only the rules with a body predicate in its delta.  H(c) waits for a
    # witness of C and one of W: it is visited in the round C(a) arrives,
    # and again in the round W(a) arrives, when it fires.
    prog = parse_program(
        "B(?x) :- A(?x).\nC(?x) :- B(?x).\nD(?x) :- E(?x).\n"
        "H(c) :- C(?y), W(?z).\nW(?x) :- C(?x).\n"
    )
    visits = []
    matches = engine._CompiledRule.matches

    def spy(rule, by_pred, *args):
        delta = None if by_pred is None else sorted(p.name for p in by_pred)
        visits.append((delta, repr(rule.rule.head)))
        return matches(rule, by_pred, *args)

    monkeypatch.setattr(engine._CompiledRule, "matches", spy)
    result = chase(prog, [Atom(Predicate("A", 1), (a,)), Atom(Predicate("E", 1), (b,))])
    first = [(None, head) for head in ("B(?x)", "C(?x)", "D(?x)", "H(c)", "W(?x)")]
    assert visits == first + [
        (["B", "D"], "C(?x)"),
        (["C"], "H(c)"),
        (["C"], "W(?x)"),
        (["W"], "H(c)"),
    ]
    assert result.stats.iterations == 5
    assert Atom(Predicate("H", 1), (c,)) in result.instance


def test_an_early_merge_in_an_equality_batch_makes_a_later_head_stale():
    # The batch's first head merges b into a, which drops T(f(b),c): f(b)
    # is stale, with no live member.  The second head was built from that
    # fact before the merge; it is skipped and not counted as applied.
    fb = Functional("f", (b,))
    facts = [Atom(T2, (b, a)), Atom(T2, (fb, c))]
    state = engine._ChaseState(Instance(facts), Limits())
    state.fire(EQUALITY, [(b.id, a.id), (fb.id, c.id)])
    assert (len(state.uf.parent), state.applications) == (1, 1)
    assert state.uf.as_map() == {b.id: a.id}
    assert set(state.instance) == {Atom(T2, (a, a))}
    # Without the earlier merge, the same head is applied.
    state = engine._ChaseState(Instance(facts), Limits())
    state.fire(EQUALITY, [(fb.id, c.id)])
    assert (len(state.uf.parent), state.applications) == (1, 1)
    assert state.uf.as_map() == {fb.id: c.id}


def test_an_equality_batch_enters_only_predicates_it_writes_facts_of():
    # Merging b into a rewrites T(b,a) to T(a,a), which enters the round's
    # delta.  U(f(b)) holds f(b), stale with no live member, so it is
    # dropped, to be re-derived in normalized form, and the delta gets no
    # U key, not even an empty one.
    U1 = Predicate("U", 1)
    fb = Functional("f", (b,))
    state = engine._ChaseState(Instance([Atom(T2, (b, a)), Atom(U1, (fb,))]), Limits())
    state.fire(EQUALITY, [(b.id, a.id)])
    assert state.delta == {T2: {(a.id, a.id): None}}
    assert set(state.instance) == {Atom(T2, (a, a))}


def test_an_equality_batch_rewrites_each_fact_once(monkeypatch):
    # An equality batch merges in the union-find first, then removes each
    # fact holding a term the batch merged away, at any depth, once, and
    # writes it once in its final form.  Round 2 merges 148 of the 149
    # Skolem terms in one batch.  Merged one head at a time, its 148 facts
    # were rewritten along chains of intermediate forms: 660 removals.
    removed = []
    remove = Instance.remove
    monkeypatch.setattr(
        Instance, "remove", lambda inst, pred, row: removed.append((pred, row)) or remove(inst, pred, row)
    )
    fire = engine._ChaseState.fire
    batches = []

    def traced(state, pred, matches):
        if pred is not EQUALITY:
            return fire(state, pred, matches)
        before = [(p, row) for p, rows in state.instance.relations() for row in rows]
        merged = set(state.uf.parent)
        removed.clear()
        fire(state, pred, matches)
        gone = set(state.uf.parent) - merged
        holding = [f for f in before if any(t in gone or not gone.isdisjoint(nested_ids(t)) for t in f[1])]
        batches.append((len(gone), len(removed), len(set(removed)), len(holding)))

    monkeypatch.setattr(engine._ChaseState, "fire", traced)
    rep = run_pipeline(running_example(150), PipelineConfig(mode="mat"))
    assert rep.chase_stats.merges == 149
    for gone, removes, distinct, holding in batches:
        assert removes == distinct == holding
    assert max(batches) == (148, 148, 148, 148)


def test_a_bodiless_rule_head_goes_through_fire(monkeypatch):
    # The heads of bodiless rules are applied as one-head batches, an
    # equality head by the same merge as any other; neither counts as a
    # rule application.
    calls = []
    fire = engine._ChaseState.fire
    monkeypatch.setattr(
        engine._ChaseState,
        "fire",
        lambda state, pred, matches: calls.append((pred, list(matches))) or fire(state, pred, matches),
    )
    result = chase(Program((Rule(Atom(P1, (b,)), ()), Rule(eq(a, b), ()))), [Atom(T2, (b, c))])
    assert calls[:2] == [(P1, [(b.id,)]), (EQUALITY, [(a.id, b.id)])]
    assert set(result.instance) == {Atom(P1, (a,)), Atom(T2, (a, c))}
    assert result.mu == {b: a}
    assert (result.stats.derived_facts, result.stats.merges, result.stats.rule_applications) == (2, 1, 0)


UF_TERMS = [Constant("uf%d" % i).id for i in range(6)] + [
    Functional("uf", (Constant("uf%d" % i),)).id for i in (1, 2)
] + [Functional("uf", (Functional("uf", (Constant("uf1"),)),)).id]
uf_ops = st.lists(
    st.tuples(
        st.sampled_from(["union", "reroot"]),
        st.integers(0, len(UF_TERMS) - 1),
        st.integers(0, len(UF_TERMS) - 1),
    ),
    max_size=20,
)


@given(uf_ops)
@example([("union", 6, 7), ("union", 0, 1)])
@example([("union", 6, 7), ("union", 1, 2), ("union", 0, 1)])
def test_union_find_roots_and_stale_classes_follow_unions_and_reroots(ops):
    # `roots` is exactly the set of roots of classes with more than one
    # term, whatever mix of unions and reroots built them.  After every
    # union, no root is stale while its class has a member that is not: the
    # union handed each class it made stale on.  A reroot by hand may leave
    # a stale root, which no union repairs, so that check runs only up to
    # the first reroot.  Random draws rarely make a class stale, so two
    # examples do: merging uf1 into uf0 makes the class of uf(uf1) and
    # uf(uf2) stale, and it is handed on to uf(uf2), unless uf2 was merged
    # away first.
    #
    # After every union and reroot, the set `stale` reads agrees with a
    # walk down each term, for every term of UF_TERMS and for the terms
    # built after a union: one over its loser and one over that and a term
    # of UF_TERMS, which enter the set from their arguments.
    uf = engine.UnionFind()
    rerooted = False
    late: list = []
    for op, i, j in ops:
        if op == "union":
            if uf.find(UF_TERMS[i]) != uf.find(UF_TERMS[j]):
                loser = uf.union(UF_TERMS[i], UF_TERMS[j])[1]
                over = Functional("uf_late%d" % len(kernel.TERMS), (kernel.TERMS[loser],))
                pair = Functional("uf_late%d" % len(kernel.TERMS), (kernel.TERMS[UF_TERMS[j]], over))
                late += [over.id, pair.id]
                assert uf.stale(over.id) and uf.stale(pair.id)
        else:
            root = uf.find(UF_TERMS[i])
            members = [t for t in uf.parent if uf.find(t) == root]
            if members:
                uf.reroot(root, members[j % len(members)])
                rerooted = True
        classes: dict = {}
        for t in list(uf.parent):
            classes.setdefault(uf.find(t), []).append(t)
        assert uf.roots == classes.keys()
        for t in UF_TERMS + late:
            assert uf.stale(t) == (not uf.parent.keys().isdisjoint(nested_ids(t))), t
        if not rerooted:
            for root, members in classes.items():
                assert not uf.stale(root) or all(map(uf.stale, members)), (root, members)


def test_a_head_that_may_hold_a_merged_away_term_is_written_normalized():
    # A variable of a head is bound to a term of a fact, a representative,
    # so only a ground head term or a Skolem term the kernel builds may have
    # been merged away; those heads are normalized before they are written.
    # First, the constant b is merged into a by the round's first rule,
    # before the second rule of the same round writes b in its head.
    # Second, the Skolem term f(a) is merged into a in round 2, and round 3
    # builds f(a) again in the head of S.
    A1, P2, R2, S1 = Predicate("A", 1), Predicate("P", 2), Predicate("R", 2), Predicate("S", 1)
    cases = [
        ("?x = b :- A(?x).\nP(?x,b) :- A(?x).", {Atom(A1, (a,)), Atom(P2, (a, a))}, {b: a}),
        (
            "R(?x,f(?x)) :- A(?x).\n?x = ?y :- R(?x,?y).\nS(f(?x)) :- R(?x,?y).",
            {Atom(A1, (a,)), Atom(R2, (a, a)), Atom(S1, (a,))},
            {Functional("f", (a,)): a},
        ),
    ]
    for text, facts, mu in cases:
        for seed in (None, 0, 1, 2):
            result = chase(parse_program(text), [Atom(A1, (a,))], seed=seed)
            assert (set(result.instance), result.mu) == (facts, mu), (text, seed)


def test_a_hand_on_leaves_the_terms_above_the_new_representative_live():
    # h(b) wins over k(a) by the term order; merging b away under a0 then
    # makes h(b) stale, and its class passes to k(a).  g(k(a)) holds the
    # new representative and no merged-away term: a staleness test that
    # only ever grows (every term above a loser) would call it stale.
    a_, b_, a0 = Constant("a"), Constant("b"), Constant("a0")
    hb, ka = Functional("h", (b_,)).id, Functional("k", (a_,)).id
    gka = Functional("g", (Functional("k", (a_,)),)).id
    uf = engine.UnionFind()
    uf.union(hb, ka)
    uf.union(b_.id, a0.id)
    assert uf.find(hb) == ka and uf.stale(hb)
    assert not uf.stale(gka)


def test_demand_rules_are_chased_as_given():
    # The chase compiles every rule it is given: the bb demand rule fires
    # although the fb rule beside it fires on every one of its matches.
    # Leaving such a rule out is the magic rewriting's decision.
    R2, S2 = Predicate("R", 2), Predicate("S", 2)
    m_eq = MagicPredicate(eq(a, a).predicate, "eqb")
    base = [Atom(m_eq, (c,)), Atom(R2, (a, b)), Atom(S2, (a, a))]
    bb, fb = MagicPredicate(R2, "bb"), MagicPredicate(R2, "fb")
    prog = parse_program(
        "m_R#bb(?s4,?y2) :- m_eq#eqb(?y2), R(?s3,?y), S(?s3,?s4).\n"
        "m_R#fb(?y) :- m_eq#eqb(?y)."
    )
    inst = chase(prog, base).instance
    assert set(inst.with_predicate(bb)) == {Atom(bb, (a, c))}
    assert set(inst.with_predicate(fb)) == {Atom(fb, (c,))}


def brute_force_closure(rules, base):
    facts = set(base)
    while True:
        new = {
            substitute(sigma, r.head)
            for r in rules
            for sigma in brute_force_matches(r.body, facts)
        } - facts
        if not new:
            return facts
        facts |= new


def test_semi_naive_loop_agrees_with_brute_force_closure():
    # The naive reference fixpoint of acceptance criterion 4 comes from
    # naive_fixpoint, which runs the same semi-naive loop as the chase; here
    # both meet a closure built from the brute-force matcher instead.  Bodies mix
    # constants, repeated variables, nullary atoms and parts disconnected
    # from each other and from the head.  Only U and E have base facts, so
    # a disconnected part over Z, V or F often holds only from a later round.
    # Each program also closes a binary predicate under a linear recursive
    # rule, its recursive atom first or second, so new facts keep joining
    # old ones over several rounds.
    rng = random.Random(11)
    preds = [Predicate("Z", 0), Predicate("U", 1), Predicate("V", 1), Predicate("E", 2), Predicate("F", 2)]
    consts = [a, b, c]
    vs = [x, y, z, Variable("w")]
    disconnected = chased = 0
    for _ in range(250):
        rules = []
        for _ in range(rng.randint(1, 4)):
            body = tuple(
                Atom(p, tuple(rng.choice(vs) if rng.random() < 0.85 else rng.choice(consts)
                              for _ in range(p.arity)))
                for p in (rng.choice(preds) for _ in range(rng.randint(0, 3)))
            )
            terms = sorted(vars_of(body), key=repr) + consts
            if rng.random() < 0.15:
                head = eq(rng.choice(terms), rng.choice(terms))
            else:
                hp = rng.choice(preds)
                head = Atom(hp, tuple(rng.choice(terms) for _ in range(hp.arity)))
            rules.append(Rule(head, body))
            disconnected += any(
                not vars_of(atom) & (vars_of(head) | vars_of(body[:i] + body[i + 1 :]))
                for i, atom in enumerate(body)
            ) and len(body) > 1
        closed, step = rng.choice(preds[3:]), rng.choice(preds[3:])
        linear = (Atom(closed, (y, z)), Atom(step, (x, y)))
        rules.append(Rule(Atom(closed, (x, y)), (Atom(step, (x, y)),)))
        rules.append(Rule(Atom(closed, (x, z)), linear if rng.random() < 0.5 else linear[::-1]))
        base = {
            Atom(p, tuple(rng.choice(consts) for _ in range(p.arity)))
            for p in (rng.choice(preds[1::2]) for _ in range(rng.randint(1, 8)))
        }
        want = brute_force_closure(rules, base)
        assert set(naive_fixpoint(rules, base)) == want, rules
        if all(not r.head.is_equality and all(isinstance(t, Variable) for at in r.body for t in at.args)
               for r in rules):
            chased += 1
            assert set(chase(Program(tuple(rules)), base).instance) == want, rules
    assert disconnected >= 100 and chased >= 50


# -- base intake ---------------------------------------------------------------


def _index_snapshot(instance):
    return (
        set(instance),
        {p: set(instance.with_predicate(p)) for p in instance.predicates()},
    )


def _indexes_agree_with_facts(instance):
    for rel in instance._rels.values():
        for pos, index in rel.index.items():
            want = {}
            for row in rel.facts:
                want.setdefault(row[pos], set()).add(row)
            if {t: set(rows) for t, rows in index.items()} != want:
                return False
    return True


def test_pipeline_leaves_the_loaded_instance_unchanged():
    # The chase shares the base's relations copy-on-write; its merges
    # rewrite clones, and the indexes its joins build on the shared
    # relations agree with the base's facts.
    sc = running_example(4)
    before = _index_snapshot(sc.instance)
    for mode in ("mat", "rel", "magic", "all"):
        rep = run_pipeline(sc, PipelineConfig(mode=mode))
        assert rep.chase_stats.merges >= 1
        assert _index_snapshot(sc.instance) == before, mode
        assert _indexes_agree_with_facts(sc.instance), mode
    assert sc.instance._rels and any(rel.index for rel in sc.instance._rels.values())


@pytest.mark.parametrize("as_instance", [False, True])
def test_base_guards_trip_for_list_and_instance_bases(as_instance):
    def run(facts, limits=Limits()):
        chase(Program(()), Instance(facts) if as_instance else facts, limits)

    with pytest.raises(BodyContractViolation):
        run([Atom(P1, (a,)), Atom(T2, (a, Functional("f", (x,))))])
    deep = Functional("f", (Functional("f", (a,)),))
    with pytest.raises(DepthLimitExceeded):
        run([Atom(P1, (deep,))], Limits(max_depth=1))
    run([Atom(P1, (deep,))], Limits(max_depth=2))
    with pytest.raises(FactLimitExceeded):
        run([Atom(P1, (t,)) for t in (a, b, c)], Limits(max_facts=2))
    run([Atom(P1, (t,)) for t in (a, b, c)], Limits(max_facts=3))


@pytest.mark.parametrize("as_instance", [False, True])
def test_a_base_term_deeper_than_the_limit_trips_with_its_fact(as_instance):
    # The base is read only when the term table holds a term deeper than
    # the limit; a base holding one still trips, naming a fact that holds
    # it, among shallow facts of the same and of other predicates.
    deep = a
    for _ in range(4):
        deep = Functional("f", (deep,))
    facts = [Atom(P1, (Constant("deep%d" % i),)) for i in range(20)]
    facts += [Atom(T2, (a, b)), Atom(P1, (deep,)), Atom(T2, (deep, a))]
    base = Instance(facts) if as_instance else facts
    assert kernel.deepest() >= 4
    with pytest.raises(DepthLimitExceeded, match=r"^term depth exceeds 3 in (P\(|T\()f\(f\(f\(f\(a\)\)\)\)"):
        chase(Program(()), base, Limits(max_depth=3))
    assert len(chase(Program(()), base, Limits(max_depth=4)).instance) == len(facts)


def test_stored_rows_are_not_tracked_by_the_collector():
    # A stored fact is an exact tuple of ints: after a collection the
    # cyclic collector no longer tracks any row of the base or of the
    # chase's instance, nor a one-row index bucket.
    sc = campus_fixture(students=300, depts=5, special=10)
    rep = run_pipeline(sc, PipelineConfig(mode="mat"))
    assert len(rep.answers) == 10 and rep.chase_stats.derived_facts > 600
    gc.collect()
    instances = (sc.instance, rep.chase_result.instance)
    rows = [row for inst in instances for _, stored in inst.relations() for row in stored]
    assert len(rows) == 2 * 300 + len(rep.chase_result.instance)
    assert not any(map(gc.is_tracked, rows))
    buckets = [
        bucket
        for inst in instances
        for rel in inst._rels.values()
        for index in rel.index.values()
        for bucket in index.values()
        if type(bucket) is tuple
    ]
    assert buckets and not any(map(gc.is_tracked, buckets))


def test_merges_find_facts_through_position_indexes_kept_up_to_date():
    # A merge finds the facts holding a merged-away term through the
    # position indexes of their relations.  No join of the running example
    # looks up R at position 1; the merges index it, and every index of the
    # chased instance still holds exactly its relation's rows.  After a
    # collection, no one-row bucket of it is tracked.
    rep = run_pipeline(running_example(150), PipelineConfig(mode="mat"))
    assert rep.chase_stats.merges == 149
    instance = rep.chase_result.instance
    assert set(instance._rels[Predicate("R", 2)].index) == {0, 1}
    assert _indexes_agree_with_facts(instance)
    gc.collect()
    buckets = [
        s for rel in instance._rels.values() for index in rel.index.values() for s in index.values()
        if type(s) is tuple
    ]
    assert buckets and not any(map(gc.is_tracked, buckets))


def test_a_chase_without_a_merge_builds_no_index_and_leaves_parents_alone():
    # Every body below is one atom, so no join looks a position up, and the
    # equality heads equate a term with itself: the chase builds no index
    # and does not extend PARENTS over the function terms it builds.  A
    # chase with a merge extends PARENTS over the whole term table and
    # indexes each position of the relations it reads.
    A, B = Predicate("A", 1), Predicate("B", 2)
    skolem = Functional("sk_no_merge", (x,))
    rules = (Rule(Atom(B, (x, skolem)), (Atom(A, (x,)),)), Rule(eq(x, x), (Atom(B, (x, y)),)))
    watermark = kernel._parented
    result = chase(Program(rules), Instance([Atom(A, (a,)), Atom(A, (b,))]))
    assert result.stats.merges == 0 and len(result.instance) == 4
    assert not any(rel.index for rel in result.instance._rels.values())
    assert kernel._parented == watermark < len(kernel.TERMS)
    merging = (rules[0], Rule(eq(x, y), (Atom(B, (x, y)),)))
    result = chase(Program(merging), Instance([Atom(A, (a,))]))
    assert result.stats.merges == 1 and set(result.instance) == {Atom(A, (a,)), Atom(B, (a, a))}
    assert kernel._parented == len(kernel.TERMS)
    assert kernel.PARENTS[a.id].count(Functional("sk_no_merge", (a,)).id) == 1
    assert set(result.instance._rels[B].index) == {0, 1}


def test_a_first_round_join_enters_where_the_round_has_added_nothing():
    # R is derived in full by the first rule of round one; the second rule
    # of that round joins it with B, which holds fewer facts than R does by
    # then.  Entered at B, the join would index R at position 0 and match
    # nothing, since every R fact is the round's own; entered at R, whose
    # old facts are none, it reads nothing.  Round two enters at R's delta
    # and finds B(?x) bound at every position, so no index is built at all.
    A, B, R, H = (Predicate(n, k) for n, k in (("A", 1), ("B", 1), ("R", 2), ("H", 1)))
    prog = parse_program("R(?x,?x) :- A(?x).\nH(?y) :- R(?x,?y), B(?x).\n")
    names = [Constant("e%d" % i) for i in range(6)]
    base = Instance([Atom(A, (n,)) for n in names] + [Atom(B, (n,)) for n in names[:2]])
    for seed in (None, 0, 1):
        result = chase(prog, base, seed=seed)
        assert result.instance.with_predicate(H) == {Atom(H, (n,)) for n in names[:2]}, seed
        assert result.stats.iterations == 3 and result.stats.derived_facts == 8, seed
        assert not any(rel.index for rel in result.instance._rels.values()), seed
        assert not any(rel.index for rel in base._rels.values()), seed
    # The campus query rule's first-round join enters at advisedBy, all of
    # it derived that round: the base's enrolled relation is indexed only
    # where the advisedBy rule probes it, at position 0.
    sc = campus_fixture()
    assert len(run_pipeline(sc, PipelineConfig(mode="mat")).answers) == 100
    assert set(sc.instance._rels[Predicate("enrolled", 2)].index) == {0}


# -- contract checks ---------------------------------------------------------


def test_rejects_equality_in_body():
    rule = Rule(Atom(P1, (x,)), (eq(x, y), Atom(T2, (x, y))))
    with pytest.raises(BodyContractViolation, match=re.escape("equality atom in body of %r" % (rule,))):
        chase(Program((rule,)), [])


def test_rejects_non_variable_body_argument():
    rule = Rule(Atom(P1, (x,)), (Atom(T2, (x, a)),))
    with pytest.raises(BodyContractViolation, match=re.escape("non-variable body argument a in %r" % (rule,))):
        chase(Program((rule,)), [])


def test_rejects_unbound_head_variable():
    for rule in (Rule(Atom(P1, (z,)), (Atom(T2, (x, y)),)), Rule(Atom(P1, (z,)), ())):
        with pytest.raises(BodyContractViolation, match=re.escape("unbound head variable in %r" % (rule,))):
            chase(Program((rule,)), [])


def test_the_chase_contract_is_checked_once_per_rule(monkeypatch):
    # The contract is checked where a rule is compiled, once per process;
    # a rule the naive fixpoint compiled first, which may break it, is
    # still rejected by the chase.
    checked = []
    breach = engine._breach
    monkeypatch.setattr(engine, "_breach", lambda rule: checked.append(rule) or breach(rule))
    prog = parse_program("Once_B(?x) :- Once_A(?x).\nOnce_C(?x) :- Once_B(?x), Once_D(?x,?y).\n")
    for _ in range(2):
        chase(prog, [Atom(Predicate("Once_A", 1), (a,))])
    assert checked == list(prog.rules)
    rule = Rule(Atom(P1, (x,)), (Atom(T2, (x, y)), eq(x, Functional("once", (y,)))))
    naive_fixpoint([rule], [])
    with pytest.raises(BodyContractViolation, match=re.escape("equality atom in body of %r" % (rule,))):
        chase(Program((rule,)), [])
    assert checked[-1] is rule


def test_rejects_non_ground_base_fact():
    with pytest.raises(BodyContractViolation):
        chase(Program(()), [Atom(P1, (x,))])


# -- guards -------------------------------------------------------------------


NESTING = """
P(?x) :- fun_f(?x,?y), P(?y).
fun_f(f(?x),?x) :- P(?x).
P(f(?x)) :- P(?x).
"""


def test_depth_guard_trips():
    prog = parse_program(NESTING)
    with pytest.raises(DepthLimitExceeded):
        chase(prog, [Atom(P1, (a,))], Limits(max_depth=4, max_facts=10_000))


def test_fact_guard_trips():
    prog = parse_program(NESTING)
    with pytest.raises(FactLimitExceeded):
        chase(prog, [Atom(P1, (a,))], Limits(max_depth=10_000, max_facts=30))


def per_fact_trip(batch, size_before, limits):
    """The trip of adding `batch` one fact at a time, each checked after it
    is added: its terms' depth, then the instance's size."""
    for i, fact in enumerate(batch):
        for t in fact.args:
            if DEPTH[t.id] > limits.max_depth:
                return DepthLimitExceeded, "term depth exceeds %d in %r" % (limits.max_depth, fact)
        if size_before + i + 1 > limits.max_facts:
            return FactLimitExceeded, "more than %d facts" % limits.max_facts
    return None


def test_a_batch_trips_where_adding_its_facts_one_by_one_would():
    shallow = [Atom(P1, (Constant("s%d" % i),)) for i in range(4)]
    deep = Atom(P1, (Functional("f", (Functional("f", (a,)),)),))
    for at in range(len(shallow) + 1):
        for batch in (shallow, shallow[:at] + [deep] + shallow[at:]):
            for max_facts in range(10, 10 + len(batch) + 1):
                limits = Limits(max_depth=1, max_facts=max_facts)
                try:
                    engine._guard(P1, [row_of(f) for f in batch], 10 + len(batch), limits)
                    tripped = None
                except (DepthLimitExceeded, FactLimitExceeded) as err:
                    tripped = type(err), str(err)
                assert tripped == per_fact_trip(batch, 10, limits), (at, batch, max_facts)


@pytest.mark.parametrize("fixpoint", ["chase", "naive"])
def test_guards_trip_in_the_middle_of_a_batch(fixpoint):
    # The first rule applies in one batch of six heads, of which only
    # B(f(f(a))) is too deep; the second in one batch of ten, whose fourth
    # head passes the limit of 13 facts.
    def run(text, base, limits):
        if fixpoint == "chase":
            chase(parse_program(text), base, limits)
        else:
            naive_fixpoint(parse_program(text), base, limits)

    A = Predicate("A", 1)
    base = [Atom(A, (Constant("c%d" % i),)) for i in range(5)] + [Atom(A, (Functional("f", (a,)),))]
    with pytest.raises(DepthLimitExceeded, match=re.escape("term depth exceeds 1 in B(f(f(a)))")):
        run("B(f(?x)) :- A(?x).", base, Limits(max_depth=1))
    base = [Atom(A, (Constant("c%d" % i),)) for i in range(10)]
    with pytest.raises(FactLimitExceeded, match="^more than 13 facts$"):
        run("B(?x) :- A(?x).", base, Limits(max_facts=13))


# -- naive fixpoint -----------------------------------------------------------


def test_naive_fixpoint_is_plain_closure():
    prog = parse_program("T(?x,?z) :- E(?x,?y), T(?y,?z).\nT(?x,?y) :- E(?x,?y).")
    E = Predicate("E", 2)
    base = [Atom(E, (a, b)), Atom(E, (b, c))]
    closed = naive_fixpoint(prog, base)
    T = Predicate("T", 2)
    assert Atom(T, (a, c)) in closed
    assert len(closed.with_predicate(T)) == 3


def test_naive_fixpoint_treats_equality_as_facts():
    # no representative merging: both variants stay in the closure
    prog = parse_program("P(?y) :- P(?x), ?x = ?y.\n?x = ?y :- T(?x,?y).")
    closed = naive_fixpoint(prog, [Atom(T2, (a, b)), Atom(P1, (a,))])
    assert eq(a, b) in closed
    assert Atom(P1, (a,)) in closed and Atom(P1, (b,)) in closed


def test_naive_fixpoint_allows_constants_and_functions_in_bodies():
    prog = parse_program("Q(?x) :- R(?x,c).\nR(?x,c) :- P(?x).")
    closed = naive_fixpoint(prog, [Atom(P1, (a,))])
    assert {t for t, in constant_answers(closed, Q1)} == {a}


def test_naive_fixpoint_rejects_unbound_head_variable():
    rule = Rule(Atom(P1, (z,)), (Atom(T2, (x, y)),))
    with pytest.raises(BodyContractViolation):
        naive_fixpoint([rule], [])


def test_naive_fixpoint_guards():
    prog = parse_program("P(f(?x)) :- P(?x).")
    with pytest.raises(DepthLimitExceeded):
        naive_fixpoint(prog, [Atom(P1, (a,))], Limits(max_depth=3, max_facts=1000))
