"""Singularization, Skolemization, equality axioms, equality safety."""

import pytest

from chasegoal import (
    Scenario,
    check_eq_safety,
    congruence_axioms,
    parse_program,
    parse_rules,
    reflexivity_axioms,
    singularize,
    skolemize,
    sym_trans,
)
from chasegoal.engine import ChaseError
from chasegoal.frontend import MalformedRule, UnboundFrontierVariable
from chasegoal.kernel import TGD, Atom, Constant, Functional, Instance, Predicate, Variable, eq

from helpers import (
    ORACLE_LIMITS,
    RUNNING_RULES,
    Q1,
    answers_of,
    canon_rules,
    null_chase,
    pipeline_answers,
    reference_fixpoint,
    scenario_stream,
)

# What singularization must do to the worked five-rule set: every repeated
# variable occurrence in a body becomes a fresh variable tied back with an
# explicit equality, and rules without repetition stay as they are.
SG_EXPECTED = """
A(?v2), ?v3 = ?v2, R(?v3,?v4), ?v3 = ?v1 -> Q(?v1)
B(?v1) -> T(?v1,?v2), A(?v2)
R(?v3,?v1), ?v3 = ?v4, S(?v4,?v5), ?v5 = ?v6, R(?v6,?v2) -> ?v1 = ?v2
S(?v1,?v3) -> R(?v1,?v2)
T(?v1,?v2) -> ?v1 = ?v2
"""

SK_EXPECTED = """
A(sk_3_y(?x)) :- B(?x).
Q(?s1) :- A(?s2), ?x = ?s2, R(?x,?y), ?x = ?s1.
R(?x,sk_1_y(?x)) :- S(?x,?z).
T(?x,sk_3_y(?x)) :- B(?x).
?x = ?y :- T(?x,?y).
?y = ?y2 :- R(?x,?y), ?x = ?s3, S(?s3,?x2), ?x2 = ?s4, R(?s4,?y2).
"""


def test_singularize_worked_example():
    got = singularize(parse_rules(RUNNING_RULES), Q1)
    assert canon_rules(got) == canon_rules(parse_rules(SG_EXPECTED))


def test_singularize_keeps_repetition_free_rules():
    rules = parse_rules("B(?x) -> T(?x,?y), A(?y)")
    assert canon_rules(singularize(rules, None)) == canon_rules(rules)


def test_singularize_splits_constants_too():
    got = singularize(parse_rules("P(?x), R(?x,'c') -> Q(?x)"), Q1)
    (rule,) = got
    rels = [a for a in rule.body if not a.is_equality]
    eqs = [a for a in rule.body if a.is_equality]
    # constants and repeats move out of atoms into explicit equalities:
    # one for the shared ?x, one for the constant, one tying the head
    assert all(all(isinstance(t, Variable) for t in a.args) for a in rels)
    assert all(isinstance(t, Variable) for a in rule.head for t in a.args)
    assert len(eqs) == 3


def test_query_rule_with_a_non_query_head_atom():
    # Only the Q argument is decoupled; T keeps the body variable, and the
    # merge a = b it enables reaches the answers in every mode.
    rules = parse_rules("B(?x) -> Q(?x), T(?x)\nT(?x), S(?x,?y) -> ?x = ?y\n")
    assert canon_rules(singularize(rules, Q1))[0] == "B(?v2), ?v2 = ?v1 -> Q(?v1), T(?v2)"
    B, S = Predicate("B", 1), Predicate("S", 2)
    a, b = Constant("a"), Constant("b")
    sc = Scenario(tuple(rules), Instance([Atom(B, (a,)), Atom(S, (a, b))]), Q1)
    assert null_chase(sc).answers == {("a",), ("b",)}
    for mode in ("mat", "rel", "magic", "all"):
        assert pipeline_answers(sc, mode) == {("a",), ("b",)}, mode


def test_skolemize_worked_example():
    sk = skolemize(singularize(parse_rules(RUNNING_RULES), Q1), Q1)
    assert canon_rules(sk) == canon_rules(parse_program(SK_EXPECTED))


def test_skolem_symbols_name_rule_and_variable():
    rules = parse_rules("S(?x,?z) -> R(?x,?y)\nB(?x) -> T(?x,?y), A(?y)")
    sk = skolemize(rules, None)
    symbols = {
        t.symbol
        for r in sk.rules
        for a in (r.head,)
        for t in a.args
        if isinstance(t, Functional)
    }
    assert symbols == {"sk_0_y", "sk_1_y"}


def test_skolem_term_carries_frontier_variables():
    (rule,) = parse_rules("S(?x,?z) -> R(?x,?y)")
    sk = skolemize([rule], None)
    (r,) = sk.rules
    fn = r.head.args[1]
    assert isinstance(fn, Functional)
    assert fn.args == (Variable("x"),)  # only variables shared with the head


def test_skolemize_and_singularize_check_each_rule_shape():
    # Called without a Scenario, both stages still reject an equality side
    # the body does not bind, instead of Skolemizing it.
    P, x, y = Predicate("P", 1), Variable("x"), Variable("y")
    unbound = TGD((Atom(P, (x,)),), (eq(x, y),))
    for stage in (skolemize, singularize):
        with pytest.raises(UnboundFrontierVariable, match=r"\?y does not occur in the body"):
            stage([unbound])
    with pytest.raises(MalformedRule, match="relational atom"):
        skolemize([TGD((eq(x, y),), (Atom(P, (x,)),))])


def test_skolemize_preserves_answers_against_null_chase():
    # The Skolem fixpoint and the fresh-null restricted chase are both
    # universal models, so certain answers over constants must agree.  This
    # is where the two references meet; a draw whose naive fixpoint exceeds
    # its guards (a Skolem term equated with its own argument nests without
    # end under congruence) is skipped and counted.
    checked = skipped = 0
    for drawn in scenario_stream(424242, 40):
        sc = drawn.scenario
        try:
            naive = reference_fixpoint(skolemize(sc.rules, sc.query), sc.instance, ORACLE_LIMITS)
        except ChaseError:
            skipped += 1
            continue
        assert answers_of(naive, sc.query) == drawn.answers, sc.rules
        checked += 1
    print("null chase against the naive fixpoint: %d draws agree, %d skipped" % (checked, skipped))
    assert checked + skipped == 40 and checked >= 30


# -- equality axioms ---------------------------------------------------------


def test_reflexivity_axioms_cover_base_predicates():
    p = skolemize(parse_rules("S(?x,?z) -> R(?x,?y)"), None)
    B = Predicate("B", 1)
    axs = reflexivity_axioms(p, [B])
    texts = {repr(r) for r in axs}
    assert "?x1 = ?x1 :- B(?x1)." in texts
    # one axiom per argument position of every predicate in sight
    assert len(axs) == 5


def test_congruence_axioms_one_position_at_a_time():
    p = skolemize(parse_rules("S(?x,?z) -> R(?x,?y)"), None)
    axs = congruence_axioms(p, [])
    texts = {repr(r) for r in axs}
    assert "R(?y,?x2) :- R(?x1,?x2), ?x1 = ?y." in texts
    assert "R(?x1,?y) :- R(?x1,?x2), ?x2 = ?y." in texts
    # never through function symbols: heads replace whole arguments only
    for r in axs:
        assert all(isinstance(t, Variable) for t in r.head.args)


def test_sym_trans_shapes():
    texts = {repr(r) for r in sym_trans()}
    assert texts == {
        "?x = ?y :- ?y = ?x.",
        "?x = ?z :- ?x = ?y, ?y = ?z.",
    }


# -- equality safety ---------------------------------------------------------


def test_eq_safety_holds_for_prepared_worked_example():
    sk = skolemize(singularize(parse_rules(RUNNING_RULES), Q1), Q1)
    assert check_eq_safety(sk) == []


def test_eq_safety_rejects_unanchored_equality():
    p = parse_program("Q(?x) :- P(?x), ?y = ?z.")
    assert check_eq_safety(p) != []


def test_eq_safety_rejects_function_term_side():
    p = parse_program("Q(?x) :- P(?x), ?x = f(?y).")
    assert check_eq_safety(p) != []


def test_eq_safety_rejects_non_variable_left_side():
    p = parse_program("Q(?x) :- P(?x), c = ?x.")
    assert [why for _, _, why in check_eq_safety(p)] == ["left side is not a variable"]


def test_eq_safety_accepts_ground_side():
    p = parse_program("Q(?x) :- P(?x), ?x = c.")
    assert check_eq_safety(p) == []


def test_eq_safety_accepts_variable_pair_sharing_relational_atom():
    p = parse_program("Q(?x) :- P(?x), R(?x,?y), ?x = ?y.")
    assert check_eq_safety(p) == []
