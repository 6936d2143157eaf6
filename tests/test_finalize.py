"""Defunctionalization of bodies and removal of body equalities."""

import pytest

from chasegoal import (
    NonVariableEqualityBody,
    defunctionalize,
    desingularize,
    magic,
    parse_program,
    parse_rules,
    relevance,
    singularize,
    skolemize,
)
from chasegoal.finalize import graph_predicate
from chasegoal.kernel import (
    Atom,
    Constant,
    Functional,
    Predicate,
    Variable,
    pred_label,
)

from helpers import RUNNING_RULES, Q1, canon_rules, running_example

DEFUN_EXPECTED = """
A(sk_3_y(?x)) :- m_A#f, B(?x).
Q(?s1) :- m_Q#f, A(?s2), ?s1 = ?s2, R(?s1,?y).
R(?x,sk_1_y(?x)) :- m_R#bf(?x), S(?x,?z).
T(?x,sk_3_y(?x)) :- fun_sk_3_y#(?x,?u1), m_T#fb(?u1), B(?x).
T(?x,sk_3_y(?x)) :- m_T#bf(?x), B(?x).
?x = ?y :- m_eq#eqb(?x), T(?x,?y).
?x = ?y :- m_eq#eqb(?y), T(?x,?y).
fun_sk_3_y#(?x,sk_3_y(?x)) :- fun_sk_3_y#(?x,?u1), m_T#fb(?u1), B(?x).
fun_sk_3_y#(?x,sk_3_y(?x)) :- m_A#f, B(?x).
fun_sk_3_y#(?x,sk_3_y(?x)) :- m_T#bf(?x), B(?x).
m_A#f :- m_Q#f.
m_Q#f.
m_R#bf(?s1) :- m_Q#f, A(?s2), ?s1 = ?s2.
m_T#bf(?x) :- m_eq#eqb(?x).
m_T#fb(?y) :- m_eq#eqb(?y).
m_eq#eqb(?s2) :- m_Q#f, A(?s2).
"""

DESG_EXPECTED = """
A(sk_3_y(?x)) :- m_A#f, B(?x).
Q(?s2) :- m_Q#f, A(?s2), R(?s2,?y).
R(?x,sk_1_y(?x)) :- m_R#bf(?x), S(?x,?z).
T(?x,sk_3_y(?x)) :- fun_sk_3_y#(?x,?u1), m_T#fb(?u1), B(?x).
T(?x,sk_3_y(?x)) :- m_T#bf(?x), B(?x).
?x = ?y :- m_eq#eqb(?x), T(?x,?y).
?x = ?y :- m_eq#eqb(?y), T(?x,?y).
fun_sk_3_y#(?x,sk_3_y(?x)) :- fun_sk_3_y#(?x,?u1), m_T#fb(?u1), B(?x).
fun_sk_3_y#(?x,sk_3_y(?x)) :- m_A#f, B(?x).
fun_sk_3_y#(?x,sk_3_y(?x)) :- m_T#bf(?x), B(?x).
m_A#f :- m_Q#f.
m_Q#f.
m_R#bf(?s2) :- m_Q#f, A(?s2).
m_T#bf(?x) :- m_eq#eqb(?x).
m_T#fb(?y) :- m_eq#eqb(?y).
m_eq#eqb(?s2) :- m_Q#f, A(?s2).
"""


def magic_of_running_example():
    sk = skolemize(singularize(parse_rules(RUNNING_RULES), Q1), Q1)
    rel = relevance(sk, running_example(3).instance, una_known=True)
    return magic(rel)


def test_worked_example_defunctionalized_block():
    got = defunctionalize(magic_of_running_example())
    assert len(got.rules) == 16
    assert canon_rules(got) == canon_rules(parse_program(DEFUN_EXPECTED))


def test_worked_example_final_block():
    got = desingularize(defunctionalize(magic_of_running_example()))
    assert len(got.rules) == 16
    assert canon_rules(got) == canon_rules(parse_program(DESG_EXPECTED))


def test_final_block_is_chase_ready():
    # all-variable bodies and no body equalities: the chase contract
    got = desingularize(defunctionalize(magic_of_running_example()))
    for r in got.rules:
        for a in r.body:
            assert not a.is_equality
            assert all(isinstance(t, Variable) for t in a.args)


def is_graph(atom) -> bool:
    label = pred_label(atom.predicate)
    return not atom.is_equality and label.startswith(("fun_", "con_")) and label.endswith("#")


def test_graph_predicate_names_constants_injectively():
    # A constant whose text is a bare name keeps it; every other character
    # is its code point in hex between apostrophes, which no bare character
    # is, so distinct texts get distinct names, each a name of the program
    # grammar and each marked with the '#' that no input name holds.
    texts = ["c", "a b", "a,b", "a#b", "a(b)", "a'", "é", "", "a'20'b", "a 20b", "_"]
    names = [graph_predicate(Constant(t)).name for t in texts]
    assert names[:8] == ["con_c#", "con_a'20'b#", "con_a'2c'b#", "con_a'23'b#", "con_a'28'b'29'#",
                         "con_a'27'#", "con_'e9'#", "con_#"]
    assert len(set(names)) == len(texts)
    for t, name in zip(texts, names):
        (fact,) = parse_program("%s(%r)." % (name, Constant(t))).rules
        assert fact.head.predicate is graph_predicate(Constant(t))


def test_defunctionalize_replaces_body_function_terms():
    p = parse_program("Q(?x) :- m_T#fb(sk_3_y(?x)), B(?x).")
    (rule,) = defunctionalize(p).rules
    graph = [a for a in rule.body if is_graph(a)]
    assert len(graph) == 1
    assert graph[0].predicate == Predicate("fun_sk_3_y#", 2)  # args plus result
    # the graph atom comes right before the atom that held the term
    kinds = [type(a.predicate).__name__ for a in rule.body]
    assert rule.body.index(graph[0]) < kinds.index("MagicPredicate")
    magic_atom = [a for a in rule.body if type(a.predicate).__name__ == "MagicPredicate"]
    assert all(isinstance(t, Variable) for t in magic_atom[0].args)


def test_defunctionalize_replaces_body_constants():
    p = parse_program("Q(?x) :- R(?x,c).")
    (rule, con_fact) = sorted(defunctionalize(p).rules, key=lambda r: len(r.body), reverse=True)
    graph = [a for a in rule.body if is_graph(a)]
    assert graph and graph[0].predicate is Predicate("con_c#", 1)
    assert all(
        all(isinstance(t, Variable) for t in a.args) for a in rule.body
    )
    # and a single fact rule supplies the constant's graph entry
    assert con_fact.body == ()
    assert con_fact.head.args == (Constant("c"),)


def test_defunctionalize_skips_a_variable_name_the_rule_holds():
    # The rule holds ?z#1, so its constant gets ?z#2 and its function term
    # ?z#3.
    p = parse_program("Q(?x) :- P(?x,?z#1), S(a,f(?x)).")
    rule, fact = defunctionalize(p).rules
    assert repr(rule) == "Q(?x) :- P(?x,?z#1), con_a#(?z#2), fun_f#(?x,?z#3), S(?z#2,?z#3)."
    assert repr(fact) == "con_a#(a)."


def test_defunctionalize_companion_rules_only_for_body_symbols():
    # sk_1_y never occurs in any body, so R's head keeps its term and no
    # companion rule is generated for it
    got = defunctionalize(magic_of_running_example())
    companions = {pred_label(r.head.predicate) for r in got.rules if is_graph(r.head)}
    assert companions == {"fun_sk_3_y#"}


def test_defunctionalize_nested_terms_innermost_first():
    p = parse_program("Q(?x) :- P(g(f(?x))).")
    (rule,) = defunctionalize(p).rules
    graph = [a for a in rule.body if is_graph(a)]
    assert [a.predicate.name for a in graph] == ["fun_f#", "fun_g#"]
    # g's graph atom consumes the variable f's graph atom produced
    assert graph[0].args[-1] == graph[1].args[0]


def test_desingularize_folds_equalities():
    p = parse_program("Q(?x) :- A(?y), ?x = ?y, R(?x,?z).")
    (rule,) = desingularize(p).rules
    assert not any(a.is_equality for a in rule.body)
    # both occurrences now share one variable
    assert rule.head.args[0] == rule.body[0].args[0] == rule.body[1].args[0]


def test_desingularize_folds_ground_sides():
    p = parse_program("Q(?x) :- R(?x,?y), ?y = c.")
    (rule,) = desingularize(p).rules
    assert rule.body[0].args[1] == Constant("c")


def test_desingularize_drops_duplicate_atoms():
    p = parse_program("Q(?x) :- A(?x), A(?y), ?x = ?y.")
    (rule,) = desingularize(p).rules
    assert len(rule.body) == 1


def test_desingularize_rejects_non_variable_left_side():
    # not constructible through the grammar, only by a buggy transform
    from chasegoal.kernel import Program, Rule, eq

    x, y = Variable("x"), Variable("y")
    f = Functional("sk_1_y", (x,))
    rule = Rule(
        Atom(Q1, (x,)),
        (Atom(Predicate("R", 2), (x, y)), eq(f, Functional("sk_1_y", (y,)))),
    )
    with pytest.raises(NonVariableEqualityBody):
        desingularize(Program((rule,)))


def test_desingularize_keeps_equality_heads():
    p = parse_program("?x = ?y :- T(?x,?y).")
    (rule,) = desingularize(p).rules
    assert rule.head.is_equality
