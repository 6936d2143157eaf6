"""Equality-aware magic sets: goldens, demand semantics, equivalence."""

import random
import time

import pytest

from chasegoal import (
    NoAdmissibleOrdering,
    PipelineConfig,
    Scenario,
    load_scenario,
    magic,
    naive_fixpoint,
    parse_program,
    parse_rules,
    relevance,
    run_pipeline,
    singularize,
    skolemize,
)
from chasegoal.engine import (
    DepthLimitExceeded,
    FactLimitExceeded,
    Limits,
    constant_answers,
)
from chasegoal.driver import MODES
from chasegoal.kernel import (
    EQUALITY,
    Atom,
    Constant,
    Instance,
    MagicPredicate,
    Predicate,
    Program,
    Rule,
    Variable,
    eq,
)
from chasegoal.magicsets import _bound_positions, _subsumed_demand, adorn, reorder

from helpers import (
    ORACLE_LIMITS,
    RUNNING_RULES,
    Q1,
    answers_of,
    arity_probe_rules,
    campus_fixture,
    canon_rules,
    null_chase,
    pipeline_answers,
    reference_fixpoint,
    running_example,
    scenario_stream,
)

x, y, z = Variable("x"), Variable("y"), Variable("z")

MAGIC_EXPECTED = """
A(sk_3_y(?x)) :- m_A#f, B(?x).
Q(?s1) :- m_Q#f, A(?s2), ?s1 = ?s2, R(?s1,?y).
R(?x,sk_1_y(?x)) :- m_R#bf(?x), S(?x,?z).
T(?x,sk_3_y(?x)) :- m_T#bf(?x), B(?x).
T(?x,sk_3_y(?x)) :- m_T#fb(sk_3_y(?x)), B(?x).
?x = ?y :- m_eq#eqb(?x), T(?x,?y).
?x = ?y :- m_eq#eqb(?y), T(?x,?y).
m_A#f :- m_Q#f.
m_Q#f.
m_R#bf(?s1) :- m_Q#f, A(?s2), ?s1 = ?s2.
m_T#bf(?x) :- m_eq#eqb(?x).
m_T#fb(?y) :- m_eq#eqb(?y).
m_eq#eqb(?s2) :- m_Q#f, A(?s2).
"""


def magic_of_running_example():
    sk = skolemize(singularize(parse_rules(RUNNING_RULES), Q1), Q1)
    rel = relevance(sk, running_example(3).instance, una_known=True)
    return magic(rel)


def test_worked_example_magic_block():
    got = magic_of_running_example()
    assert len(got.rules) == 13
    assert canon_rules(got) == canon_rules(parse_program(MAGIC_EXPECTED))


def test_seed_rule_is_a_fact():
    got = magic_of_running_example()
    seeds = [r for r in got.rules if not r.body]
    assert len(seeds) == 1
    assert seeds[0].head.predicate == MagicPredicate(Q1, "f")


def test_equality_demands_are_one_sided():
    # only the collapsed eqb form may appear, never bf/fb/bb over equality
    got = magic_of_running_example()
    seen = set()
    for r in got.rules:
        for a in (r.head,) + r.body:
            if isinstance(a.predicate, MagicPredicate) and not isinstance(
                a.predicate.base, Predicate
            ):
                seen.add(a.predicate.adornment)
    assert seen == {"eqb"}


def test_zero_ary_query_seed():
    p = parse_program("Q :- P(?x).")
    p = type(p)(p.rules, Predicate("Q", 0))
    got = magic(p)
    seeds = [r for r in got.rules if not r.body]
    assert seeds[0].head.predicate == MagicPredicate(Predicate("Q", 0), "")


# -- demand the rewriting leaves out ----------------------------------------

SUBSUMED_DEMAND = """
m_R#bb(?s4,?y2) :- m_eq#eqb(?y2), R(?s3,?y), S(?s3,?s4).
m_R#fb(?y) :- %s.
"""


def test_subsumed_demand_rule_is_dropped():
    def subsumed(sibling_body):
        rules = parse_program(SUBSUMED_DEMAND % sibling_body).rules
        return {r.head.predicate for r in _subsumed_demand(rules)}

    # m_R#fb(?y) :- m_eq#eqb(?y) fires on every match of the bb rule and
    # demands R with only the second position bound: the bb rule goes.
    assert subsumed("m_eq#eqb(?y)") == {MagicPredicate(Predicate("R", 2), "bb")}
    # A freer sibling whose body does not map into the bb rule's keeps it,
    assert subsumed("m_eq#eqb(?y), U(?y)") == set()
    # and so does one whose body maps only with ?y sent elsewhere than ?y2.
    assert subsumed("R(?s,?y)") == set()


def test_demand_rule_with_repeated_head_variable_subsumes_nothing():
    # m_T#bbf(?x,?x) demands only T facts whose first two arguments agree,
    # so it covers no demand m_T#bbb(s,t,u) with s and t apart.
    prog = parse_program("m_T#bbb(?x,?y,?z) :- U(?x), U(?y), U(?z).\nm_T#bbf(?x,?x) :- U(?x).")
    assert _subsumed_demand(prog.rules) == set()


def test_magic_output_has_no_subsumed_demand(tmp_path):
    # Without relevance, three of the chain's demand rules on R are covered
    # by freer ones, and the rewriting drops them. No rule is then left to
    # derive m_R#fb or m_R#bb, so the copies of R's rule they guard are
    # never made: 22 rules instead of 27.
    got = magic(skolemize(singularize(parse_rules(RUNNING_RULES), Q1), Q1))
    assert len(got.rules) == 22
    assert _subsumed_demand(got.rules) == set()
    R = Predicate("R", 2)
    guards = {r.body[0].predicate for r in got.rules if r.head.predicate == R}
    assert guards == {MagicPredicate(R, "bf"), MagicPredicate(R, "ff")}
    # `magic` tests subsumption within each demand predicate's batch; the
    # whole output then holds no subsumed demand either.
    for sc in [ontology_fixture(tmp_path)] + [d.scenario for d in scenario_stream(4141, 100)]:
        for mode in ("magic", "all"):
            got = run_pipeline(sc, PipelineConfig(mode=mode)).stages["magic"]
            assert _subsumed_demand(got.rules) == set(), sc.rules


def demand_read_but_not_derived(program):
    heads = {r.head.predicate for r in program.rules}
    return {
        a.predicate for r in program.rules for a in r.body
        if isinstance(a.predicate, MagicPredicate) and a.predicate not in heads
    }


def ontology_fixture(root):
    """The benchmark's ontology workload (132 rules over 370 facts)."""
    import sys
    from pathlib import Path

    saved = list(sys.path)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
    try:
        from workloads import ontology
    finally:
        sys.path[:] = saved
    w = ontology(root, 1)
    return load_scenario(root / "rules.txt", root / "data", w.query, una_known=w.una)


def demanded_in_full_by_flags(program):
    """Bases whose all-free demand the program's flag rules derive from the
    seed.  A flag rule's head and body atoms are all nullary demand atoms,
    so such a demand holds in every run."""
    flags = [
        r for r in program.rules
        if isinstance(r.head.predicate, MagicPredicate) and not r.head.predicate.arity
        and all(isinstance(a.predicate, MagicPredicate) and not a.predicate.arity for a in r.body)
    ]
    full: set = set()
    grew = True
    while grew:
        grew = False
        for r in flags:
            if r.head.predicate not in full and all(a.predicate in full for a in r.body):
                full.add(r.head.predicate)
                grew = True
    return {p.base for p in full}


def demand_its_guard_covers(program):
    """Demand rules deriving demand on their guard's base that binds every
    position the guard binds, to the guard's own terms: demand that the
    guard, the rule's first body atom, already makes.  The one-sided
    equality demand eqb takes no part."""
    def bound_args(atom):
        return dict(zip(_bound_positions(atom.predicate.adornment), atom.args))

    return [
        r for r in program.rules
        if isinstance(r.head.predicate, MagicPredicate) and r.body
        and r.body[0].predicate.adornment != "eqb" and r.head.predicate.base == r.body[0].predicate.base
        and bound_args(r.body[0]).items() <= bound_args(r.head).items()
    ]


def test_every_demand_a_rule_reads_is_derived_by_a_rule(tmp_path):
    # Nor does any rule hold bound demand on a predicate that the output's
    # own flags demand in full, or derive demand that its guard covers.
    fixtures = [running_example(151), campus_fixture(), ontology_fixture(tmp_path)]
    for sc in fixtures + [d.scenario for d in scenario_stream(2323, 100)]:
        for mode in ("magic", "all"):
            got = run_pipeline(sc, PipelineConfig(mode=mode)).stages["magic"]
            assert demand_read_but_not_derived(got) == set(), sc.rules
            full = demanded_in_full_by_flags(got)
            assert [r for p in full for r in bound_demand_on(got, p)] == [], sc.rules
            assert demand_its_guard_covers(got) == [], sc.rules


def test_chain_magic_derived_facts():
    # The benchmark's chain (150 links): about four facts per link.
    rep = run_pipeline(running_example(151), PipelineConfig(mode="magic"))
    assert rep.answers == (("a1",),)
    assert rep.chase_stats.derived_facts == 613


# P is demanded in full through the flags m_Q#f -> m_G#f -> m_P#ff when G
# comes first in the query body, and bound (m_P#bf) at P(?x,?w) either way.
# With A first, m_G#f and so m_P#ff wait for a relational atom.
FULL_AND_BOUND_RULES = """\
%s -> Q(?x)
P(?y,?z) -> G(?y)
E(?x,?y) -> P(?x,?y)
E(?x,?z), P(?z,?y) -> P(?x,?y)
E(?x,?y), E(?x,?z) -> ?y = ?z
"""
FLAGS_FIRST = "G(?y), A(?x), P(?x,?w)"
RELATIONAL_FIRST = "A(?x), G(?y), P(?x,?w)"
# The call P(?x,?w) binds a position of P, whose all-free demand m_P#ff
# follows from m_G#f, the demand on the first atom of the %s rule.
FLAGGED_CALL = """
%s(?x) :- G(?y), A(?x), P(?x,?w).
G(?y) :- P(?y,?z).
P(?x,?y) :- E(?x,?y).
"""
# Its rewriting when %s is Q: P's rule is copied under full demand alone.
FLAGGED_CALL_MAGIC = """
m_Q#f.
Q(?x) :- m_Q#f, G(?y), A(?x), P(?x,?w).
m_G#f :- m_Q#f.
G(?y) :- m_G#f, P(?y,?z).
m_P#ff :- m_G#f.
P(?x,?y) :- m_P#ff, E(?x,?y).
"""


def full_and_bound_scenario(query_body):
    E, A = Predicate("E", 2), Predicate("A", 1)
    c = {n: Constant(n) for n in "abcdef"}
    base = Instance(
        [Atom(E, (c[s], c[t])) for s, t in ("ab", "ae", "bc", "cd", "ef")]
        + [Atom(A, (c[n],)) for n in "acdf"]
    )
    rules = parse_rules(FULL_AND_BOUND_RULES % query_body)
    return Scenario(tuple(rules), base, Q1, None, una_known=False)


def bound_demand_on(program, base):
    """Rules holding a demand on `base` that binds a position."""
    return [
        r for r in program.rules
        if any(isinstance(a.predicate, MagicPredicate) and a.predicate.base == base
               and "b" in a.predicate.adornment for a in (r.head,) + r.body)
    ]


def test_predicate_demanded_in_full_gets_no_bound_demand():
    P = Predicate("P", 2)
    sc = full_and_bound_scenario(FLAGS_FIRST)
    got = magic(skolemize(singularize(sc.rules, Q1), Q1))
    heads = {r.head.predicate for r in got.rules}
    assert MagicPredicate(P, "ff") in heads
    assert bound_demand_on(got, P) == []
    # The equality's one-sided demand is never all-free and stays.
    assert MagicPredicate(EQUALITY, "eqb") in heads
    # Neither the bound demand m_P#bf(?x) :- m_Q#f, G(?y), A(?x) nor the
    # copy of P's rule it would guard is generated: the all-free copy
    # answers the call.
    got = magic(Program(parse_program(FLAGGED_CALL % "Q").rules, Q1))
    assert canon_rules(got) == canon_rules(parse_program(FLAGGED_CALL_MAGIC))


def test_bound_demand_stays_when_the_full_flag_waits_on_a_fact():
    P = Predicate("P", 2)
    sc = full_and_bound_scenario(RELATIONAL_FIRST)
    got = magic(skolemize(singularize(sc.rules, Q1), Q1))
    assert MagicPredicate(P, "ff") in {r.head.predicate for r in got.rules}
    assert bound_demand_on(got, P)
    # A flag reached through a bound demand is not always true either: with
    # T demanded bound, m_G#f and m_P#ff wait on A, and P's call stays bound.
    got = magic(Program(parse_program("Q(?x) :- A(?x), T(?x)." + FLAGGED_CALL % "T").rules, Q1))
    assert MagicPredicate(P, "ff") in {r.head.predicate for r in got.rules}
    assert MagicPredicate(P, "bf") in {r.head.predicate for r in got.rules}


def arity_probe(n, query_body=""):
    """`arity_probe_rules(n, query_body)` over A(a), A(b), P(a,b,...,b) and
    B(c)."""
    A, P, B = Predicate("A", 1), Predicate("P", n), Predicate("B", 1)
    a, b = Constant("a"), Constant("b")
    base = Instance([Atom(A, (a,)), Atom(A, (b,)), Atom(P, (a,) + (b,) * (n - 1)), Atom(B, (Constant("c"),))])
    return Scenario(tuple(parse_rules(arity_probe_rules(n, query_body))), base, Q1, None)


def test_arity_probe_generates_no_bound_demand():
    # P is demanded in full, so magic explores P under its all-free
    # adornment alone: a seed, the query rule, one flag and a copy of each
    # of P's 16 rules, where exploring bound demand would reach all 2^16
    # adornments of P.
    P = Predicate("P", 16)
    sc = arity_probe(16)
    for mode in ("magic", "all"):
        rep = run_pipeline(sc, PipelineConfig(mode=mode))
        assert rep.answers == (("a",),)
        assert len(rep.stages["magic"].rules) == 19
        assert bound_demand_on(rep.stages["magic"], P) == []


def test_fact_waiting_probe_makes_no_demand_its_guard_covers():
    # Read as B(?z), P(...) -> Q(?x1), the query rule's demand on P waits on
    # a fact, so P is not demanded in full.  Every call on P in a copy of a
    # rule of P is then one its guard m_P#f...f already makes, so no bound
    # demand on P is made: a seed, the query rule, its demand on P and a
    # copy of each of P's n rules, where bound demand could reach each of
    # P's 2^n - 1 bound adornments.
    P = Predicate("P", 9)
    got = magic(skolemize(singularize(arity_probe(9, "B(?z), ").rules, Q1), Q1))
    assert len(got.rules) == 9 + 3
    assert bound_demand_on(got, P) == []
    assert demand_its_guard_covers(got) == []
    sc = arity_probe(16, "B(?z), ")
    for mode in ("magic", "all"):
        t0 = time.perf_counter()
        rep = run_pipeline(sc, PipelineConfig(mode=mode))
        assert time.perf_counter() - t0 < 1, mode
        assert rep.answers == (("a",),), mode
        assert len(rep.stages["magic"].rules) == 16 + 3
    for n in (4, 6):
        sc = arity_probe(n, "B(?z), ")
        expect = null_chase(sc).answers
        assert expect == {("a",)}
        for mode in ("magic", "all"):
            assert pipeline_answers(sc, mode) == expect, (n, mode)


# The call P(?s#1,?x) binds both positions, but its first argument is not
# the head's: no guard on P covers it, and m_P#bb stays.
SWAPPING_RULES = """\
A(?y), P(?y,?x) -> P(?x,?y)
B(?x), P(?x,?y) -> Q(?x)
"""
# An EGD's demand turn, m_eq#eqb, is never read as a guard on a call.
EGD_RULES = """\
A(?x), P(?x,?y), P(?x,?z) -> ?y = ?z
E(?x,?y) -> P(?x,?y)
B(?y), P(?x,?y) -> Q(?x)
"""
# Under m_eq#eqb(?x), the call ?x = c holds the guard's term, but it also
# demands the class of c: read as covered, it would lose that demand.
EGD_CONSTANT_RULES = """\
F(?x,?y), ?x = c -> ?x = ?y
H(?v) -> ?v = c
B(?x), C(?y), ?x = ?y -> Q(?x)
"""


@pytest.mark.parametrize(
    "rules, facts, kept, size, answers",
    [
        (SWAPPING_RULES, "A(a), P(a,b), B(a), B(b)", "m_P#bb(?s#1,?x) :- m_P#bb(?x,?y), ?y = ?s#1, A(?y).",
         7, {("a",), ("b",)}),
        (EGD_RULES, "A(a), E(a,b), E(a,c), E(e,c), B(b)",
         "m_P#bf(?s#2) :- m_eq#eqb(?y), A(?x), ?x = ?s#1, ?x = ?s#2, P(?s#1,?y).", 15, {("a",), ("e",)}),
        (EGD_CONSTANT_RULES, "B(a), C(b), F(a,b), H(a)", "m_eq#eqb(c) :- m_eq#eqb(?x).",
         12, {("a",), ("b",), ("c",)}),
    ],
    ids=["swapping", "egd", "egd-constant"],
)
def test_demand_the_guard_does_not_cover_stays(rules, facts, kept, size, answers):
    rules = tuple(parse_rules(rules))
    (fact_rule,) = parse_rules("Z(?x) -> " + facts)
    sc = Scenario(rules, Instance(fact_rule.head), Q1, None)
    got = magic(skolemize(singularize(rules, Q1), Q1))
    assert kept in map(repr, got.rules)
    assert len(got.rules) == size
    assert null_chase(sc).answers == answers
    for mode in MODES:
        assert pipeline_answers(sc, mode) == answers, mode


def test_a_nullary_relational_atom_keeps_its_flag_rule_from_full_demand():
    # m_B#f :- m_Q#f, A waits on the fact A, which no flag derives: B is
    # not demanded in full, so the bound demand m_B#b and its copy stay.
    # Read as a flag, A would leave 7 rules and no m_B#b.
    rules = parse_rules("C(?y) -> A\nD(?x,?y) -> B(?x)\nA, B(?x) -> Q(?x)\nE(?x,?y), B(?y) -> Q(?x)\n")
    got = magic(skolemize(singularize(rules, Q1), Q1))
    assert len(got.rules) == 9
    assert MagicPredicate(Predicate("B", 1), "b") in {r.head.predicate for r in got.rules}


@pytest.mark.parametrize("query_body", [FLAGS_FIRST, RELATIONAL_FIRST])
def test_full_and_bound_demand_answers_match_the_oracle(query_body):
    sc = full_and_bound_scenario(query_body)
    expect = null_chase(sc).answers
    assert expect == {("a",), ("c",), ("f",)}
    for mode in MODES:
        assert pipeline_answers(sc, mode) == expect, mode


def test_equality_is_demanded_only_when_some_rule_derives_one():
    eqb = MagicPredicate(eq(x, y).predicate, "eqb")
    prog = parse_program("Q(?x) :- A(?x), ?x = ?y, B(?y).\nA(?x) :- C(?x).")
    prog = type(prog)(prog.rules, Predicate("Q", 1))
    assert all(r.head.predicate != eqb for r in magic(prog).rules)
    # campus has no equality head: magic derives no eqb demand and no more
    # facts than relevance plus magic.
    sc = campus_fixture()
    rep = run_pipeline(sc, PipelineConfig(mode="magic"))
    assert not rep.chase_result.instance.with_predicate(eqb)
    all_facts = run_pipeline(sc, PipelineConfig(mode="all")).chase_stats.derived_facts
    assert rep.chase_stats.derived_facts <= all_facts


# -- adorn / reorder -------------------------------------------------------


def test_adorn_marks_positions():
    R = Predicate("R", 2)
    assert adorn(Atom(R, (x, y)), {x}) == "bf"
    assert adorn(Atom(R, (x, y)), {x, y}) == "bb"
    assert adorn(Atom(R, (x, y)), set()) == "ff"


def test_reorder_flushes_equalities_when_bound():
    P, R = Predicate("P", 1), Predicate("R", 2)
    body = (eq(x, y), Atom(P, (x,)), Atom(R, (y, z)))
    got = reorder(body, ())
    # the equality waits until P binds x, then comes before R
    assert got == (Atom(P, (x,)), eq(x, y), Atom(R, (y, z)))


def test_reorder_keeps_relational_order():
    P, R = Predicate("P", 1), Predicate("R", 2)
    body = (Atom(R, (y, z)), Atom(P, (x,)))
    assert reorder(body, ()) == body


def test_reorder_rejects_unanchored_equality():
    P = Predicate("P", 1)
    with pytest.raises(NoAdmissibleOrdering):
        reorder((Atom(P, (x,)), eq(y, z)), ())


def test_magic_needs_a_query_predicate():
    with pytest.raises(ValueError, match="magic needs a program with a query predicate"):
        magic(parse_program("Q(?x) :- P(?x)."))


def test_magic_rejects_unsafe_equality_body():
    p = parse_program("Q(?x) :- P(?x), ?y = ?z.")
    p = type(p)(p.rules, Q1)
    with pytest.raises(NoAdmissibleOrdering):
        magic(p)


# -- the one-sided demand is not just an optimization ----------------------


def oriented_merge_scenario():
    """A fully bound body equality whose proof runs against the demand's
    textual orientation: E(c0,c1) needs c0 ~ c1, but the EGD can only fire
    on D(c1,c0), deriving the equality as c1 = c0."""
    rules = parse_rules(
        """
        E(?x,?x) -> Q(?x)
        D(?x,?y) -> ?x = ?y
        """
    )
    E, D = Predicate("E", 2), Predicate("D", 2)
    c0, c1 = Constant("c0"), Constant("c1")
    base = Instance([Atom(E, (c0, c1)), Atom(D, (c1, c0))])
    return Scenario(rules=tuple(rules), instance=base, query=Q1, una_known=False)


def test_oriented_merge_answers_survive_magic():
    sc = oriented_merge_scenario()
    expect = run_pipeline(sc, PipelineConfig(mode="mat")).answers
    assert expect == (("c0",), ("c1",))
    for mode in ("magic", "all"):
        assert run_pipeline(sc, PipelineConfig(mode=mode)).answers == expect


# -- equivalence against the axiomatized fixpoint ---------------------------


def test_magic_preserves_answers_with_congruence_on_both_sides():
    # the transformed program needs congruence over its own predicates,
    # including the magic ones, exactly like the chase provides
    checked = skipped = 0
    for drawn in scenario_stream(8080, 60):
        sc = drawn.scenario
        p = skolemize(singularize(sc.rules, sc.query), sc.query)
        m = magic(p)
        try:
            lhs = answers_of(reference_fixpoint(p, sc.instance, ORACLE_LIMITS), sc.query)
            rhs = answers_of(reference_fixpoint(m, sc.instance, ORACLE_LIMITS), sc.query)
        except (DepthLimitExceeded, FactLimitExceeded):
            skipped += 1  # either side may exceed the naive fixpoint's guards
            continue
        assert lhs == drawn.answers
        assert rhs == lhs, sc.rules
        checked += 1
    print("magic against the naive fixpoint: %d draws agree, %d skipped" % (checked, skipped))
    assert checked >= 40


def test_classic_magic_sets_equivalence_without_equality():
    # function-free Datalog, no EGDs: the textbook equivalence, no
    # congruence axioms anywhere
    rng = random.Random(31337)
    P = [Predicate("E", 2), Predicate("V", 1), Predicate("W", 1)]
    Q2 = Predicate("Q", 2)
    consts = [Constant(c) for c in "abcd"]
    for _ in range(40):
        rules = []
        T = Predicate("T", 2)
        rules.append(Rule(Atom(T, (x, y)), (Atom(P[0], (x, y)),)))
        if rng.random() < 0.7:
            rules.append(Rule(Atom(T, (x, z)), (Atom(P[0], (x, y)), Atom(T, (y, z)))))
        else:
            rules.append(Rule(Atom(T, (x, z)), (Atom(T, (x, y)), Atom(T, (y, z)))))
        if rng.random() < 0.5:
            rules.append(Rule(Atom(Q2, (x, y)), (Atom(T, (x, y)), Atom(P[1], (x,)))))
        else:
            rules.append(Rule(Atom(Q2, (x, y)), (Atom(P[1], (x,)), Atom(T, (x, y)))))
        prog = parse_program("")
        prog = type(prog)(tuple(rules), Q2)
        base = Instance(
            [
                Atom(P[0], (rng.choice(consts), rng.choice(consts)))
                for _ in range(rng.randrange(2, 7))
            ]
            + [Atom(P[1], (rng.choice(consts),)) for _ in range(rng.randrange(1, 3))]
        )
        plain = constant_answers(naive_fixpoint(prog, base), Q2)
        focused = constant_answers(naive_fixpoint(magic(prog), base), Q2)
        assert plain == focused


def test_magic_shrinks_evaluation_on_the_worked_family():
    sc = running_example(100)
    full = run_pipeline(sc, PipelineConfig(mode="rel")).chase_stats.derived_facts
    focused = run_pipeline(sc, PipelineConfig(mode="all")).chase_stats.derived_facts
    assert focused < full
