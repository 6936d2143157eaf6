"""Term model, orderings, substitutions, join plans and the indexed instance."""

import random

from hypothesis import given
from hypothesis import strategies as st

from chasegoal.kernel import (
    Atom,
    Constant,
    Functional,
    Instance,
    JoinPlan,
    Predicate,
    Variable,
    eq,
    is_ground,
    iter_subterms,
    map_shallow,
    occurs_in,
    substitute,
    term_depth,
    term_key,
    vars_of,
)

from helpers import enumerate_matches

a, b, d = Constant("a"), Constant("b"), Constant("d")
x, y = Variable("x"), Variable("y")
P1 = Predicate("P", 1)
R2 = Predicate("R", 2)


def f(*args):
    return Functional("f", args)


def g(*args):
    return Functional("g", args)


def h(*args):
    return Functional("h", args)


# -- substitution vs term map ------------------------------------------------


def test_substitute_descends_into_function_terms():
    atom = Atom(R2, (f(x), g(a)))
    assert substitute({x: b}, atom) == Atom(R2, (f(b), g(a)))


def test_substitute_leaves_unbound_variables():
    assert substitute({}, f(x)) == f(x)
    assert substitute({y: b}, Atom(P1, (x,))) == Atom(P1, (x,))


def test_map_shallow_replaces_whole_argument_terms_only():
    # a term map is not a substitution: it matches occurrences of the
    # whole key term that are not nested inside a function symbol
    atom = Atom(R2, (f(x), g(a)))
    assert map_shallow({a: b, g(a): h(d)}, atom) == Atom(R2, (f(x), h(d)))


def test_map_shallow_ignores_occurrences_under_function_symbols():
    assert map_shallow({a: b}, f(a)) == f(a)
    assert map_shallow({a: b}, Atom(P1, (f(a),))) == Atom(P1, (f(a),))
    assert map_shallow({a: b}, Atom(P1, (a,))) == Atom(P1, (b,))


def test_map_shallow_on_equality_atom():
    assert map_shallow({a: b}, eq(a, f(a))) == eq(b, f(a))


# -- term order ----------------------------------------------------------


def compare_terms(t1, t2):
    """Three-way comparison under `term_key`, the order representatives
    are picked by."""
    k1, k2 = term_key(t1), term_key(t2)
    return (k1 > k2) - (k1 < k2)


def test_constants_precede_function_terms():
    assert compare_terms(a, g(a)) < 0
    assert compare_terms(g(a), a) > 0


def test_function_terms_ordered_by_depth_then_symbol():
    assert compare_terms(f(a), g(a)) < 0
    assert compare_terms(g(a), f(g(a))) < 0  # depth wins over symbol
    assert compare_terms(f(a), f(b)) < 0


def test_compare_terms_equal_iff_identical():
    assert compare_terms(f(a, b), f(a, b)) == 0
    assert compare_terms(f(a, b), f(b, a)) != 0


terms_strategy = st.recursive(
    st.sampled_from([a, b, d]),
    lambda kids: st.builds(
        lambda sym, args: Functional(sym, tuple(args)),
        st.sampled_from(["f", "g"]),
        st.lists(kids, min_size=1, max_size=2),
    ),
    max_leaves=4,
)


@given(terms_strategy, terms_strategy)
def test_term_order_total_and_antisymmetric(t1, t2):
    c12, c21 = compare_terms(t1, t2), compare_terms(t2, t1)
    assert (c12 == 0) == (t1 == t2)
    assert (c12 < 0) == (c21 > 0)


@given(terms_strategy, terms_strategy, terms_strategy)
def test_term_order_transitive(t1, t2, t3):
    ts = sorted([t1, t2, t3], key=term_key)
    assert compare_terms(ts[0], ts[1]) <= 0
    assert compare_terms(ts[1], ts[2]) <= 0
    assert compare_terms(ts[0], ts[2]) <= 0


def test_term_order_well_founded_on_subterms():
    # every term is strictly above its proper subterms, so picking the
    # smallest member of a merged class can never loop
    t = f(g(a), b)
    for s in iter_subterms(t):
        if s != t:
            assert compare_terms(s, t) < 0


# -- matching -----------------------------------------------------------


def match_term(pattern, ground, out):
    """One-way structural match of a pattern term against a ground term,
    extending `out` in place: the reference the join plans are checked
    against."""
    if isinstance(pattern, Variable):
        bound = out.get(pattern)
        if bound is None:
            out[pattern] = ground
            return True
        return bound == ground
    if isinstance(pattern, Constant):
        return pattern == ground
    return (
        isinstance(ground, Functional)
        and pattern.symbol == ground.symbol
        and len(pattern.args) == len(ground.args)
        and all(match_term(p, g, out) for p, g in zip(pattern.args, ground.args))
    )


def match_atom(pattern, fact, sigma=None):
    if pattern.predicate != fact.predicate or len(pattern.args) != len(fact.args):
        return None
    out = dict(sigma) if sigma else {}
    for p, g in zip(pattern.args, fact.args):
        if not match_term(p, g, out):
            return None
    return out


def test_match_atom_repeated_variable():
    pat = Atom(R2, (x, x))
    assert match_atom(pat, Atom(R2, (a, a))) == {x: a}
    assert match_atom(pat, Atom(R2, (a, b))) is None


def test_match_atom_extends_given_bindings():
    pat = Atom(R2, (x, y))
    assert match_atom(pat, Atom(R2, (a, b)), {x: a}) == {x: a, y: b}
    assert match_atom(pat, Atom(R2, (a, b)), {x: b}) is None


def test_match_atom_against_function_term_argument():
    pat = Atom(P1, (x,))
    assert match_atom(pat, Atom(P1, (f(a),))) == {x: f(a)}


def brute_force_matches(body, facts, bindings=None):
    sigmas = [dict(bindings or {})]
    for atom in body:
        nxt = []
        for s in sigmas:
            for fact in facts:
                got = match_atom(atom, fact, s)
                if got is not None:
                    nxt.append(got)
        sigmas = nxt
    return sigmas


def test_enumerate_matches_agrees_with_brute_force():
    # Bodies mix function-term patterns, constants and repeated variables
    # over predicates up to arity 3, some with variables bound up front, so
    # every index key (bound variable, ground term, scan) and every position
    # operation (bind, check, constant, function term) meets brute force.
    rng = random.Random(7)
    preds = [Predicate("E", 2), Predicate("F", 1), Predicate("T", 3)]
    consts = [Constant(c) for c in "abcd"]
    ground = consts + [f(a), f(b), f(a, b), g(a, b), g(b, b)]
    vs = [Variable(n) for n in ("x", "y", "z")]

    def pattern():
        r = rng.random()
        if r < 0.6:
            return rng.choice(vs)
        if r < 0.75:
            return rng.choice(ground)
        if r < 0.9:
            return f(rng.choice(vs))
        return g(rng.choice(vs), rng.choice(vs + consts))

    def canon(sigma):
        return sorted(map(repr, sigma.items()))

    nonempty = 0
    for _ in range(300):
        facts = {
            Atom(p, tuple(rng.choice(ground) for _ in range(p.arity)))
            for p in preds
            for _ in range(rng.randrange(1, 12))
        }
        inst = Instance(facts)
        body = tuple(
            Atom(p, tuple(pattern() for _ in range(p.arity)))
            for p in (rng.choice(preds) for _ in range(rng.randrange(1, 4)))
        )
        bindings = {v: rng.choice(ground) for v in rng.sample(vs, rng.randrange(0, 3))}
        got = sorted(map(canon, enumerate_matches(body, inst, bindings)))
        want = sorted(map(canon, brute_force_matches(body, facts, bindings)))
        assert got == want, (body, bindings)
        nonempty += bool(want)
    assert nonempty >= 40


def test_join_plan_keys_the_chain_egd_on_the_bound_variable():
    # ?y = ?y2 :- R(?s3,?y), S(?s3,?s4), R(?s4,?y2) pivoted on its last
    # atom: S is keyed on ?s4 (position 1) before R is keyed on ?s3.
    S2 = Predicate("S", 2)
    s3, s4, y2 = Variable("s3"), Variable("s4"), Variable("y2")
    plan = JoinPlan((Atom(R2, (s3, y)), Atom(S2, (s3, s4))), entry=Atom(R2, (s4, y2)))
    assert [step[:2] for step in plan.steps] == [(S2, 1), (R2, 0)]


# -- instance indexes -----------------------------------------------------


def test_instance_add_and_discard_round_trip():
    inst = Instance()
    fact = Atom(R2, (a, f(b)))
    assert inst.add(fact)
    assert not inst.add(fact)
    assert fact in inst
    assert inst.with_predicate(R2) == {fact}
    assert inst._by_pos[(R2, 0, a)] == {fact}
    assert inst.discard(fact)
    assert not inst.discard(fact)
    assert len(inst) == 0
    assert (R2, 0, a) not in inst._by_pos


def test_instance_discard_drops_emptied_index_entries():
    # the last fact holding `a` holds it twice, so its entry empties on the
    # first of the two removals
    inst = Instance()
    facts = [Atom(R2, (a, b)), Atom(P1, (a,)), Atom(R2, (a, f(a)))]
    for fact in facts:
        inst.add(fact)
    inst.containing(a)  # builds the term index
    for fact in facts:
        inst.discard(fact)
    assert inst._by_pos == {}
    assert inst._by_pred == {}
    assert inst._by_term == {}
    assert inst.predicates() == set()


def test_instance_containing_finds_nested_subterms():
    inst = Instance()
    nested = Atom(P1, (g(f(b)),))
    top = Atom(R2, (b, a))
    other = Atom(P1, (a,))
    for fact in (nested, top, other):
        inst.add(fact)
    assert inst.containing(b) == {nested, top}
    assert inst.containing(f(b)) == {nested}
    inst.discard(nested)
    assert inst.containing(f(b)) == set()
    assert inst.containing(b) == {top}


def test_occurs_in_and_iter_subterms():
    t = g(f(a), b)
    assert occurs_in(a, t)
    assert occurs_in(f(a), t)
    assert not occurs_in(d, t)
    assert set(iter_subterms(t)) == {t, f(a), a, b}


def test_is_ground_and_vars_of():
    assert is_ground(f(a, g(b)))
    assert not is_ground(f(a, x))
    assert vars_of(Atom(R2, (f(x), y))) == {x, y}


def test_term_depth():
    assert term_depth(a) == 0
    assert term_depth(f(a)) == 1
    assert term_depth(f(g(a), b)) == 2
