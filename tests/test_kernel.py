"""Term model, hash-consing, orderings, substitutions, join plans and the
indexed instance."""

import copy
import linecache
import pickle
import random
import re
import traceback

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chasegoal import kernel
from chasegoal.kernel import (
    DEPTH,
    EQUALITY,
    KEY,
    Atom,
    BodyContractViolation,
    Constant,
    FunPredicate,
    Functional,
    Instance,
    JoinPlan,
    MagicPredicate,
    Predicate,
    Variable,
    ancestors,
    atom_of,
    containing,
    eq,
    is_ground,
    iter_subterms,
    row_of,
    substitute,
    vars_of,
)

from helpers import enumerate_matches

a, b, d = Constant("a"), Constant("b"), Constant("d")
x, y = Variable("x"), Variable("y")
P1 = Predicate("P", 1)
R2 = Predicate("R", 2)
T3 = Predicate("T", 3)


def f(*args):
    return Functional("f", args)


def g(*args):
    return Functional("g", args)


# -- substitution --------------------------------------------------------------


def test_substitute_descends_into_function_terms():
    atom = Atom(R2, (f(x), g(a)))
    assert substitute({x: b}, atom) == Atom(R2, (f(b), g(a)))


def test_substitute_leaves_unbound_variables():
    assert substitute({}, f(x)) == f(x)
    assert substitute({y: b}, Atom(P1, (x,))) == Atom(P1, (x,))


# -- term order ----------------------------------------------------------


def compare_terms(t1, t2):
    """Three-way comparison under the term table's keys (`KEY`), the order
    representatives are picked by."""
    k1, k2 = KEY[t1.id], KEY[t2.id]
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
    ts = sorted([t1, t2, t3], key=lambda t: KEY[t.id])
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


def brute_force_rows(body, facts, bindings=None):
    """Every match of `body` over `facts` extending `bindings`, as the
    substitution and the facts its atoms matched, in body order."""
    rows = [(dict(bindings or {}), ())]
    for atom in body:
        nxt = []
        for s, used in rows:
            for fact in facts:
                got = match_atom(atom, fact, s)
                if got is not None:
                    nxt.append((got, used + (fact,)))
        rows = nxt
    return rows


def brute_force_matches(body, facts, bindings=None):
    return [s for s, _ in brute_force_rows(body, facts, bindings)]


def test_enumerate_matches_agrees_with_brute_force():
    # Bodies mix function-term patterns, constants and repeated variables
    # over predicates up to arity 3, some with variables bound up front, so
    # every index key (bound variable, ground term, scan), every position
    # operation (bind, check, constant, function term) and atoms bound at
    # every position meet brute force.  Each body is also run through a
    # kernel that emits a head atom and keeps its atoms off a random `new`
    # set and its first `old` atoms off a random `fresh` set, each grouped
    # by predicate.
    rng, draw = random.Random(7), random.Random(8)
    H = Predicate("H", 3)
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

    nonempty = filtered = full = 0
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

        known = sorted(vars_of(body) | bindings.keys(), key=repr) or [b]
        head = Atom(H, tuple(draw.choice([draw.choice(known), f(draw.choice(known)), a]) for _ in range(3)))
        pool = sorted(facts, key=repr)
        new = set(draw.sample(pool, draw.randrange(len(pool) // 2 + 1)))
        fresh = set(draw.sample(pool, draw.randrange(len(pool) // 2 + 1)))
        old = draw.randrange(len(body) + 1)
        pivot = Predicate("bindings", len(bindings))
        plan = JoinPlan(body, entry=Atom(pivot, tuple(bindings)), old=old, emit=(head,))
        out = []
        new_by, fresh_by = ({p: {row_of(f) for f in s if f[0] is p} for p in preds} for s in (new, fresh))
        plan.run([row_of(Atom(pivot, tuple(bindings.values())))], inst, out, new_by, fresh_by)
        want = [
            substitute(sigma, head)
            for sigma, used in brute_force_rows(body, facts, bindings)
            if new.isdisjoint(used) and fresh.isdisjoint(used[:old])
        ]
        assert sorted(repr(atom_of(H, h)) for h in out) == sorted(map(repr, want)), (body, bindings, old)
        filtered += bool(want)
        full += any(step[3] for step in plan.steps)
    assert nonempty >= 40
    assert filtered >= 20 and full >= 40


def test_join_plan_keys_the_chain_egd_on_the_bound_variable():
    # ?y = ?y2 :- R(?s3,?y), S(?s3,?s4), R(?s4,?y2) pivoted on its last
    # atom: S is keyed on ?s4 (position 1) before R is keyed on ?s3.
    S2 = Predicate("S", 2)
    s3, s4, y2 = Variable("s3"), Variable("s4"), Variable("y2")
    plan = JoinPlan((Atom(R2, (s3, y)), Atom(S2, (s3, s4))), entry=Atom(R2, (s4, y2)))
    assert [step[:2] for step in plan.steps] == [(S2, 1), (R2, 0)]


# -- instance indexes -----------------------------------------------------


def index_view(inst, pred, pos):
    """`Instance.index_at` read back in terms and atoms: each term to the
    set of facts holding it at position `pos`."""
    return {
        kernel.TERMS[t]: {atom_of(pred, row) for row in rows}
        for t, rows in inst.index_at(pred, pos).items()
    }


def test_instance_add_and_discard_round_trip():
    inst = Instance()
    fact = Atom(R2, (a, f(b)))
    assert inst.add(fact)
    assert not inst.add(fact)
    assert fact in inst
    assert inst.with_predicate(R2) == {fact}
    assert index_view(inst, R2, 0) == {a: {fact}}  # the lookup the join uses
    assert inst.discard(fact)
    assert not inst.discard(fact)
    assert len(inst) == 0
    assert a.id not in inst.index_at(R2, 0)


def test_instance_discard_drops_emptied_index_entries():
    # the last fact holding `a` holds it twice, so its entry empties on the
    # first of the two removals
    inst = Instance()
    facts = [Atom(R2, (a, b)), Atom(P1, (a,)), Atom(R2, (a, f(a)))]
    for fact in facts:
        inst.add(fact)
    indexes = [inst.index_at(R2, 0), inst.index_at(R2, 1), inst.index_at(P1, 0)]
    for fact in facts:
        inst.discard(fact)
    assert indexes == [{}, {}, {}]
    assert inst.with_predicate(R2) == set()
    assert inst.predicates() == set()


def facts_holding(inst, t) -> set:
    """The facts holding `t` at any depth of an argument, by `containing`,
    which returns each once."""
    found = containing(inst, (t.id,))
    assert len(found) == len(set(found))
    return {atom_of(p, row) for p, row in found}


def terms_holding(t) -> set:
    """`t` and the terms of the term table that hold it at any depth, by
    `ancestors`; each of them is checked to hold it."""
    found = set(map(kernel.TERMS.__getitem__, ancestors(t.id)))
    assert all(t in iter_subterms(s) for s in found)
    return found


def test_instance_containing_finds_nested_subterms():
    inst = Instance()
    nested = Atom(P1, (g(f(b)),))
    top = Atom(R2, (b, a))
    other = Atom(P1, (a,))
    for fact in (nested, top, other):
        inst.add(fact)
    assert facts_holding(inst, b) == {nested, top}
    assert facts_holding(inst, f(b)) == {nested}
    inst.discard(nested)
    assert facts_holding(inst, f(b)) == set()
    assert facts_holding(inst, b) == {top}
    # Each lookup reads the relations as they are then: R empties, then
    # refills with a fact holding b below a function symbol.
    inst.discard(top)
    assert facts_holding(inst, b) == set()
    refill = Atom(R2, (g(f(b)), a))
    inst.add(refill)
    assert facts_holding(inst, b) == {refill}
    # The terms above b are found whether or not a fact holds them.
    assert {b, f(b), g(f(b))} <= terms_holding(b) and a not in terms_holding(b)
    assert {f(b), g(f(b))} <= terms_holding(f(b)) and b not in terms_holding(f(b))


def test_instance_indexes_a_position_only_when_it_is_looked_up():
    # R(?y,?x) is looked up at position 1.  R(?x,?y) is then bound at
    # every position: its one candidate is tested against the fact set,
    # and no index of position 0 is built for it.
    inst = Instance([Atom(R2, (a, b)), Atom(R2, (b, b)), Atom(R2, (d, b)), Atom(R2, (b, a))])
    Q2 = Predicate("Q", 2)
    plan = JoinPlan((Atom(R2, (y, x)), Atom(R2, (x, y))), entry=Atom(P1, (x,)), emit=(Atom(Q2, (x, y)),))
    assert [step[1:] for step in plan.steps] == [(1, 0, False), (0, 1, True)]
    out = []
    plan.run(((b.id,),), inst, out, {}, {})
    assert sorted(repr(atom_of(Q2, row)) for row in out) == ["Q(b,a)", "Q(b,b)"]
    assert {(pred, pos) for pred, rel in inst._rels.items() for pos in rel.index} == {(R2, 1)}


def test_kernel_frames_show_the_generated_line_and_the_rule():
    # A kernel's source is registered under a file name holding the
    # conjunction it joins, so a traceback through it reads its line.
    plan = JoinPlan((Atom(R2, (x, y)),), entry=Atom(P1, (x,)), emit=(Atom(P1, (y,)),))

    class Refuse(list):
        def append(self, match):
            raise RuntimeError("refused")

    with pytest.raises(RuntimeError) as info:
        plan.run(((a.id,),), Instance([Atom(R2, (a, b))]), Refuse(), {}, {})
    kernel = next(frame for frame in traceback.extract_tb(info.tb) if frame.filename.startswith("<kernel"))
    assert kernel.filename == "<kernel P(?y) :- P(?x), R(?x,?y)>"
    assert kernel.line.startswith("out.append(")
    assert linecache.getline(kernel.filename, kernel.lineno).strip() == kernel.line


def test_plans_that_differ_only_in_predicates_and_constants_share_a_shape():
    S2, T1 = Predicate("S", 2), Predicate("T", 1)

    def plan(p, q, c):
        return JoinPlan((Atom(p, (x, c)),), entry=Atom(q, (x,)), emit=(Atom(q, (f(x),)),))

    first = plan(R2, P1, a)
    first.run
    shapes = len(kernel._SHAPES)
    second = plan(S2, T1, b)
    assert second.steps == ((S2, 0, 0, True),)
    assert len(kernel._SHAPES) == shapes
    assert first is not second and first is plan(R2, P1, a)
    # Both bind the one code object compiled for their text, renamed to
    # their own file names, and register its one list of lines.
    lines = [linecache.cache[p.run.__code__.co_filename][2] for p in (first, second)]
    code, shared = kernel._SHAPES["".join(lines[0])]
    assert lines[0] is lines[1] is shared and "k1" in "".join(shared)
    assert first.run.__code__ == second.run.__code__ == code
    assert first.run.__code__.co_filename != second.run.__code__.co_filename
    assert first.run.__defaults__ == (R2, a.id, "f") and second.run.__defaults__ == (S2, b.id, "f")
    out = []
    second.run(((d.id,),), Instance([Atom(S2, (d, b)), Atom(S2, (d, a))]), out, {}, {})
    assert out == [(f(d).id,)]


def test_binding_kernels_interns_no_placeholder_names():
    # A kernel takes its plan's own objects as arguments, so binding one
    # enters no stand-in predicate, constant or variable in the tables.
    plans = [
        JoinPlan((Atom(R2, (x, f(y))), Atom(P1, (y,))), entry=Atom(P1, (x,)), emit=(Atom(R2, (g(x), a)),)),
        JoinPlan((Atom(R2, (x, b)), Atom(R2, (b, y))), entry=Atom(R2, (y, x)), old=1),
    ]
    for plan in plans:
        plan.run, plan.steps
    names = (
        [name for name in Constant._table]
        + [name for name, _ in Predicate._table]
        + [name for (name,) in Variable._table]
    )
    assert not [name for name in names if name.startswith("\0")]


def test_a_plan_too_deep_for_one_function_continues_in_another():
    # A 30-step chain nests more loops than one Python function may hold;
    # the kernel continues in functions of its own and still meets brute
    # force.  Ten nodes in a cycle, with a chord from n0 to n5.
    E = Predicate("E", 2)
    nodes = [Constant("n%d" % i) for i in range(10)]
    edges = {Atom(E, (nodes[i], nodes[(i + 1) % 10])) for i in range(10)} | {Atom(E, (nodes[0], nodes[5]))}
    path = [Variable("p%d" % i) for i in range(31)]
    body = tuple(Atom(E, (path[i], path[i + 1])) for i in range(30))
    for start in (nodes[0], nodes[3]):
        got = sorted(sorted(map(repr, s.items())) for s in enumerate_matches(body, Instance(edges), {path[0]: start}))
        want = sorted(sorted(map(repr, s.items())) for s in brute_force_matches(body, edges, {path[0]: start}))
        assert got == want and len(want) > 1
    plan = JoinPlan(body, entry=Atom(Predicate("bindings", 1), (path[0],)))
    assert "def join_1(" in "".join(linecache.getlines(plan.run.__code__.co_filename))


def test_copy_shares_relations_until_one_side_writes():
    base = Instance([Atom(R2, (a, b)), Atom(P1, (a,))])
    base.index_at(R2, 0)
    new = base.copy()
    assert new._rels[R2] is base._rels[R2] and new._rels[P1] is base._rels[P1]
    # adding a fact already there clones nothing
    assert not new.add(Atom(R2, (a, b)))
    assert new._rels[R2] is base._rels[R2]
    # the first write clones the one relation it touches, with its index
    assert new.add(Atom(R2, (b, a)))
    assert new._rels[R2] is not base._rels[R2] and new._rels[P1] is base._rels[P1]
    assert index_view(new, R2, 0) == {a: {Atom(R2, (a, b))}, b: {Atom(R2, (b, a))}}
    assert index_view(base, R2, 0) == {a: {Atom(R2, (a, b))}}
    # the original lost the right to write in place too
    assert base.discard(Atom(P1, (a,)))
    assert Atom(P1, (a,)) in new and len(new) == 3 and len(base) == 1


def test_snapshot_refuses_writes_and_copies_to_a_writable_instance():
    inst = Instance([Atom(P1, (a,))])
    snap = inst.snapshot()
    for write in (snap.add, snap.discard, lambda fact: snap.add_all(P1, [fact])):
        with pytest.raises(TypeError, match="read-only"):
            write(Atom(P1, (a,)))
    inst.add(Atom(P1, (b,)))
    assert set(snap) == {Atom(P1, (a,))}
    writable = snap.copy()
    assert writable.add(Atom(P1, (d,))) and type(writable) is Instance
    assert set(snap) == {Atom(P1, (a,))}


# The store against a plain set of facts on each side of a copy.  Facts are
# drawn over two predicates and a few terms, nested up to depth three.
store_terms = [a, b, f(a), g(f(a)), f(a, a), g(g(f(a)), b)]
store_facts = st.one_of(
    st.builds(lambda t: Atom(P1, (t,)), st.sampled_from(store_terms)),
    st.builds(lambda s, t: Atom(R2, (s, t)), st.sampled_from(store_terms), st.sampled_from(store_terms)),
    st.builds(lambda *args: Atom(T3, args), *[st.sampled_from(store_terms)] * 3),
)
store_ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["add", "discard"]), st.integers(0, 1), store_facts),
        st.tuples(st.just("add_all"), st.integers(0, 1), st.lists(store_facts, max_size=6)),
        st.tuples(st.just("copy"), st.integers(0, 1), st.integers(0, 1)),
        st.tuples(st.just("index"), st.integers(0, 1), st.sampled_from([(P1, 0), (R2, 0), (R2, 1), (T3, 2)])),
        st.tuples(st.just("lookup"), st.integers(0, 1), st.none()),
    ),
    max_size=30,
)


def check_store(inst, model, lookup=False):
    """Check an instance against the set of facts it should hold; with
    `lookup`, also check lookups of facts and terms by term against brute
    force."""
    assert set(inst) == model and len(inst) == len(model)
    for fact in model:
        assert fact in inst
    assert Atom(P1, (d,)) not in inst
    assert inst.predicates() == {fact.predicate for fact in model}
    for pred in (P1, R2, T3):
        assert inst.with_predicate(pred) == {fact for fact in model if fact.predicate is pred}
    # every index built so far, on any relation, holds exactly the rows of
    # the model, with no empty entry, and a bucket of one row is a 1-tuple
    for pred, rel in inst._rels.items():
        for pos, index in rel.index.items():
            want = {}
            for fact in model:
                if fact.predicate is pred:
                    want.setdefault(fact.args[pos].id, set()).add(row_of(fact))
            assert {t: set(s) for t, s in index.items()} == want
            assert all(type(s) is tuple for s in index.values() if len(s) == 1)
    if lookup:
        for t in store_terms + [d]:
            assert facts_holding(inst, t) == {
                fact for fact in model if any(t in iter_subterms(s) for s in fact.args)
            }
            assert terms_holding(t) >= {
                s for fact in model for arg in fact.args for s in iter_subterms(arg) if t in iter_subterms(s)
            }


@given(st.sets(store_facts, max_size=6), store_ops)
def test_store_agrees_with_a_set_on_both_sides_of_a_copy(start, ops):
    insts = [Instance(start)]
    insts.append(insts[0].copy())
    models = [set(start), set(start)]
    for op, i, arg in ops:
        if op == "add":
            assert insts[i].add(arg) == (arg not in models[i])
            models[i].add(arg)
        elif op == "discard":
            assert insts[i].discard(arg) == (arg in models[i])
            models[i].discard(arg)
        elif op == "add_all":
            # one predicate's batch of rows, with duplicates
            pred = arg[0].predicate if arg else P1
            batch = [fact for fact in arg if fact.predicate is pred]
            batch += batch[::2]
            want = list(dict.fromkeys(row_of(fact) for fact in batch if fact not in models[i]))
            before = insts[i]._rels.get(pred)
            assert list(insts[i].add_all(pred, map(row_of, batch))) == want
            if not want:  # a relation, shared or not, is cloned only to be written
                assert insts[i]._rels.get(pred) is before
            models[i].update(batch)
        elif op == "copy":
            insts[arg], models[arg] = insts[i].copy(), set(models[i])
        elif op == "index":
            insts[i].index_at(*arg)
        for j, (inst, model) in enumerate(zip(insts, models)):
            check_store(inst, model, lookup=op == "lookup" and j == i)


def ground_terms(depth):
    """Constants and function terms nested up to `depth`."""
    constants = st.builds(Constant, st.sampled_from(["a", "b", "f"]))
    if depth == 0:
        return constants
    return constants | st.builds(
        lambda sym, args: Functional(sym, tuple(args)),
        st.sampled_from(["f", "g"]),
        st.lists(ground_terms(depth - 1), max_size=2),
    )


round_trip_preds = [Predicate("N", 0), P1, R2, Predicate("T", 3), EQUALITY]
round_trip_terms = ground_terms(4)
ground_facts = st.builds(
    lambda p, args: Atom(p, tuple(args[: p.arity])),
    st.sampled_from(round_trip_preds),
    st.lists(round_trip_terms, min_size=3, max_size=3),
)


@given(st.lists(ground_facts, max_size=12), ground_facts)
def test_an_instance_gives_back_the_atoms_it_was_built_from(facts, extra):
    # Rows of ids in, the same atoms out: through iteration, `in`,
    # `with_predicate` and `containing`, on the instance, its copy and its
    # snapshot; a write on either side stays on that side.
    model = set(facts)
    inst = Instance(facts)

    def agrees(inst, model):
        assert set(inst) == model and len(list(inst)) == len(inst) == len(model)
        assert all(fact in inst for fact in model)
        for pred in round_trip_preds:
            assert inst.with_predicate(pred) == {f for f in model if f.predicate is pred}
        terms = {s for fact in model | {extra} for t in fact.args for s in iter_subterms(t)}
        for t in terms:
            assert facts_holding(inst, t) == {f for f in model if any(t in iter_subterms(s) for s in f.args)}

    agrees(inst, model)
    copied, snap = inst.copy(), inst.snapshot()
    assert all(copied._rels[p] is inst._rels[p] is snap._rels[p] for p in inst._rels)
    assert copied.add(extra) == (extra not in model)
    agrees(copied, model | {extra})
    agrees(inst, model)
    assert inst.discard(extra) == (extra in model)
    agrees(inst, model - {extra})
    agrees(snap, model)
    agrees(copied, model | {extra})
    with pytest.raises(TypeError, match="read-only"):
        snap.add(extra)


def test_an_instance_takes_ground_facts_only():
    with pytest.raises(BodyContractViolation, match=re.escape("non-ground fact R(a,f(?x))")):
        Instance([Atom(P1, (a,)), Atom(R2, (a, f(x)))])
    inst = Instance([Atom(P1, (a,))])
    assert Atom(P1, (x,)) not in inst and not inst.discard(Atom(P1, (x,)))


def test_iter_subterms_walks_every_nested_term():
    t = g(f(a), b)
    assert list(iter_subterms(t)) == [t, f(a), a, b]
    assert d not in iter_subterms(t)


def test_is_ground_and_vars_of():
    assert is_ground(f(a, g(b)))
    assert not is_ground(f(a, x))
    assert vars_of(Atom(R2, (f(x), y))) == {x, y}


def test_term_depth():
    assert DEPTH[a.id] == 0
    assert DEPTH[f(a).id] == 1
    assert DEPTH[f(g(a), b).id] == 2
    assert DEPTH[f().id] == 1


# -- hash-consing -------------------------------------------------------------

# The recursive definitions of a ground term's depth and order key.  The term
# table records both when the term is built; these are the reference they
# are checked against.


def reference_depth(t) -> int:
    if isinstance(t, Functional):
        return 1 + max((reference_depth(s) for s in t.args), default=0)
    return 0


def reference_key(t):
    if isinstance(t, Constant):
        return (0, t.name, ())
    return (reference_depth(t), t.symbol, tuple(reference_key(s) for s in t.args))


def structure(x):
    """A term, predicate or atom as nested plain tuples tagged with class
    names: equal structures are what equal values must mean."""
    if isinstance(x, Atom):
        return ("Atom", structure(x.predicate), tuple(map(structure, x.args)))
    if isinstance(x, (Variable, Constant)):
        return (type(x).__name__, x.name)
    if isinstance(x, Functional):
        return ("Functional", x.symbol, tuple(map(structure, x.args)))
    if isinstance(x, Predicate):
        return ("Predicate", x.name, x.arity)
    if isinstance(x, FunPredicate):
        return ("FunPredicate", x.symbol, x.arity, x.of_constant)
    if isinstance(x, MagicPredicate):
        return ("MagicPredicate", structure(x.base), x.adornment)
    assert x is EQUALITY
    return ("eq",)


names = st.sampled_from(["a", "b", "f", "P"])
open_terms = st.recursive(
    st.builds(Constant, names) | st.builds(Variable, names),
    lambda kids: st.builds(
        lambda sym, args: Functional(sym, tuple(args)),
        names,
        st.lists(kids, max_size=2),
    ),
    max_leaves=5,
)
plain_predicates = st.builds(Predicate, names, st.integers(0, 2))
predicates = st.one_of(
    plain_predicates,
    st.builds(FunPredicate, names, st.integers(0, 2), st.booleans()),
    st.builds(MagicPredicate, plain_predicates | st.just(EQUALITY), st.sampled_from(["b", "bf", "eqb"])),
    st.just(EQUALITY),
)
atoms = st.builds(lambda p, args: Atom(p, tuple(args)), predicates, st.lists(open_terms, max_size=2))


def rebuild(x):
    """An equal value built anew from its parts, through the constructors."""
    if isinstance(x, Atom):
        return Atom(rebuild(x.predicate), [rebuild(t) for t in x.args])
    if isinstance(x, (Variable, Constant)):
        return type(x)(x.name)
    if isinstance(x, Functional):
        return Functional(x.symbol, [rebuild(t) for t in x.args])
    if isinstance(x, Predicate):
        return Predicate(x.name, x.arity)
    if isinstance(x, FunPredicate):
        return FunPredicate(x.symbol, x.arity, x.of_constant)
    if isinstance(x, MagicPredicate):
        return MagicPredicate(rebuild(x.base), x.adornment)
    return type(x)()


@given(open_terms | predicates)
def test_equal_values_are_one_object(v):
    assert rebuild(v) is v


def test_function_predicate_default_is_not_a_constant_graph():
    assert FunPredicate("f", 1) is FunPredicate("f", 1, False)
    assert FunPredicate("f", 1) is not FunPredicate("f", 1, True)


@given(names)
def test_values_of_different_classes_never_compare_equal(n):
    values = [
        Variable(n),
        Constant(n),
        Functional(n, ()),
        Predicate(n, 1),
        FunPredicate(n, 1),
        FunPredicate(n, 1, True),
        MagicPredicate(Predicate(n, 1), "b"),
    ]
    for i, v in enumerate(values):
        for w in values[i + 1 :]:
            assert v != w and not v == w
    assert len(set(values)) == len(values)
    assert Atom(Predicate(n, 1), (Variable(n),)) != Atom(Predicate(n, 1), (Constant(n),))


@given(open_terms | predicates)
def test_copy_deepcopy_and_pickle_keep_identity(v):
    assert copy.copy(v) is v
    assert copy.deepcopy(v) is v
    assert pickle.loads(pickle.dumps(v)) is v


@given(atoms)
def test_atom_survives_copy_and_pickle(atom):
    for other in (copy.copy(atom), copy.deepcopy(atom), pickle.loads(pickle.dumps(atom))):
        assert type(other) is Atom
        assert other == atom and hash(other) == hash(atom)
        assert other.predicate is atom.predicate and other.args == atom.args


@given(atoms, atoms)
def test_atom_equality_and_hash_are_structural(a1, a2):
    assert (a1 == a2) == (structure(a1) == structure(a2))
    assert rebuild(a1) == a1 and hash(rebuild(a1)) == hash(a1)
    if a1 == a2:
        assert hash(a1) == hash(a2)


@given(round_trip_terms)
def test_stored_depth_and_key_match_the_recursive_definitions(t):
    assert (DEPTH[t.id], KEY[t.id]) == (reference_depth(t), reference_key(t))


def test_interned_values_are_immutable():
    for v in (a, x, f(a), P1, EQUALITY, FunPredicate("f", 1), MagicPredicate(P1, "b")):
        with pytest.raises(AttributeError):
            v.name = "other"
        with pytest.raises(AttributeError):
            del v.arity
