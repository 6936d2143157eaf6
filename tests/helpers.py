"""Shared builders for the test suite: canonical rule forms, the reference
answer oracle, a random scenario generator and the running example."""

import hashlib
import itertools
import os
import random
import subprocess
import sys
from dataclasses import astuple, dataclass
from pathlib import Path

from chasegoal.driver import MODES, PipelineConfig, run_pipeline
from chasegoal.engine import (
    ChaseError,
    Limits,
    chase,
    constant_answers,
    naive_fixpoint,
)
from chasegoal.eqprep import (
    congruence_axioms,
    reflexivity_axioms,
    skolemize,
    sym_trans,
)
from chasegoal.frontend import Scenario, parse_rules, render_rule
from chasegoal.kernel import (
    TERMS,
    TGD,
    Atom,
    Constant,
    Instance,
    JoinPlan,
    Predicate,
    Program,
    Rule,
    Variable,
    eq,
    iter_subterms,
    iter_vars,
    rule_atoms,
    substitute,
)


# ---------------------------------------------------------------------------
# Comparing rule sets up to variable renaming
# ---------------------------------------------------------------------------


def canon_rule(r) -> str:
    """Render a rule with its variables renamed v1, v2, ... in order of first
    occurrence, so structurally identical rules compare equal as strings."""
    ren = {}
    for v in iter_vars(list(rule_atoms(r))):
        if v not in ren:
            ren[v] = Variable("v%d" % (len(ren) + 1))
    body = tuple(substitute(ren, a) for a in r.body)
    if isinstance(r, Rule):
        return render_rule(Rule(substitute(ren, r.head), body))
    return render_rule(TGD(body, tuple(substitute(ren, a) for a in r.head)))


def canon_rules(rules) -> "list[str]":
    if isinstance(rules, Program):
        rules = rules.rules
    return sorted(canon_rule(r) for r in rules)


# ---------------------------------------------------------------------------
# Reference oracle: Skolemized program + explicit equality axioms, evaluated
# by the naive fixpoint with no representative merging at all.
# ---------------------------------------------------------------------------

# Tight guards: a draw whose naive fixpoint diverges burns the whole fact
# budget before the stream can reject it, so keep that budget small.
ORACLE_LIMITS = Limits(max_depth=5, max_facts=6_000)


def oracle_instance(scenario: Scenario, limits: Limits = ORACLE_LIMITS) -> Instance:
    p = skolemize(scenario.rules, scenario.query)
    base_preds = scenario.instance.predicates()
    aux = (
        reflexivity_axioms(p, base_preds)
        + congruence_axioms(p, base_preds)
        + sym_trans()
    )
    return naive_fixpoint(tuple(p.rules) + tuple(aux), scenario.instance, limits)


def answers_of(instance: Instance, query: Predicate) -> "set[tuple[str, ...]]":
    return {tuple(c.name for c in t) for t in constant_answers(instance, query)}


def oracle_answers(scenario: Scenario, limits: Limits = ORACLE_LIMITS):
    return answers_of(oracle_instance(scenario, limits), scenario.query)


def pipeline_answers(scenario: Scenario, mode: str, **cfg) -> "set[tuple[str, ...]]":
    report = run_pipeline(scenario, PipelineConfig(mode=mode, **cfg))
    return {tuple(a) for a in report.answers}


def merged_distinct_constants(instance: Instance) -> bool:
    """True when the equality closure of `instance` identifies two constants
    with different names (the unique name assumption fails)."""
    for fact in instance:
        if fact.is_equality:
            s, t = fact.args
            if isinstance(s, Constant) and isinstance(t, Constant) and s != t:
                return True
    return False


# ---------------------------------------------------------------------------
# Second reference model: restricted chase with labelled nulls over the raw
# existential rules (no Skolem terms). Used to cross-check skolemize.
# ---------------------------------------------------------------------------


def enumerate_matches(body, instance: Instance, bindings=None):
    """Substitutions that extend `bindings` and match every body atom against
    the instance, joined through the indexes in `JoinPlan` order."""
    bindings = bindings or {}
    pred = Predicate("bindings", len(bindings))
    variables = tuple(dict.fromkeys(itertools.chain(bindings, iter_vars(body))))
    match = Atom(Predicate("match", len(variables)), variables)
    plan = JoinPlan(body, entry=Atom(pred, tuple(bindings)), emit=(match,))
    out: list = []
    plan.run((tuple(t.id for t in bindings.values()),), instance, out, {}, {})
    return (dict(zip(variables, map(TERMS.__getitem__, row))) for row in out)


def null_chase_answers(rules, base, query, max_rounds=200):
    inst = Instance(base)
    # A union-find of its own over term objects, so that this oracle shares
    # no merge code with the engine: the root is the representative, and
    # the first side of a merge keeps it.  Nulls are constants, so no
    # class ever has to be handed on.
    parent = {}
    fresh = itertools.count(1)

    def find(t):
        while t in parent:
            t = parent[t]
        return t

    def merge(rep, loser):
        # a fact holds the loser only as an argument; a scan finds them, so
        # that this oracle shares no lookup with the engine
        parent[loser] = rep
        for fact in [fact for fact in inst if loser in fact.args]:
            inst.discard(fact)
            inst.add(Atom(fact.predicate, tuple(rep if a == loser else a for a in fact.args)))

    def normalized(atoms):
        # rule constants must be looked up through the union-find, or a
        # body mentioning a merged-away constant stops matching anything
        return tuple(
            Atom(a.predicate, tuple(find(t) if isinstance(t, Constant) else t for t in a.args))
            for a in atoms
        )

    for _ in range(max_rounds):
        changed = False
        for r in rules:
            if r.head[0].is_equality:
                for sigma in list(enumerate_matches(normalized(r.body), inst)):
                    s, t = (find(substitute(sigma, side)) for side in r.head[0].args)
                    if s != t:
                        merge(s, t)
                        changed = True
            else:
                body, head = normalized(r.body), normalized(r.head)
                for sigma in list(enumerate_matches(body, inst)):
                    if any(True for _ in enumerate_matches(head, inst, sigma)):
                        continue
                    ext = dict(sigma)
                    for v in sorted(r.existential_vars, key=lambda v: v.name):
                        ext[v] = Constant("~n%d" % next(fresh))
                    for a in head:
                        changed |= inst.add(substitute(ext, a))
        if not changed:
            break
    else:
        raise RuntimeError("null chase did not settle in %d rounds" % max_rounds)

    classes = {}
    for t in parent:
        classes.setdefault(find(t), {find(t)}).add(t)
    answers = set()
    for fact in inst.with_predicate(query):
        options = []
        for t in fact.args:
            consts = [
                m.name
                for m in classes.get(t, {t})
                if isinstance(m, Constant) and not m.name.startswith("~n")
            ]
            if not consts:
                break
            options.append(consts)
        else:
            answers.update(itertools.product(*options))
    return answers


# ---------------------------------------------------------------------------
# Random scenarios. Existential rules strictly climb a predicate level so the
# chase stays terminating; scenarios whose *naive* reference fixpoint still
# diverges (equality can re-feed a generator through congruence, see the
# running example) are skipped by the stream.
# ---------------------------------------------------------------------------


@dataclass
class Drawn:
    scenario: Scenario
    oracle: "set[tuple[str, ...]] | None" = None
    naive: "Instance | None" = None


def random_scenario(rng: random.Random) -> Scenario:
    levels = {
        0: [Predicate("E", rng.choice((1, 2))), Predicate("F", rng.choice((1, 2)))],
        1: [Predicate("P", rng.choice((1, 2))), Predicate("R", 2)],
        2: [Predicate("S", rng.choice((1, 2)))],
    }
    level_of = {p: lvl for lvl, ps in levels.items() for p in ps}
    pool = [p for ps in levels.values() for p in ps]
    consts = [Constant("c%d" % i) for i in range(rng.randint(2, 4))]
    query = Predicate("Q", rng.choice((1, 2)))

    def body_atoms(n, max_level=2):
        vs = [Variable("x%d" % i) for i in range(1, 5)]
        atoms, used = [], []
        for _ in range(n):
            p = rng.choice([p for p in pool if level_of[p] <= max_level])
            args = []
            for _ in range(p.arity):
                if used and rng.random() < 0.45:
                    args.append(rng.choice(used))
                elif rng.random() < 0.15:
                    args.append(rng.choice(consts))
                else:
                    v = rng.choice(vs)
                    args.append(v)
                    used.append(v)
            atoms.append(Atom(p, tuple(args)))
        return atoms, sorted(set(used), key=lambda v: v.name)

    rules = []
    n_tgds = rng.randint(1, 3)
    for _ in range(n_tgds):
        for _ in range(20):
            body, bvars = body_atoms(rng.randint(1, 2), max_level=1)
            if bvars:
                break
        else:
            continue
        maxlvl = max(level_of[a.predicate] for a in body)
        existential = rng.random() < 0.6 and maxlvl < 2
        hvars = list(bvars)
        if existential:
            hvars.append(Variable("y"))
        head = []
        for _ in range(rng.randint(1, 2)):
            hp = rng.choice(
                [
                    p
                    for p in pool
                    if (level_of[p] > maxlvl if existential else level_of[p] >= maxlvl)
                ]
                or [levels[2][0]]
            )
            head.append(Atom(hp, tuple(rng.choice(hvars) for _ in range(hp.arity))))
        if existential and not any(Variable("y") in a.args for a in head):
            head[0] = Atom(head[0].predicate, (Variable("y"),) * head[0].predicate.arity)
        rules.append(TGD(tuple(body), tuple(head)))

    for _ in range(rng.randint(1, 2)):
        for _ in range(20):
            body, bvars = body_atoms(rng.randint(1, 2))
            if len(bvars) >= 2:
                rules.append(TGD(tuple(body), (eq(bvars[0], bvars[1]),)))
                break

    for _ in range(20):
        body, bvars = body_atoms(rng.randint(1, 2))
        if len(bvars) >= query.arity:
            head = Atom(query, tuple(bvars[: query.arity]))
            rules.append(TGD(tuple(body), (head,)))
            break

    facts = []
    for _ in range(rng.randint(2, 8)):
        p = rng.choice(pool)
        facts.append(Atom(p, tuple(rng.choice(consts) for _ in range(p.arity))))
    return Scenario(tuple(rules), Instance(facts), query, None, una_known=False)


def stale_merge_scenario(rng: random.Random) -> Scenario:
    """A draw from a template whose merges can leave a class representative
    mentioning a merged-away term below a function symbol.  Existential
    rules build Skolem terms over subject constants; these are equated with
    each other (joined through base L facts) or with value constants
    (through a value in an existential head or base N facts); then base M
    facts merge subjects with subjects and values with values.  Keeping
    the two pools apart keeps every Skolem term out of the body of an
    existential rule, so the naive reference fixpoint stays finite."""
    P, E, L, M, N = (Predicate(n, k) for n, k in (("P", 1), ("E", 2), ("L", 2), ("M", 2), ("N", 2)))
    x, y, z, u, v = (Variable(n) for n in "xyzuv")
    subjects = [Constant("s%d" % i) for i in range(rng.randint(2, 4))]
    values = [Constant("c%d" % i) for i in range(rng.randint(1, 3))]
    skolem = [Predicate("R%d" % i, 2) for i in range(rng.randint(2, 3))]
    rules = []
    for r in skolem:
        head = [Atom(r, (x, y))]
        if rng.random() < 0.25:
            head.append(Atom(E, (y, rng.choice(values))))
        rules.append(TGD((Atom(P, (x,)),), tuple(head)))
    for _ in range(rng.randint(1, 2)):
        r1, r2 = rng.choice(skolem), rng.choice(skolem)
        rules.append(TGD((Atom(r1, (u, y)), Atom(r2, (v, z)), Atom(L, (u, v))), (eq(y, z),)))
    rules.append(TGD((Atom(E, (x, y)),), (eq(x, y),)))
    if rng.random() < 0.35:
        rules.append(TGD((Atom(rng.choice(skolem), (x, y)), Atom(N, (x, z))), (eq(y, z),)))
    # A merge of constants may wait for a Skolem term, or for two of them
    # to be merged first.
    r1, r2 = rng.choice(skolem), rng.choice(skolem)
    wait = rng.choice(((), (Atom(r1, (x, z)),), (Atom(r1, (x, z)), Atom(r2, (y, z)))))
    rules.append(TGD((Atom(M, (x, y)),) + wait, (eq(x, y),)))
    r1, r2 = rng.choice(skolem), rng.choice(skolem)
    body = rng.choice(
        ((Atom(r1, (x, y)),), (Atom(r1, (y, x)),), (Atom(r1, (x, y)), Atom(r2, (u, y))))
    )
    rules.append(TGD(body, (Atom(Q1, (x,)),)))

    def pairs(pool, other, lo, hi):
        return [(rng.choice(pool), rng.choice(other)) for _ in range(rng.randint(lo, hi))]

    facts = [Atom(P, (c,)) for c in rng.sample(subjects, rng.randint(2, len(subjects)))]
    linked = pairs(subjects, subjects, 1, 3)
    facts += [Atom(L, p) for p in linked]
    # Half the time, merge two subjects whose Skolem terms may be equated.
    merged = pairs(subjects, subjects, 1, 2) + pairs(values, values, 0, 1)
    if rng.random() < 0.5:
        merged.append(rng.choice(linked))
    facts += [Atom(M, p) for p in merged]
    facts += [Atom(N, p) for p in pairs(subjects, values, 0, 2)]
    return Scenario(tuple(rules), Instance(facts), Q1, None, una_known=False)


def scenario_stream(
    seed: int,
    want: int,
    with_oracle: bool = True,
    limits: Limits = ORACLE_LIMITS,
    draw=random_scenario,
):
    """Deterministic stream of `want` scenarios from `draw`. With
    `with_oracle`, only draws whose naive reference fixpoint terminates
    inside `limits` are produced, the honest UNA flag is attached and the
    oracle answers come along for the ride."""
    rng = random.Random(seed)
    produced = attempts = 0
    while produced < want:
        attempts += 1
        if attempts > 80 * want + 200:
            raise RuntimeError("scenario generator rejection rate too high")
        sc = draw(rng)
        if not any(isinstance(r, TGD) and r.head[0].predicate == sc.query for r in sc.rules):
            continue
        if not with_oracle:
            yield Drawn(sc)
            produced += 1
            continue
        try:
            naive = oracle_instance(sc, limits)
        except ChaseError:
            continue
        una = not merged_distinct_constants(naive)
        sc = Scenario(sc.rules, sc.instance, sc.query, sc.schema, una_known=una)
        yield Drawn(sc, answers_of(naive, sc.query), naive)
        produced += 1


def check_stale_merge_draw(drawn: Drawn) -> None:
    """Check one draw: every mode answers as the reference fixpoint, and
    each mode's final program chases to one instance and term map for the
    chase seeds None, 0, 1 and 2, in which every term a fact holds, at any
    depth, is its own representative.  Raises `AssertionError` at the
    first disagreement."""
    for mode in MODES:
        rep = run_pipeline(drawn.scenario, PipelineConfig(mode=mode))
        assert set(map(tuple, rep.answers)) == drawn.oracle, (mode, drawn.scenario)
        outcomes = set()
        for chase_seed in (None, 0, 1, 2):
            cr = chase(rep.stages["desg"], drawn.scenario.instance, seed=chase_seed)
            assert holds_only_representatives(cr), (mode, chase_seed, drawn.scenario)
            outcomes.add((frozenset(cr.instance), frozenset(cr.mu.items())))
        assert len(outcomes) == 1, (mode, drawn.scenario)


def check_stale_merge_draws(seed: int, want: int) -> int:
    """Check `want` draws of `stale_merge_scenario` from `seed` by
    `check_stale_merge_draw`; returns the number of draws whose reference
    fixpoint merges two distinct constants."""
    merged = 0
    for drawn in scenario_stream(seed, want, draw=stale_merge_scenario):
        merged += merged_distinct_constants(drawn.naive)
        check_stale_merge_draw(drawn)
    return merged


def holds_only_representatives(result) -> bool:
    """Whether every term a fact of a chase result holds, at any depth of
    an argument, is its own representative in the term map."""
    mu = result.mu
    return all(
        mu.get(s, s) is s for fact in result.instance for t in fact.args for s in iter_subterms(t)
    )


def seeded_stats_digest(seeds, draws: int) -> str:
    """A digest of the chase statistics of every mode under the chase seeds
    0 and 1, on `draws` draws of `stale_merge_scenario` from each of
    `seeds`.  A seeded chase samples its delta, so the digest repeats only
    if every fact the chase visits comes in an order that object addresses
    and string hashes do not decide."""
    digest = hashlib.sha256()
    for seed in seeds:
        for drawn in scenario_stream(seed, draws, with_oracle=False, draw=stale_merge_scenario):
            for mode in MODES:
                for chase_seed in (0, 1):
                    rep = run_pipeline(drawn.scenario, PipelineConfig(mode=mode, seed=chase_seed))
                    digest.update(repr(astuple(rep.chase_stats)).encode())
    return digest.hexdigest()


# Allocates argv[1] objects before chasegoal is imported, so that the
# objects it makes sit at other addresses, then prints the digest.
_DIGEST_RUN = """
import sys
padding = [[i] for i in range(int(sys.argv[1]))]
from helpers import seeded_stats_digest
print(seeded_stats_digest(tuple(map(int, sys.argv[2].split(","))), int(sys.argv[3])))
"""


def digests_across_interpreters(seeds, draws: int, interpreters: int) -> "list[str]":
    """`seeded_stats_digest(seeds, draws)` computed in `interpreters` fresh
    interpreters side by side, each with its own hash seed and a different
    number of objects allocated before chasegoal is imported."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join((str(here.parent / "src"), str(here)))
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", _DIGEST_RUN, str(5003 * i), ",".join(map(str, seeds)), str(draws)],
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=str(i)),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for i in range(interpreters)
    ]
    done = [run.communicate(timeout=300) for run in runs]
    for run, (_, err) in zip(runs, done):
        if run.returncode != 0:
            raise RuntimeError(err)
    return [out.strip() for out, _ in done]


# ---------------------------------------------------------------------------
# The running example and the synthetic campus fixture
# ---------------------------------------------------------------------------

RUNNING_RULES = """\
A(?x), R(?x,?y) -> Q(?x)
S(?x,?z) -> R(?x,?y)
R(?x,?y), S(?x,?x2), R(?x2,?y2) -> ?y = ?y2
B(?x) -> T(?x,?y), A(?y)
T(?x,?y) -> ?x = ?y
"""

Q1 = Predicate("Q", 1)


def running_example(n: int) -> Scenario:
    rules = tuple(parse_rules(RUNNING_RULES))
    b, s = Predicate("B", 1), Predicate("S", 2)
    facts = [Atom(b, (Constant("a1"),))]
    facts += [
        Atom(s, (Constant("a%d" % i), Constant("a%d" % (i + 1))))
        for i in range(1, n)
    ]
    return Scenario(rules, Instance(facts), Q1, None, una_known=True)


CAMPUS_RULES = """\
Student(?x), enrolled(?x,?d) -> advisedBy(?x,?y)
advisedBy(?x,?y) -> Professor(?y)
Student(?x), enrolled(?x,'d0'), advisedBy(?x,?y) -> Q(?x)
"""


def campus_fixture(students=5000, depts=50, special=100) -> Scenario:
    rules = tuple(parse_rules(CAMPUS_RULES))
    student, enrolled = Predicate("Student", 1), Predicate("enrolled", 2)
    facts = []
    for i in range(students):
        s = Constant("s%d" % i)
        if i < special:
            d = Constant("d0")
        else:
            d = Constant("d%d" % (1 + i % (depts - 1)))
        facts.append(Atom(student, (s,)))
        facts.append(Atom(enrolled, (s, d)))
    return Scenario(rules, Instance(facts), Q1, None, una_known=True)


# ---------------------------------------------------------------------------
# Recursive application of the representative map (merges rewrite argument
# positions only, so nested occurrences are normalized here for comparisons)
# ---------------------------------------------------------------------------


def mu_hat(mu, t):
    from chasegoal.kernel import Functional

    while True:
        if isinstance(t, Functional):
            t = Functional(t.symbol, tuple(mu_hat(mu, a) for a in t.args))
        r = mu.get(t, t)
        if r == t:
            return t
        t = r
