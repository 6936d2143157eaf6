"""Shared builders for the test suite: canonical rule forms, the reference
answers (the labelled-null chase) and the naive reference fixpoint, random
scenario generators and the running example."""

import hashlib
import itertools
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import astuple, dataclass, replace
from pathlib import Path
from unittest import mock

from chasegoal.driver import MODES, PipelineConfig, run_pipeline
from chasegoal.engine import (
    Limits,
    UnionFind,
    _ChaseState,
    chase,
    constant_answers,
    naive_fixpoint,
)
from chasegoal.eqprep import (
    congruence_axioms,
    reflexivity_axioms,
    sym_trans,
)
from chasegoal.frontend import Scenario, parse_rules
from chasegoal.kernel import (
    EQUALITY,
    TGD,
    Atom,
    Constant,
    Functional,
    Instance,
    Predicate,
    Program,
    Rule,
    Variable,
    atom_of,
    eq,
    iter_subterms,
    iter_vars,
    rule_atoms,
    substitute,
)


# Body equalities the pipeline cannot take, which `check_scenario` rejects
# naming the rule; each once failed in stage sg with "equality safety lost
# after sg".
BODY_EQUALITY_ERRORS = [
    ("A(?x), a = b -> Q(?x)",
     "body equality a = b is not safe in rule A(?x), a = b -> Q(?x): neither side is a variable"),
    ("A(?x), ?y = b -> Q(?x)",
     "body equality ?y = b is not safe in rule A(?x), ?y = b -> Q(?x): "
     "no variable shared with a relational body atom"),
    ("A(?x), ?x = ?y -> Q(?y)",
     "query predicate Q has an argument that only body equalities bind in rule A(?x), ?x = ?y -> Q(?y)"
     "; use a non-query predicate and a rule from it into Q"),
]


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
        return repr(Rule(substitute(ren, r.head), body))
    return repr(TGD(body, tuple(substitute(ren, a) for a in r.head)))


def canon_rules(rules) -> "list[str]":
    if isinstance(rules, Program):
        rules = rules.rules
    return sorted(canon_rule(r) for r in rules)


# ---------------------------------------------------------------------------
# Naive reference fixpoint: Skolemized program + explicit equality axioms,
# evaluated by the naive fixpoint with no representative merging at all.  It
# runs the package's join kernels, so the answers of drawn scenarios are
# checked against the labelled-null chase below; this one serves the tests
# that need a Skolem-fixpoint instance, and the test that meets the two.
# ---------------------------------------------------------------------------

# Tight guards: a draw whose naive fixpoint diverges burns the whole fact
# budget before it trips, so keep that budget small.
ORACLE_LIMITS = Limits(max_depth=5, max_facts=6_000)


def reference_fixpoint(program: Program, base: Instance, limits: Limits) -> Instance:
    """The naive fixpoint of `program` plus the equality axioms over its
    predicates and the base's: reflexivity, congruence, symmetry and
    transitivity."""
    preds = base.predicates()
    aux = reflexivity_axioms(program, preds) + congruence_axioms(program, preds) + sym_trans()
    return naive_fixpoint(tuple(program.rules) + tuple(aux), base, limits)


def answers_of(instance: Instance, query: Predicate) -> "set[tuple[str, ...]]":
    return {tuple(c.name for c in t) for t in constant_answers(instance, query)}


def pipeline_answers(scenario: Scenario, mode: str) -> "set[tuple[str, ...]]":
    report = run_pipeline(scenario, PipelineConfig(mode=mode))
    return {tuple(a) for a in report.answers}


# ---------------------------------------------------------------------------
# Brute-force matching: nested loops over every fact, the reference the join
# plans are checked against.
# ---------------------------------------------------------------------------


def match_term(pattern, ground, out):
    """One-way structural match of a pattern term against a ground term,
    extending `out` in place."""
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


# ---------------------------------------------------------------------------
# The reference answers: a restricted chase with labelled nulls over the raw
# existential rules (no Skolem terms).  It keeps its facts in a set of atoms
# and matches them by brute force, so it runs none of the package's kernels,
# stores or merges.
# ---------------------------------------------------------------------------


class Unsettled(Exception):
    """The null chase still derived something in its last round."""


@dataclass
class Drawn:
    """A scenario checked by the null chase, with its answers, and whether
    it put two named constants in one class.  The scenario's `una_known` is
    honest: true unless it did.  `answers` is None for a draw the null chase
    did not settle, which keeps its flag."""

    scenario: Scenario
    answers: "set[tuple[str, ...]] | None"
    merged: bool


def null_chase(scenario: Scenario, max_rounds: int = 200) -> Drawn:
    facts = set(scenario.instance)
    # A union-find of its own over term objects: the root is the
    # representative, and the first side of a merge keeps it.  Nulls are
    # constants, so no class ever has to be handed on.
    parent = {}
    fresh = itertools.count(1)

    def find(t):
        while t in parent:
            t = parent[t]
        return t

    def merge(rep, loser):
        # a fact holds the loser only as an argument
        parent[loser] = rep
        for fact in [fact for fact in facts if loser in fact.args]:
            facts.discard(fact)
            facts.add(Atom(fact.predicate, tuple(rep if a == loser else a for a in fact.args)))

    def normalized(atoms):
        # rule constants must be looked up through the union-find, or a
        # body mentioning a merged-away constant stops matching anything
        return tuple(
            Atom(a.predicate, tuple(find(t) if isinstance(t, Constant) else t for t in a.args))
            for a in atoms
        )

    def matches(body):
        # Relational atoms match facts, then each body equality, in body
        # order, binds its unbound side to the other or holds when both
        # sides are in one class.  `check_scenario` gives each equality a
        # side that a relational atom binds.
        equalities = [a for a in body if a.is_equality]
        for sigma in brute_force_matches([a for a in body if not a.is_equality], facts):
            for a in equalities:
                s, t = (sigma.get(side, side) for side in a.args)
                if isinstance(s, Variable):
                    sigma[s] = t
                elif isinstance(t, Variable):
                    sigma[t] = s
                elif find(s) != find(t):
                    break
            else:
                yield sigma

    for _ in range(max_rounds):
        changed = False
        for r in scenario.rules:
            if r.head[0].is_equality:
                for sigma in list(matches(normalized(r.body))):
                    s, t = (find(sigma.get(side, side)) for side in r.head[0].args)
                    if s != t:
                        merge(s, t)
                        changed = True
            else:
                body, head = normalized(r.body), normalized(r.head)
                for sigma in list(matches(body)):
                    if brute_force_matches(head, facts, sigma):
                        continue
                    ext = dict(sigma)
                    for v in sorted(r.existential_vars, key=lambda v: v.name):
                        ext[v] = Constant("~n%d" % next(fresh))
                    for a in head:
                        a = Atom(a.predicate, tuple(ext.get(t, t) for t in a.args))
                        changed |= a not in facts
                        facts.add(a)
        if not changed:
            break
    else:
        raise Unsettled("null chase did not settle in %d rounds" % max_rounds)

    classes = {}
    for t in parent:
        classes.setdefault(find(t), {find(t)}).add(t)
    answers = set()
    for fact in facts:
        if fact.predicate != scenario.query:
            continue
        options = []
        for t in fact.args:
            consts = [m.name for m in classes.get(t, {t}) if not m.name.startswith("~n")]
            if not consts:
                break
            options.append(consts)
        else:
            answers.update(itertools.product(*options))
    merged = any(
        sum(not m.name.startswith("~n") for m in members) > 1 for members in classes.values()
    )
    return Drawn(replace(scenario, una_known=not merged), answers, merged)


# ---------------------------------------------------------------------------
# Random scenarios.  Existential rules strictly climb a predicate level so the
# chase stays terminating.  Equality can still re-feed a generator through
# congruence (see the running example), which only the Skolem terms of the
# naive reference fixpoint make diverge; the null chase settles on it.
# ---------------------------------------------------------------------------


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
    existential rule, so no Skolem term is built over another."""
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


def scenario_draws(seed: int, want: int, draw=random_scenario):
    """Deterministic stream of the first `want` scenarios from `draw` that
    have a query rule, as drawn (`una_known` false)."""
    rng = random.Random(seed)
    produced = attempts = 0
    while produced < want:
        attempts += 1
        if attempts > 80 * want + 200:
            raise RuntimeError("scenario generator rejection rate too high")
        sc = draw(rng)
        if not any(isinstance(r, TGD) and r.head[0].predicate == sc.query for r in sc.rules):
            continue
        yield sc
        produced += 1


def scenario_stream(seed: int, want: int, draw=random_scenario):
    """The draws of `scenario_draws`, each checked by the null chase: with
    its answers, whether it merged two named constants, and the honest UNA
    flag.  A draw the null chase does not settle comes with no answers and
    `una_known` false, and the stream prints how many there were."""
    unsettled = 0
    for sc in scenario_draws(seed, want, draw):
        try:
            drawn = null_chase(sc)
        except Unsettled:
            unsettled += 1
            drawn = Drawn(sc, None, False)
        yield drawn
    if unsettled:
        print("scenario_stream(%d, %d): %d draws unsettled" % (seed, want, unsettled))


def check_stale_merge_draw(drawn: Drawn) -> None:
    """Check one draw: every mode answers as the null chase, and
    each mode's final program chases to one instance and term map for the
    chase seeds None, 0, 1 and 2, in which every term a fact holds, at any
    depth, is its own representative.  Raises `AssertionError` at the
    first disagreement."""
    for mode in MODES:
        rep = run_pipeline(drawn.scenario, PipelineConfig(mode=mode))
        assert set(map(tuple, rep.answers)) == drawn.answers, (mode, drawn.scenario)
        outcomes = set()
        for chase_seed in (None, 0, 1, 2):
            cr = chase(rep.stages["desg"], drawn.scenario.instance, seed=chase_seed)
            assert holds_only_representatives(cr), (mode, chase_seed, drawn.scenario)
            outcomes.add((frozenset(cr.instance), frozenset(cr.mu.items())))
        assert len(outcomes) == 1, (mode, drawn.scenario)


def check_stale_merge_draws(seed: int, want: int) -> int:
    """Check `want` draws of `stale_merge_scenario` from `seed` by
    `check_stale_merge_draw`; returns the number of draws whose null chase
    merges two named constants."""
    merged = 0
    for drawn in scenario_stream(seed, want, draw=stale_merge_scenario):
        merged += drawn.merged
        check_stale_merge_draw(drawn)
    return merged


@contextmanager
def derivation_log():
    """A list that collects, while the block runs, every fact a chase
    derives, in the order it makes them: the new facts of each relational
    batch (`_ChaseState.add`) and each merged pair of representatives as an
    equality atom (`UnionFind.union`).  Its length is the chase's
    `ChaseStats.derived_facts`; which equalities it holds depends on
    evaluation order."""
    log: list[Atom] = []
    add, union = _ChaseState.add, UnionFind.union

    def logged_add(state, pred, rows):
        new = add(state, pred, rows)
        log.extend(atom_of(pred, row) for row in new)
        return new

    def logged_union(uf, s, t):
        log.append(atom_of(EQUALITY, (s, t)))
        return union(uf, s, t)

    with (mock.patch.object(_ChaseState, "add", logged_add),
          mock.patch.object(UnionFind, "union", logged_union)):
        yield log


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
        for sc in scenario_draws(seed, draws, draw=stale_merge_scenario):
            for mode in MODES:
                for chase_seed in (0, 1):
                    rep = run_pipeline(sc, PipelineConfig(mode=mode, seed=chase_seed))
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


# An input whose `--mode all` run builds one batch of |A|^6 rows in a round,
# for the demand rule m_E#bbbbbb(...) :- m_A#f, A(?s#1), ..., A(?s#6): a
# process with a capped address space runs out of memory while it builds
# the batch.
MEMORY_PROBE_RULES = """\
A(?x) -> E(?x,?x,?x,?x,?x,?x)
A(?a), A(?b), A(?c), A(?d), A(?e), A(?f), E(?a,?b,?c,?d,?e,?f) -> R(?a,?b,?c,?d,?e,?f,?y), A(?y)
A(?x) -> Q(?x)
"""


def write_memory_probe(root) -> "list[str]":
    """Write the memory probe under `root`, as `rules.txt` and `data/A.csv`
    (the one fact A(a)), and return the arguments of `chasegoal run` on it
    in mode all, writing its reports to `root/out`."""
    root = Path(root)
    (root / "data").mkdir(parents=True, exist_ok=True)
    (root / "rules.txt").write_text(MEMORY_PROBE_RULES, encoding="utf-8")
    (root / "data" / "A.csv").write_text("a\n", encoding="utf-8")
    return ["run", "--rules", str(root / "rules.txt"), "--data", str(root / "data"),
            "--query-pred", "Q", "--mode", "all", "--out", str(root / "out")]


def arity_probe_rules(n: int, query_body: str = "") -> str:
    """n rules A(?xi), P(?x1,...,?xn) -> P(?x1,...,?xn), one per position
    i, and the query rule `query_body`P(?x1,...,?xn) -> Q(?x1).  Bound
    demand on P could take each of its 2^n - 1 bound adornments."""
    xs = ",".join("?x%d" % i for i in range(1, n + 1))
    text = "".join("A(?x%d), P(%s) -> P(%s)\n" % (i, xs, xs) for i in range(1, n + 1))
    return text + "%sP(%s) -> Q(?x1)\n" % (query_body, xs)


def write_fact_waiting_probe(root, n: int) -> "list[str]":
    """Write the fact-waiting probe under `root`: `arity_probe_rules(n,
    "B(?z), ")` as `rules.txt`, where P's all-free demand waits on a B fact,
    and the facts A(a), A(b), P(a,b,...,b) and B(c) under `data/`.  Return
    the arguments of `chasegoal run` on it, without a mode, writing its
    reports to `root/out`.  Its one answer is a."""
    root = Path(root)
    (root / "data").mkdir(parents=True, exist_ok=True)
    (root / "rules.txt").write_text(arity_probe_rules(n, "B(?z), "), encoding="utf-8")
    for name, rows in (("A", "a\nb\n"), ("P", ",".join("a" + "b" * (n - 1)) + "\n"), ("B", "c\n")):
        (root / "data" / ("%s.csv" % name)).write_text(rows, encoding="utf-8")
    return ["run", "--rules", str(root / "rules.txt"), "--data", str(root / "data"),
            "--query-pred", "Q", "--out", str(root / "out")]


# ---------------------------------------------------------------------------
# Recursive application of the representative map (merges rewrite argument
# positions only, so nested occurrences are normalized here for comparisons)
# ---------------------------------------------------------------------------


def mu_hat(mu, t):
    while True:
        if isinstance(t, Functional):
            t = Functional(t.symbol, tuple(mu_hat(mu, a) for a in t.args))
        r = mu.get(t, t)
        if r == t:
            return t
        t = r
