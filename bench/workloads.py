"""Seeded workload generators for the benchmark.

Each generator writes the files a user would hand to the program: `rules.txt`
and one headerless CSV per base predicate under `data/`.  The structure of a
workload is fixed; the seed only permutes the order of the CSV rows.  Every
count the program reports (derived facts, rule applications, merges) is then
the same for every seed, so the benchmark can demand that counts repeat
exactly, while each seed still hands the program a different input file.

This module is stdlib-only and never imports the program: the expected answer
sets are known by construction (chain, campus) or were computed once with the
naive reference fixpoint and are written down here (ontology).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    query: str
    una: bool                                  # load with una_known=True
    expected: "frozenset[tuple[str, ...]]"     # the answer set every mode must give
    # Seconds one query of each finishing mode took on the reference host
    # (calibration.py).  They only size the fixed number of queries a run
    # makes, so that every run of a workload, on any commit, makes the same
    # queries; a mode without an entry trips today.
    query_s: "dict[str, float]"


def _write(root: Path, rules: str, tables: "dict[str, list[tuple[str, ...]]]", seed: int):
    rng = random.Random(seed)
    (root / "data").mkdir(parents=True, exist_ok=True)
    (root / "rules.txt").write_text(rules, encoding="utf-8")
    for pred, rows in sorted(tables.items()):
        rows = list(rows)
        rng.shuffle(rows)
        text = "".join(",".join(row) + "\n" for row in rows)
        (root / "data" / (pred + ".csv")).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# chain: the running example of the paper over a chain of S links.  Every
# link merges two Skolem terms in `mat`; the EGD's three-atom join dominates
# `mat` and the demand facts of `magic` grow quadratically with the length.
# ---------------------------------------------------------------------------

# 150 links: magic's quadratic demand takes 2.5-4 s per query here, which
# keeps a run of the four modes inside the time the benchmark may take.
CHAIN_LINKS = 150

CHAIN_RULES = """\
A(?x), R(?x,?y) -> Q(?x)
S(?x,?z) -> R(?x,?y)
R(?x,?y), S(?x,?x2), R(?x2,?y2) -> ?y = ?y2
B(?x) -> T(?x,?y), A(?y)
T(?x,?y) -> ?x = ?y
"""


def chain(root: Path, seed: int) -> Workload:
    tables = {
        "B": [("a1",)],
        "S": [("a%d" % i, "a%d" % (i + 1)) for i in range(1, CHAIN_LINKS + 1)],
    }
    _write(root, CHAIN_RULES, tables, seed)
    return Workload("Q", True, frozenset({("a1",)}),
                    {"mat": 0.2, "rel": 0.013, "magic": 3.0, "all": 0.01})


# ---------------------------------------------------------------------------
# campus: 5000 students in 50 departments, 100 of them in d0, and a query
# that carries the constant d0.  Insert-heavy, no merges: CSV load and base
# ingest dominate every mode.
# ---------------------------------------------------------------------------

CAMPUS_STUDENTS = 5000
CAMPUS_DEPTS = 50
CAMPUS_IN_D0 = 100

CAMPUS_RULES = """\
Student(?x), enrolled(?x,?d) -> advisedBy(?x,?y)
advisedBy(?x,?y) -> Professor(?y)
Student(?x), enrolled(?x,'d0'), advisedBy(?x,?y) -> Q(?x)
"""


def campus(root: Path, seed: int) -> Workload:
    students, enrolled = [], []
    for i in range(CAMPUS_STUDENTS):
        dept = "d0" if i < CAMPUS_IN_D0 else "d%d" % (1 + i % (CAMPUS_DEPTS - 1))
        students.append(("s%d" % i,))
        enrolled.append(("s%d" % i, dept))
    _write(root, CAMPUS_RULES, {"Student": students, "enrolled": enrolled}, seed)
    expected = frozenset(("s%d" % i,) for i in range(CAMPUS_IN_D0))
    return Workload("Q", True, expected, {"mat": 1.0, "rel": 1.0, "all": 0.9})


# ---------------------------------------------------------------------------
# ontology: a rule-heavy, data-light program in the style of the
# ontology scenarios of ChaseBench (Benedikt et al., PODS 2017).  Two
# branches of concept hierarchies over LEVELS levels; existential roles and
# their range rules always climb one level, so the chase terminates; some
# roles above level 0 are functional (EGDs; at level 0 they made magic's
# demand on the data quadratic) and some rules name nominal constants.  Only
# the C branch reaches the query, so relevance has rules to drop.  The
# structure is drawn once from ONTOLOGY_STRUCTURE; the seed does not change it.
# ---------------------------------------------------------------------------

ONTOLOGY_STRUCTURE = 2017
LEVELS = 4
CONCEPTS = 6            # per branch and level
ROLES = 3               # per branch and level transition
EXISTENTIALS = 3        # per branch and level transition
INDIVIDUALS = 60        # level-0 individuals in the data
FILLERS = 30            # level-1 individuals in the data
NOMINALS = ("n0", "n1", "n2")


def _ontology_structure():
    rng = random.Random(ONTOLOGY_STRUCTURE)
    rules: list[str] = []
    tables: dict[str, list[tuple[str, ...]]] = {}

    def concept(b, k, j):
        return "%s%d_%d" % (b, k, j)

    def role(b, k, j):
        return "%s%d_%d" % ("R" if b == "C" else "S", k, j)

    for b in ("C", "D"):
        for k in range(LEVELS):
            # Concept hierarchy: every concept has a parent of lower index
            # and about half of them a second one.
            for j in range(1, CONCEPTS):
                parents = {rng.randrange(j)}
                if rng.random() < 0.5:
                    parents.add(rng.randrange(j))
                for p in sorted(parents):
                    rules.append("%s(?x) -> %s(?x)" % (concept(b, k, j), concept(b, k, p)))
        for k in range(LEVELS - 1):
            for r in range(ROLES):
                name = role(b, k, r)
                rules.append("%s(?x,?y) -> %s(?y)" % (name, concept(b, k + 1, rng.randrange(CONCEPTS))))
                rules.append("%s(?x,?y) -> %s(?x)" % (name, concept(b, k, rng.randrange(CONCEPTS))))
                if r % 2 == 0 and k > 0:
                    rules.append("%s(?x,?y), %s(?x,?z) -> ?y = ?z" % (name, name))
            for _ in range(EXISTENTIALS):
                rules.append(
                    "%s(?x) -> %s(?x,?y), %s(?y)"
                    % (concept(b, k, rng.randrange(CONCEPTS)), role(b, k, rng.randrange(ROLES)),
                       concept(b, k + 1, rng.randrange(CONCEPTS)))
                )
            if k < LEVELS - 2:
                # Role composition: an individual with an r-successor that
                # has an s-successor belongs to a concept of its own level.
                rules.append(
                    "%s(?x,?y), %s(?y,?z) -> %s(?x)"
                    % (role(b, k, rng.randrange(ROLES)), role(b, k + 1, rng.randrange(ROLES)),
                       concept(b, k, rng.randrange(CONCEPTS)))
                )
        # Nominals: a value restriction into and out of a named individual.
        # The role is never a functional one, so nominals do not merge with
        # the individuals of the data.
        for n in NOMINALS:
            r = role(b, 0, 1)
            rules.append("%s(?x) -> %s(?x,%s)" % (concept(b, 0, rng.randrange(CONCEPTS)), r, n))
            rules.append("%s(?x,%s) -> %s(?x)" % (r, n, concept(b, 0, rng.randrange(CONCEPTS))))

    rules.append("C0_0(?x), R0_0(?x,?y), C1_0(?y) -> Q(?x)")
    rules.append("C0_1(?x), R0_1(?x,n0) -> Q(?x)")

    for i in range(INDIVIDUALS):
        ind = "i%d" % i
        for b in ("C", "D"):
            for j in rng.sample(range(1, CONCEPTS), 1 + (i % 2)):
                tables.setdefault(concept(b, 0, j), []).append((ind,))
            for r in rng.sample(range(ROLES), 1 + (i % 3 == 0)):
                tables.setdefault(role(b, 0, r), []).append((ind, "e%d" % rng.randrange(FILLERS)))
    for e in range(FILLERS):
        b = "C" if e % 2 == 0 else "D"
        tables.setdefault(concept(b, 1, rng.randrange(CONCEPTS)), []).append(("e%d" % e,))
    return "\n".join(rules) + "\n", tables


def ontology(root: Path, seed: int) -> Workload:
    rules, tables = _ontology_structure()
    _write(root, rules, tables, seed)
    return Workload("Q", False, ONTOLOGY_EXPECTED, {"mat": 0.75, "rel": 0.38, "all": 0.57})


# Computed once with bench/reference.py (naive fixpoint plus explicit
# equality axioms); mat gives the same 44 individuals.
ONTOLOGY_EXPECTED = frozenset(
    ("i%d" % i,)
    for i in (0, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 16, 17, 18, 19, 20, 21, 22, 24,
              25, 26, 27, 28, 29, 30, 31, 33, 34, 35, 36, 37, 39, 40, 44, 45, 47, 48, 49,
              52, 55, 57, 59)
)


WORKLOADS = {"chain": chain, "campus": campus, "ontology": ontology}
