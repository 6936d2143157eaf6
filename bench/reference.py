"""Recompute the ontology workload's expected answers with the naive
reference semantics: the Skolemized rules plus explicit reflexivity,
congruence, symmetry and transitivity axioms, evaluated by `naive_fixpoint`
with no representative merging.

    PYTHONPATH=src python3 bench/reference.py

prints the answers and whether they equal `ONTOLOGY_EXPECTED`.  Takes about 5 s
and 45 MB."""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from chasegoal import (  # noqa: E402
    Limits,
    congruence_axioms,
    constant_answers,
    load_scenario,
    naive_fixpoint,
    reflexivity_axioms,
    skolemize,
    sym_trans,
)

from workloads import ONTOLOGY_EXPECTED, ontology  # noqa: E402


def main():
    with tempfile.TemporaryDirectory() as tmp:
        w = ontology(Path(tmp), 0)
        sc = load_scenario(Path(tmp) / "rules.txt", Path(tmp) / "data", w.query, una_known=w.una)
    p = skolemize(sc.rules, sc.query)
    base_preds = sc.instance.predicates()
    aux = reflexivity_axioms(p, base_preds) + congruence_axioms(p, base_preds) + sym_trans()
    fixpoint = naive_fixpoint(tuple(p.rules) + tuple(aux), sc.instance, Limits(max_depth=10))
    answers = {tuple(c.name for c in t) for t in constant_answers(fixpoint, sc.query)}
    print("%d answers: %s" % (len(answers), " ".join(sorted(a[0] for a in answers))))
    print("equal to ONTOLOGY_EXPECTED:", answers == ONTOLOGY_EXPECTED)


if __name__ == "__main__":
    main()
