"""Benchmark of chasegoal: one workload in all four modes, end to end and
layer by layer.

    python3 bench/run.py --workload chain --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The script writes the workload's files
under `.bench_work/`, measures set-up time (a fresh interpreter importing
`chasegoal` from `src/`), then runs each mode in a child process of its own,
one query at a time (bench/child.py).  The number of queries is fixed by the
workload and --seconds (about --seconds of queries on the reference host),
so every run of a workload, on any commit, attempts the same queries.  Each
child caps its memory and arms a wall-clock budget per query; a mode that
cannot finish is recorded as tripped, with cause and stage, and counts as
failed.  The child processes run with PYTHONHASHSEED=0: join order in the
program follows set iteration order, and across hash seeds the same chain
query varies by more than 2x.

Times are wall times scaled to a reference host speed (calibration.py): the
host's own speed drifts up to 2x within a minute and 1.5x within a second.
Raw wall times are printed next to them and kept in
`.bench_work/<workload>-<seed>/results.json`.
A tripped mode's answer time is its time to the trip, and it is charged the
whole fact budget as its derived facts.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced queries and prints the per-layer metrics, the tracing overhead and
the share of each traced query its layer spans cover.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

Checks that fail the run (correct: false): a finished query whose answer
set differs from the workload's expected set, counts that differ between
queries of a mode, between traced and untraced queries, or from an earlier
run of the same code in this checkout, and a child that errs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibration import calibrate, scale  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODES = ("mat", "rel", "magic", "all")
MIN_SAMPLES = 5
RUN_DEADLINE_S = 160.0

# Per-layer values that do not depend on the mode: pooled over the modes
# that compute them and reported without a suffix.
SHARED = (
    "frontend.load_s", "frontend.base_facts", "frontend.rules", "kernel.index_s",
    "eqprep.singularize_s", "eqprep.skolemize_s", "eqprep.rules",
    "relevance.s", "relevance.critical_facts", "relevance.kept_ratio", "relevance.retried",
)
PER_MODE = (
    "eqprep.safety_check_s", "magic.s", "magic.rules", "magic.demand_predicates",
    "finalize.defun_s", "finalize.desg_s", "finalize.rules",
    "chase.s", "chase.ingest_s", "chase.rounds_s", "chase.derived_facts",
    "chase.rule_applications", "chase.merges", "chase.iterations", "chase.useful_ratio",
    "chase.final_facts", "driver.answers_s", "driver.report_s",
)
# Per-layer metrics every workload reports.  Magic mode trips in the chase
# on campus and ontology, so for it only the stages before the chase and the
# ingest probe are listed; its other values are printed, on the chain only.
MAGIC_REACHED = (
    "eqprep.safety_check_s", "magic.s", "magic.rules", "magic.demand_predicates",
    "finalize.defun_s", "finalize.desg_s", "finalize.rules", "chase.ingest_s",
)
PER_LAYER = SHARED + tuple(
    "%s.%s" % (name, mode)
    for mode in MODES
    for name in (MAGIC_REACHED if mode == "magic" else PER_MODE + ("trace.overhead", "trace.coverage"))
    if mode in ("magic", "all") or not name.startswith("magic.")
)


def unit_of(name: str) -> str:
    base = name.rsplit(".", 1)[0] if name.rsplit(".", 1)[-1] in MODES else name
    if base.endswith(("_s", ".s")):
        return "s"
    if base == "peak_rss_mb":
        return "MB"
    if base.endswith("ratio") or base == "trace.overhead":
        return "ratio"
    if base.endswith("share") or base == "trace.coverage":
        return "share"
    return "count"


def fail(msg: str):
    print("error: " + msg, file=sys.stderr)
    sys.exit(2)


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(list((root / "src" / "chasegoal").glob("*.py")) + list(HERE.glob("*.py"))):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def import_time(root: Path, env: dict) -> float:
    """Scaled wall time of a fresh interpreter that imports chasegoal and
    exits."""
    before = calibrate(tries=1)
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import chasegoal"], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        fail("cannot import chasegoal from %s: %s" % (root / "src", proc.stderr.strip()[-500:]))
    return elapsed * scale([before, calibrate(tries=1)])


class Child:
    """The process of one mode, driven one command at a time."""

    def __init__(self, root, env, work, workload, mode, trace):
        self.mode = mode
        self.spans = work / ("spans-%s.json" % mode)
        self.stderr = open(work / ("stderr-%s.txt" % mode), "w", encoding="utf-8")
        cmd = [
            sys.executable, str(HERE / "child.py"), "--dir", str(work), "--query", workload.query,
            "--una", str(int(workload.una)), "--mode", mode, "--trace", str(trace),
            "--spans", str(self.spans),
        ]
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, stderr=self.stderr, text=True)
        self.last = {"status": "ok", "samples": 0, "traced_samples": 0}
        self.lost = None

    def ask(self, command: str, timeout: float) -> "dict | None":
        """Send one command and wait for its one-line answer; None if the
        process died or overran `timeout`, after which it is killed."""
        if self.lost is None:
            try:
                self.proc.stdin.write(command + "\n")
                self.proc.stdin.flush()
                ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
                line = self.proc.stdout.readline() if ready else ""
                if line:
                    return json.loads(line)
                self.lost = "overran %.0f s" % timeout if not ready else "exited"
            except BrokenPipeError:
                self.lost = "exited"
            self.proc.kill()
        return None

    def turn(self, queries: int, timeout: float):
        answer = self.ask("run %d" % queries, timeout)
        self.last = answer if answer is not None else dict(self.last, status="lost")

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.stderr.close()

    def finish(self, timeout: float) -> dict:
        res = self.ask("finish", timeout)
        self.close()
        if res is None:
            err = (self.spans.parent / ("stderr-%s.txt" % self.mode)).read_text(encoding="utf-8")
            res = {"mode": self.mode, "status": "error", "attempted": 1, "samples": [],
                   "scaled_samples": [], "traced_samples": [], "trip": None, "mismatches": [], "layers": {},
                   "peak_rss_mb": 0.0, "answers": None,
                   "error": "process %s: %s" % (self.lost, err.strip()[-2000:])}
        return res


def plan(workload, modes, seconds: float, trace: int) -> "list[dict[str, int]]":
    """The rounds of a run, each the number of queries of each mode.  The
    modes share about `seconds` of queries on the reference host equally, and
    each mode makes at least one query a round, in MIN_SAMPLES rounds (twice
    as many with tracing, where every other query is traced)."""
    rounds = MIN_SAMPLES * (2 if trace else 1)
    total = {
        m: max(rounds, round(seconds / len(modes) / workload.query_s[m]) if m in workload.query_s else 0)
        for m in modes
    }
    return [{m: t // rounds + (i < t % rounds) for m, t in total.items()} for i in range(rounds)]


def tail(samples):
    """Highest percentile with at least ten samples beyond it, or the max."""
    s = sorted(samples)
    if len(s) >= 20:
        p = 100 * (1 - 10 / len(s))
        return "p%d" % p, s[int(len(s) * p / 100)]
    return "max", s[-1]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "chasegoal" / "__init__.py").is_file():
        fail("run from the root of a chasegoal checkout (no src/chasegoal here)")
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")

    work = root / ".bench_work" / ("%s-%d" % (args.workload, args.seed))
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](work, args.seed)

    # Each mode first makes its untimed warm-up query, then the modes that
    # did not trip get turns in rotation, a fixed number of queries each,
    # with two set-up samples after each round (plan()).  The number of
    # queries depends only on the workload and --seconds, so every run of a
    # workload attempts the same.  Only one query runs at a time.
    import_time(root, env)  # the first import also compiles the byte code
    children = [Child(root, env, work, workload, m, args.trace) for m in MODES]
    try:
        deadline = start + RUN_DEADLINE_S
        for child in children:
            child.turn(1, max(5.0, deadline - time.perf_counter()))
        live = [c for c in children if c.last["status"] == "ok"]
        rounds = plan(workload, [c.mode for c in live], args.seconds, args.trace)
        setup = []
        for done, counts in enumerate(rounds, 1):
            for child in live:
                if child.last["status"] == "ok":
                    child.turn(counts[child.mode], max(5.0, deadline - time.perf_counter()))
            setup += [import_time(root, env) for _ in range(2)]
            if time.perf_counter() > deadline and done < len(rounds):
                print("  deadline: stopped after %d of %d rounds" % (done, len(rounds)))
                break
        results = {c.mode: c.finish(max(5.0, deadline + 5 - time.perf_counter())) for c in children}
    finally:
        for child in children:
            child.close()
    setup_s = statistics.median(setup)
    (work / "results.json").write_text(json.dumps({"setup": setup, "modes": results}), encoding="utf-8")

    problems: list[str] = []
    attempted = failed = 0
    for mode, r in results.items():
        attempted += r["attempted"]
        if r["status"] == "error":
            failed += 1
            problems.append("%s: child failed: %s" % (mode, r.get("error")))
        elif r["status"] == "tripped":
            failed += 1
        if r["status"] == "ok" and not r["samples"]:
            problems.append("%s: no timed query finished before the deadline" % mode)
        problems += ["%s: %s" % (mode, m) for m in r["mismatches"]]
        if r.get("answers") is not None:
            got = {tuple(a) for a in r["answers"]}
            if got != workload.expected:
                failed += r["attempted"] - (r["status"] != "ok")
                problems.append(
                    "%s: %d answers, expected %d (missing %s, extra %s)"
                    % (mode, len(got), len(workload.expected),
                       sorted(workload.expected - got)[:5], sorted(got - workload.expected)[:5])
                )
    problems += check_counts_record(root, args.workload, results)

    if args.trace:
        metrics, extra = layer_metrics(results)
        problems += ["per-layer metric %s was not measured" % k for k in PER_LAYER if k not in metrics]
    else:
        metrics, extra = end_to_end(results, setup_s), {}

    print("workload %s, seed %d, %d s per run, %s" % (
        args.workload, args.seed, int(args.seconds), "traced" if args.trace else "untraced"))
    for mode, r in results.items():
        if r["status"] == "tripped":
            t = r["trip"]
            print("  %-5s tripped: %s budget in %s after %.2f s wall (charged %d derived facts)"
                  % (mode, t["cause"], t["stage"], t["after_s"], t["charged_facts"]))
        elif r["samples"]:
            name, value = tail(r["samples"])
            print("  %-5s %d samples, median %.4f s scaled, %.4f s wall, wall %s %.4f s, counts %s" % (
                mode, len(r["samples"]), statistics.median(r["scaled_samples"]),
                statistics.median(r["samples"]), name, value, r["counts"]))
    for p in problems:
        print("  FAIL " + p)

    for name, value in sorted(metrics.items()) + sorted(extra.items()):
        print("  %-34s %14.6g %s" % (name, value, unit_of(name)))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
    }))
    print("  (%.1f s)" % (time.perf_counter() - start), file=sys.stderr)


def end_to_end(results, setup_s) -> dict:
    m = {"setup_s": setup_s}
    derived = {}
    for mode, r in results.items():
        if r["status"] == "ok":
            m["answer_s." + mode] = statistics.median(r["scaled_samples"])
            derived[mode] = r["counts"]["derived_facts"]
        else:
            m["answer_s." + mode] = r["trip"]["scaled_after_s"] if r["trip"] else 0.0
            derived[mode] = r["trip"]["charged_facts"] if r["trip"] else 0
        m["peak_rss_mb." + mode] = r["peak_rss_mb"]
        m["derived_facts." + mode] = derived[mode]
    m["focus_ratio"] = derived["mat"] / derived["all"]
    m["answered_share"] = sum(r["status"] == "ok" for r in results.values()) / len(results)
    return m


def layer_metrics(results):
    """(metrics every workload reports, values only some workloads have)."""
    pooled: dict = {}
    out: dict = {}
    for mode, r in results.items():
        layers = r["layers"]
        for k, v in layers.items():
            if k in SHARED:
                pooled.setdefault(k, []).append(v)
            elif k in PER_MODE:
                out["%s.%s" % (k, mode)] = v
        if r["status"] == "ok" and r["traced_samples"]:
            out["trace.overhead." + mode] = (
                statistics.median(r["traced_samples"]) / statistics.median(r["samples"])
            )
            out["trace.coverage." + mode] = layers["coverage"]
    out.update({k: statistics.median(v) for k, v in pooled.items()})
    return {k: v for k, v in out.items() if k in PER_LAYER}, {
        k: v for k, v in out.items() if k not in PER_LAYER
    }


def check_counts_record(root: Path, workload: str, results) -> "list[str]":
    """Counts must repeat exactly across runs of the same code: the first run
    in a checkout records them, later runs compare."""
    counts = {m: r["counts"] for m, r in results.items() if r["status"] == "ok"}
    record = root / ".bench_work" / ("counts-%s-%s.json" % (workload, source_digest(root)))
    if not record.exists():
        record.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")
        return []
    earlier = json.loads(record.read_text(encoding="utf-8"))
    return [
        "%s: counts %s differ from an earlier run's %s" % (m, c, earlier[m])
        for m, c in counts.items()
        if m in earlier and earlier[m] != c
    ]


if __name__ == "__main__":
    main()
