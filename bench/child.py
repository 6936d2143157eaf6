"""One (workload, mode) of the benchmark, run in a process of its own.

Started by run.py with PYTHONPATH pointing at the checkout's `src`, and
driven over stdin: run.py hands each of the four mode processes a turn of
a fixed number of queries in rotation, so every mode samples the whole
run.  The process checks a wall-clock and a memory budget around every
query, so a mode that cannot finish ends with a recorded trip (cause and
stage) instead of being killed by the operating system.

A query is what a user runs: `load_scenario` on the generated files, then
`run_pipeline`, then `emit_report`.  With --trace 1 the process also runs
traced queries, which call the same layer functions in the order
`run_pipeline` calls them and record one span per call; the spans stay in
memory and are written to --spans when the mode finishes.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

from chasegoal import (
    AbstractionFixpointDiverged,
    DepthLimitExceeded,
    FactLimitExceeded,
    Limits,
    MagicPredicate,
    PipelineConfig,
    PipelineError,
    Program,
    RunReport,
    abstract_functions_to_constants,
    chase,
    check_eq_safety,
    critical_instance,
    defunctionalize,
    desingularize,
    emit_report,
    extract_answers,
    load_scenario,
    magic,
    relevance,
    run_pipeline,
    singularize,
    skolemize,
)
from chasegoal.kernel import Instance

from calibration import calibrate, scale

# Budget of one query.  Memory is checked every TICK_S against the peak
# resident size, so a query that grows trips at about the same size on every
# run; the address-space cap is a last resort behind it.  The slowest query
# that finishes today (magic on the chain) takes about 2.5-4 s and 45 MB; the
# finishing query with the largest peak (mat on campus) takes 60 MB.
# The host speed is measured every CALIBRATE_S of a turn, between queries
# and, on a tick, inside untraced ones, so that a query (or the time to a
# trip) is scaled by the speed over its whole span.
WALL_BUDGET_S = 30.0
MEMORY_BUDGET_MB = 96
ADDRESS_SPACE_CAP = 1 << 30
TICK_S = 0.05
CALIBRATE_S = 0.2
# The program's own fact guard, and the derived-fact count a tripped query
# is charged with.
FACT_BUDGET = 1_000_000

# Stage names of run_pipeline mapped to the layer spans of the traced path.
STAGE_LAYER = {
    "sg": "eqprep.singularize",
    "sk": "eqprep.skolemize",
    "rel": "relevance",
    "magic": "magic",
    "defun": "finalize.defun",
    "desg": "finalize.desg",
    "chase": "chase",
}
GUARDS = (DepthLimitExceeded, FactLimitExceeded, AbstractionFixpointDiverged)


class Tripped(Exception):
    """The query ran out of its budget."""

    def __init__(self, cause: str, stage: str):
        super().__init__("%s budget tripped in %s" % (cause, stage))
        self.cause = cause
        self.stage = stage


class Budget:
    """Wall-clock and memory budget of one query, checked on a timer signal."""

    def __init__(self):
        self.started = None
        self.calibrating = False
        self.speeds: list = []  # calibration job seconds measured in this turn
        self.calibrated = 0.0   # when the last of them ended
        self.paused = 0.0       # seconds the current query spent measuring them
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        if self.started is None:
            return
        if self.calibrating:
            self.paused += self.sample_speed()
        cause = None
        if time.perf_counter() - self.started > WALL_BUDGET_S:
            cause = "wall"
        elif resource.getrusage(resource.RUSAGE_SELF).ru_maxrss > MEMORY_BUDGET_MB * 1024:
            cause = "memory"
        if cause:
            self.started = None  # raise once; later ticks are no-ops
            raise Tripped(cause, "?")

    def sample_speed(self) -> float:
        """Measure the host speed if CALIBRATE_S has passed since the last
        measurement; returns the seconds that took."""
        t0 = time.perf_counter()
        if t0 - self.calibrated < CALIBRATE_S:
            return 0.0
        self.speeds.append(calibrate(tries=1))
        self.calibrated = time.perf_counter()
        return self.calibrated - t0

    @contextmanager
    def __call__(self, calibrating: bool = False):
        self.calibrating = calibrating
        self.paused = 0.0
        self.started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self.started = None


def as_trip(err: BaseException, stage: str) -> "Tripped | None":
    """The budget trip behind an exception raised in `stage`, if it is one."""
    if isinstance(err, PipelineError):
        return as_trip(err.cause, STAGE_LAYER.get(err.stage, err.stage))
    if isinstance(err, Tripped):
        return Tripped(err.cause, stage)
    if isinstance(err, MemoryError):
        return Tripped("memory", stage)
    if isinstance(err, GUARDS):
        return Tripped("guard:" + type(err).__name__, stage)
    return None


class Query:
    """The inputs and configuration shared by every query of one mode."""

    def __init__(self, args):
        self.rules = Path(args.dir) / "rules.txt"
        self.data = Path(args.dir) / "data"
        self.query = args.query
        self.una = args.una
        self.out = Path(args.dir) / ("out-" + args.mode)
        self.cfg = PipelineConfig(mode=args.mode, limits=Limits(max_facts=FACT_BUDGET))
        self.budget = Budget()

    def load(self):
        return load_scenario(self.rules, self.data, self.query, una_known=self.una)


def counts_of(rule_counts, stats) -> dict:
    out = {"rules." + k: v for k, v in sorted(rule_counts.items())}
    out.update(
        derived_facts=stats.derived_facts,
        rule_applications=stats.rule_applications,
        merges=stats.merges,
        iterations=stats.iterations,
    )
    return out


# ---------------------------------------------------------------------------
# Untraced query: the user's path
# ---------------------------------------------------------------------------


def plain_query(q: Query):
    stage = "frontend.load"
    try:
        with q.budget(calibrating=True):
            t0 = time.perf_counter()
            scenario = q.load()
            stage = "pipeline"
            report = run_pipeline(scenario, q.cfg)
            stage = "driver.report"
            emit_report(report, q.out)
            elapsed = time.perf_counter() - t0 - q.budget.paused
    except Exception as err:  # noqa: BLE001 - sorted into trip or error below
        trip = as_trip(err, stage)
        if trip is None:
            raise
        raise trip from err
    return elapsed, report.answers, counts_of(report.rule_counts, report.chase_stats)


# ---------------------------------------------------------------------------
# Traced query: the same calls, one span each
# ---------------------------------------------------------------------------


class Tracer:
    """Spans in memory: [name, start, end, parent index, query id]."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.raised_in = None   # innermost span an exception left

    @contextmanager
    def span(self, name: str, qid: int):
        parent = self.stack[-1] if self.stack else None
        rec = [name, time.perf_counter(), None, parent, qid]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        except BaseException:
            self.raised_in = self.raised_in or name
            raise
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()


def _checked(name: str, program, tracer: Tracer, qid: int):
    with tracer.span("eqprep.safety_check", qid):
        violations = check_eq_safety(program)
    if violations:
        _, atom, why = violations[0]
        raise RuntimeError("equality safety lost after %s: %r (%s)" % (name, atom, why))
    return program


def traced_query(q: Query, tracer: Tracer, qid: int):
    """Returns (answers, counts, layer values) of one traced query."""
    cfg = q.cfg
    span = tracer.span
    stages: dict = {}
    timings: dict = {}
    retried = False
    tracer.raised_in = None

    def stage(name, layer, fn):
        t0 = time.perf_counter()
        with span(layer, qid):
            result = fn()
        stages[name] = result
        timings[name] = time.perf_counter() - t0
        return result

    try:
        with q.budget(), span("driver.query", qid):
            with span("frontend.load", qid):
                sc = q.load()
            una = sc.una_known if cfg.una_known is None else cfg.una_known
            typed = (sc.schema is not None) if cfg.typed_critical is None else cfg.typed_critical

            sg = stage("sg", "eqprep.singularize", lambda: singularize(sc.rules, sc.query))
            _checked("sg", sg, tracer, qid)
            sk = stage("sk", "eqprep.skolemize", lambda: skolemize(sg, sc.query))
            current = _checked("sk", sk, tracer, qid)

            if cfg.mode in ("rel", "all"):

                def run_relevance(abstract):
                    return relevance(
                        sk, sc.instance, una_known=una, typed=typed, schema=sc.schema,
                        abstract_functions=abstract, fixpoint_limits=cfg.relevance_limits,
                    )

                def relevance_with_retry():
                    nonlocal retried
                    try:
                        return run_relevance(cfg.defun_abstraction)
                    except AbstractionFixpointDiverged:
                        if cfg.defun_abstraction:
                            raise
                        retried = True
                        return run_relevance(True)

                current = _checked("rel", stage("rel", "relevance", relevance_with_retry), tracer, qid)
            if cfg.mode in ("magic", "all"):
                p = current
                current = _checked("magic", stage("magic", "magic", lambda: magic(p)), tracer, qid)
            p = current
            defun = stage("defun", "finalize.defun", lambda: defunctionalize(p))
            final = stage("desg", "finalize.desg", lambda: desingularize(defun))
            result = stage("chase", "chase", lambda: chase(final, sc.instance, cfg.limits, cfg.seed))
            with span("driver.answers", qid):
                answers = tuple(
                    sorted(tuple(c.name for c in t) for t in extract_answers(result, sc.query))
                )
            rule_counts = {
                name: len(prog.rules if isinstance(prog, Program) else prog)
                for name, prog in stages.items()
                if name != "chase"
            }
            report = RunReport(
                mode=cfg.mode, query=sc.query.name, answers=answers, rule_counts=rule_counts,
                timings=timings, chase_stats=result.stats,
                stages={k: v for k, v in stages.items() if k != "chase"},
                chase_result=result, relevance_retried=retried,
            )
            with span("driver.report", qid):
                emit_report(report, q.out)
    except Exception as err:  # noqa: BLE001 - sorted into trip or error below
        trip = as_trip(err, tracer.raised_in or "?")
        if trip is None:
            raise
        values = probes(q, sc, sk, stages, retried, tracer, qid) if "sk" in stages else {}
        raise TripWithValues(trip, values) from err

    values = probes(q, sc, sk, stages, retried, tracer, qid)
    s = result.stats
    values.update(
        {
            "chase.derived_facts": s.derived_facts,
            "chase.rule_applications": s.rule_applications,
            "chase.merges": s.merges,
            "chase.iterations": s.iterations,
            "chase.useful_ratio": s.derived_facts / s.rule_applications if s.rule_applications else 0.0,
            "chase.final_facts": len(result.instance),
        }
    )
    return answers, counts_of(rule_counts, s), values


class TripWithValues(Exception):
    def __init__(self, trip: Tripped, values: dict):
        super().__init__(str(trip))
        self.trip = trip
        self.values = values


def probes(q: Query, sc, sk, stages, retried, tracer: Tracer, qid: int) -> dict:
    """Counts and probe timings at the layer boundaries, outside the query's
    own span: index build, critical instance size, base ingest."""
    values = {
        "frontend.base_facts": len(sc.instance),
        "frontend.rules": len(sc.rules),
        "eqprep.rules": len(sk.rules),
    }
    with tracer.span("probe", qid):
        with tracer.span("kernel.index", qid):
            Instance(list(sc.instance))
        if "rel" in stages:
            analysis = abstract_functions_to_constants(sk) if retried else sk
            typed = sc.schema is not None if q.cfg.typed_critical is None else q.cfg.typed_critical
            with tracer.span("relevance.critical", qid):
                values["relevance.critical_facts"] = len(
                    critical_instance(analysis, sc.instance, typed, sc.schema)
                )
            values["relevance.kept_ratio"] = len(stages["rel"].rules) / len(sk.rules)
            values["relevance.retried"] = int(retried)
        if "magic" in stages:
            heads = {r.head.predicate for r in stages["magic"].rules}
            values["magic.rules"] = len(stages["magic"].rules)
            values["magic.demand_predicates"] = sum(isinstance(p, MagicPredicate) for p in heads)
        if "desg" in stages:
            values["finalize.rules"] = len(stages["desg"].rules)
            with tracer.span("chase.ingest", qid):
                chase(Program((), sc.query), sc.instance, q.cfg.limits)
    return values


def span_values(tracer: Tracer, first: int) -> dict:
    """Per-layer times of the traced query whose spans start at index
    `first`; its root span is the first one."""
    mine = tracer.spans[first:]
    total = {}
    for name, start, end, _, _ in mine:
        total[name] = total.get(name, 0.0) + (end - start)
    covered = sum(s[2] - s[1] for s in mine if s[3] == first)
    out = {
        "frontend.load_s": total.get("frontend.load"),
        "kernel.index_s": total.get("kernel.index"),
        "eqprep.singularize_s": total.get("eqprep.singularize"),
        "eqprep.skolemize_s": total.get("eqprep.skolemize"),
        "eqprep.safety_check_s": total.get("eqprep.safety_check"),
        "relevance.s": total.get("relevance"),
        "magic.s": total.get("magic"),
        "finalize.defun_s": total.get("finalize.defun"),
        "finalize.desg_s": total.get("finalize.desg"),
        "chase.s": total.get("chase"),
        "chase.ingest_s": total.get("chase.ingest"),
        "driver.answers_s": total.get("driver.answers"),
        "driver.report_s": total.get("driver.report"),
        "query_s": total["driver.query"],
        "coverage": covered / total["driver.query"],
    }
    if out["chase.s"] is not None and out["chase.ingest_s"] is not None:
        out["chase.rounds_s"] = out["chase.s"] - out["chase.ingest_s"]
    return {k: v for k, v in out.items() if v is not None}


# ---------------------------------------------------------------------------
# One mode, driven over stdin
# ---------------------------------------------------------------------------


class Mode:
    """The queries of one mode so far.  Query 0 is an untimed warm-up and
    the reference for answers and counts; with tracing it is traced, so that
    a mode that trips still measures the stages before the trip, and traced
    and untraced queries alternate after it."""

    def __init__(self, args):
        self.q = Query(args)
        self.trace = args.trace
        self.tracer = Tracer()
        self.per_layer: list = []
        self.qid = 0
        self.res = {
            "mode": args.mode,
            "status": "ok",
            "trip": None,
            "error": None,
            "attempted": 0,
            "samples": [],
            "traced_samples": [],
            "scaled_samples": [],
            "calibration": [],      # job seconds measured in each turn
            "answers": None,
            "counts": None,
            "mismatches": [],
        }

    def _check(self, answers, counts, what):
        res = self.res
        answers = [list(a) for a in answers]
        if res["answers"] is None:
            res["answers"], res["counts"] = answers, counts
            return
        if answers != res["answers"]:
            res["mismatches"].append("%s: answers differ from the first query" % what)
        if counts != res["counts"]:
            res["mismatches"].append(
                "%s: counts differ from the first query: %s != %s" % (what, counts, res["counts"])
            )

    def _trip(self, t: Tripped, started: float, since: int):
        after_s = time.perf_counter() - started - self.q.budget.paused
        self.res["status"] = "tripped"
        self.res["trip"] = {"cause": t.cause, "stage": t.stage, "after_s": after_s,
                            "charged_facts": FACT_BUDGET}
        self.unscaled.append((after_s, since, len(self.q.budget.speeds)))

    def query(self):
        res, qid = self.res, self.qid
        traced = self.trace and qid % 2 == 0
        res["attempted"] += 1
        self.qid += 1
        first_span = len(self.tracer.spans)
        # The query is scaled by the speed samples from the last one before
        # it to the first one after it.
        since = len(self.q.budget.speeds) - 1
        started = time.perf_counter()
        try:
            if traced:
                answers, counts, values = traced_query(self.q, self.tracer, qid)
                self._check(answers, counts, "traced query %d" % qid)
                if qid > 0:
                    values.update(span_values(self.tracer, first_span))
                    self.per_layer.append(values)
                    res["traced_samples"].append(values["query_s"])
            else:
                elapsed, answers, counts = plain_query(self.q)
                self._check(answers, counts, "query %d" % qid)
                if qid > 0:
                    res["samples"].append(elapsed)
                    self.unscaled.append((elapsed, since, len(self.q.budget.speeds)))
        except Tripped as t:
            self._trip(t, started, since)
        except TripWithValues as tv:
            self._trip(tv.trip, started, since)
            tv.values.update(span_values(self.tracer, first_span))
            self.per_layer.append(tv.values)
        except Exception:  # noqa: BLE001 - reported to the parent, which fails the run
            res["status"] = "error"
            res["error"] = traceback.format_exc(limit=8)

    def run(self, n: int) -> dict:
        """`n` queries, or fewer if one trips or errs.  Their times are
        scaled by the host speed measured before, during and after them."""
        res = self.res
        budget = self.q.budget
        budget.speeds = [calibrate()]
        budget.calibrated = time.perf_counter()
        self.unscaled = []  # (seconds, first speed sample, last speed sample)
        for _ in range(n):
            self.query()
            if res["status"] != "ok":
                break
            budget.sample_speed()
        budget.speeds.append(calibrate())
        res["calibration"].append(budget.speeds)
        scaled = [t * scale(budget.speeds[lo:hi + 1]) for t, lo, hi in self.unscaled]
        if res["trip"] and "scaled_after_s" not in res["trip"]:
            res["trip"]["scaled_after_s"] = scaled.pop()
        res["scaled_samples"] += scaled
        return {k: len(v) if isinstance(v, list) else v
                for k, v in self.res.items() if k in ("status", "samples", "traced_samples")}

    def result(self) -> dict:
        res = dict(self.res)
        if self.per_layer:
            keys = sorted({k for v in self.per_layer for k in v})
            res["layers"] = {
                k: statistics.median(v[k] for v in self.per_layer if k in v) for k in keys
            }
        else:
            res["layers"] = {}
        res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dir", required=True)
    ap.add_argument("--query", required=True)
    ap.add_argument("--una", type=int, choices=(0, 1), required=True)
    ap.add_argument("--mode", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file the spans are written to at the end")
    args = ap.parse_args()
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    mode = Mode(args)
    # Commands, one per line: "run N" makes N queries and answers with the
    # status and the sample counts so far; "finish" answers with the whole
    # result and exits.
    for line in sys.stdin:
        cmd = line.split()
        if cmd[0] == "run":
            print(json.dumps(mode.run(int(cmd[1]))), flush=True)
        elif cmd[0] == "finish":
            if args.spans:
                Path(args.spans).write_text(json.dumps(mode.tracer.spans), encoding="utf-8")
            print(json.dumps(mode.result()), flush=True)
            return


if __name__ == "__main__":
    main()
