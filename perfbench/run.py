#!/usr/bin/env python3
"""Affidavit benchmark: whole searches, one at a time, on a local Spark master.

    python3 perfbench/run.py --workload fig1 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The benchmark starts one Spark session (``local[min(4, cores)]``, 8 shuffle
partitions, ``repro.bench.session.build_session``), builds the workload's
instance from ``--seed``, warms up, and then runs rounds of the workload's
searches in a single driver thread until ``--seconds`` would be exceeded
(at least one round). Every explanation is checked by
``validity.explanation_errors``.

``--trace 0`` prints the end-to-end metrics; each search runs in one Spark
job group. ``--trace 1`` runs one traced and one untraced round and prints
the per-layer metrics (``spans.py``), checking that the per-layer jobs sum
exactly to the untraced run's Spark jobs and that both find the same
explanation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment. The exit code is 0 only if every check passed.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_tmp" / str(os.getpid())

CORES = min(4, os.cpu_count() or 1)
SHUFFLE_PARTITIONS = 8
DRIVER_MEMORY = "2g"
SETUP_REPEATS = 3  # instance builds per run; set-up reports their median
IDLE_GROUP = "perfbench-idle"

END_TO_END_UNITS = {
    "wall_s": "s",
    "spark_jobs": "count",
    "dcosts": "ratio",
    "dcore": "ratio",
    "acc": "ratio",
    "setup_s": "s",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def configure_environment() -> None:
    """Import the program from the checkout and keep Spark's JVM, its Python
    workers and every temporary file inside it. Must run before pyspark
    launches the JVM."""
    if not (SRC / "repro" / "core" / "affidavit.py").is_file():
        raise SystemExit(f"perfbench: program sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    tmp = WORK_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK_DIR / "local")
    os.environ["SPARK_MASTER"] = f"local[{CORES}]"
    os.environ["SPARK_SHUFFLE_PARTITIONS"] = str(SHUFFLE_PARTITIONS)
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{CORES}]",
            f"--driver-memory {DRIVER_MEMORY}",
            f"--driver-java-options {shlex.quote(java_opts)}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            # Jobs are counted per job group after each search, so the
            # status store must keep every job and stage of the run.
            "--conf spark.ui.retainedJobs=1000000",
            "--conf spark.ui.retainedStages=1000000",
            "--conf " + shlex.quote(f"spark.sql.warehouse.dir={WORK_DIR / 'warehouse'}"),
            "pyspark-shell",
        ]
    )


@dataclass
class SearchResult:
    name: str
    wall_s: float
    jobs: int
    cost: float
    errors: list
    dcosts: float = 0.0
    dcore: float = 0.0
    acc: float = 0.0
    diag: object = None


class Bench:
    """One Spark session and the workload's searches."""

    def __init__(self, workload_name: str, seed: int):
        from repro.bench.session import build_session
        from workloads import WORKLOADS

        if workload_name not in WORKLOADS:
            raise SystemExit(
                f"perfbench: unknown workload {workload_name!r}; "
                f"choose from {', '.join(WORKLOADS)}"
            )
        self.build_searches = WORKLOADS[workload_name]
        self.seed = seed
        t0 = time.perf_counter()
        self.spark = build_session("perfbench")
        self.sc = self.spark.sparkContext
        self.sc.setLogLevel("ERROR")
        self.sc.setJobGroup(IDLE_GROUP, "perfbench set-up and checks")
        self.session_s = time.perf_counter() - t0
        self._groups = 0

    # -- set-up ---------------------------------------------------------
    def build(self) -> float:
        """Build the workload's instance SETUP_REPEATS times (keeping the
        last) and return the median build time. Record counts are
        materialised here so every round makes the same Spark jobs."""
        times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            searches = self.build_searches(self.spark, self.seed)
            for s in searches:
                s.problem.n_source, s.problem.n_target
            times.append(time.perf_counter() - t0)
        self.searches = searches
        return statistics.median(times)

    def warm_up(self) -> float:
        """Run every layer once on Figure 1 (one poll of the Hs search and
        the final conversion) so code generation, the JIT and the Python
        workers are warm before anything is timed."""
        from repro.bench.running_example import running_example_problem
        from repro.core import AffidavitConfig, Identity, run_affidavit
        from repro.core.explanation import explanation_from_functions

        t0 = time.perf_counter()
        problem = running_example_problem(self.spark)
        cfg = AffidavitConfig(start="overlap", beta=1, queue_width=1, seed=1, max_polls=1)
        run_affidavit(problem, cfg)
        expl = explanation_from_functions(problem, tuple(Identity() for _ in problem.attrs))
        expl.core_pairs.unpersist()
        return time.perf_counter() - t0

    # -- searches -------------------------------------------------------
    def _group(self) -> str:
        self._groups += 1
        return f"perfbench-search-{self._groups}"

    def count_jobs(self, group: str) -> int:
        from spans import wait_for_job_events

        wait_for_job_events(self.sc)
        return len(self.sc.statusTracker().getJobIdsForGroup(group))

    def run_search(self, search, tracer=None) -> SearchResult:
        """One whole search, timed from the call to ``run_affidavit`` until
        the explanation is returned, then checked and scored."""
        from repro.core import run_affidavit
        from validity import explanation_errors

        group = self._group()
        self.sc.setJobGroup(group, search.name)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                expl, diag = run_affidavit(search.problem, search.config)
            else:
                with tracer.span("affidavit"):
                    expl, diag = run_affidavit(search.problem, search.config)
        except Exception:
            traceback.print_exc()
            self.sc.setJobGroup(IDLE_GROUP, "perfbench checks")
            return SearchResult(search.name, time.perf_counter() - t0, 0, 0.0, ["search raised"])
        wall = time.perf_counter() - t0
        self.sc.setJobGroup(IDLE_GROUP, "perfbench checks")
        jobs = self.count_jobs(group)
        alpha = search.config.alpha
        errors = explanation_errors(search.problem, expl, alpha=alpha)
        if diag.end_state is None:
            errors.append("max_polls ran out: trivial explanation returned")
        scores = search.score(expl)
        if expl.core_pairs is not None:
            expl.core_pairs.unpersist()  # the program caches it and never releases it
        return SearchResult(
            search.name, wall, jobs, expl.cost(alpha), errors,
            scores.dcosts, scores.dcore, scores.acc, diag,
        )

    def run_round(self, tracer=None) -> list[SearchResult]:
        return [self.run_search(s, tracer) for s in self.searches]

    # -- environment and teardown ---------------------------------------
    def peak_rss_mb(self) -> float:
        """Peak resident set of the driver JVM plus this Python process."""
        from pyspark import SparkContext

        jvm_kb = 0
        with open(f"/proc/{SparkContext._gateway.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    jvm_kb = int(line.split()[1])
        py_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (jvm_kb + py_kb) / 1024

    def environment(self) -> dict:
        import pandas
        import pyspark

        conf = self.spark.conf
        return {
            "host_cores": os.cpu_count(),
            "master": self.sc.master,
            "shuffle_partitions": int(conf.get("spark.sql.shuffle.partitions")),
            "driver_memory": self.sc.getConf().get("spark.driver.memory", DRIVER_MEMORY),
            "spark": pyspark.__version__,
            "pandas": pandas.__version__,
            "python": sys.version.split()[0],
            "git_sha": git_sha(),
        }

    def stop(self) -> None:
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        self.spark.stop()
        if gateway is not None:
            proc = gateway.proc
            gateway.shutdown()
            proc.stdin.close()  # the JVM exits when its stdin closes
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return out.stdout.strip() or "unknown"


def round_summary(results: list[SearchResult]) -> dict:
    n = len(results)
    return {
        "wall_s": sum(r.wall_s for r in results),
        "spark_jobs": sum(r.jobs for r in results),
        "dcosts": sum(r.dcosts for r in results) / n,
        "dcore": sum(r.dcore for r in results) / n,
        "acc": sum(r.acc for r in results) / n,
        "costs": [r.cost for r in results],
    }


def measure(bench: Bench, seconds: float) -> tuple[list[dict], list[SearchResult]]:
    """Rounds until the next one would end after ``seconds`` (at least one)."""
    start = time.perf_counter()
    rounds, results = [], []
    while True:
        res = bench.run_round()
        results += res
        rounds.append(round_summary(res))
        left = seconds - (time.perf_counter() - start)
        if left < statistics.median(r["wall_s"] for r in rounds):
            return rounds, results


def end_to_end(bench: Bench, args, setup_s: float) -> tuple[dict, list[SearchResult], list[str]]:
    rounds, results = measure(bench, args.seconds)
    problems = []
    first = rounds[0]
    for r in rounds[1:]:
        for k in ("spark_jobs", "costs", "dcosts", "dcore", "acc"):
            if r[k] != first[k]:
                problems.append(f"{k} differs between rounds: {first[k]} vs {r[k]}")
    print(f"rounds: {len(rounds)}, wall_s per round: {[round(r['wall_s'], 3) for r in rounds]}")
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "spark_jobs": first["spark_jobs"],
        "dcosts": first["dcosts"],
        "dcore": first["dcore"],
        "acc": first["acc"],
        "setup_s": setup_s,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, results, problems


def per_layer(bench: Bench) -> tuple[dict, list[SearchResult], list[str]]:
    from spans import DRIVER_ONLY, LAYERS, ROOT as ROOT_SPAN, STATE_OVERLAP, traced

    # Traced first: the untraced round then runs at least as warm, so the
    # reported overhead errs high rather than low.
    with traced(bench.sc) as tracer:
        tr = bench.run_round(tracer)
    plain = bench.run_round()
    totals = tracer.layer_totals()
    problems = []
    plain_jobs = sum(r.jobs for r in plain)
    layer_jobs = sum(t["jobs"] for t in totals.values())
    if layer_jobs != plain_jobs:
        problems.append(f"per-layer jobs sum to {layer_jobs}, untraced search made {plain_jobs}")
    if [r.cost for r in tr] != [r.cost for r in plain]:
        problems.append("traced and untraced searches found different explanations")

    m: dict[str, tuple[float, str]] = {}
    zero = {"calls": 0, "self_s": 0.0, "jobs": 0}
    for layer in [*LAYERS.values(), STATE_OVERLAP]:
        t = totals.get(layer, zero)
        m[f"{layer}.calls"] = (t["calls"], "count")
        m[f"{layer}.self_s"] = (t["self_s"], "s")
        if layer not in DRIVER_ONLY:
            m[f"{layer}.jobs"] = (t["jobs"], "count")
    pairs = totals.get("blocking.evaluate_pairs", {}).get("pairs", 0)
    m["blocking.evaluate_pairs.pairs"] = (pairs, "count")
    m["candidates.induce_attr_candidates.candidates"] = (
        totals.get("candidates.induce_attr_candidates", {}).get("candidates", 0), "count"
    )
    diags = [r.diag for r in tr if r.diag is not None]
    polls = sum(d.polls for d in diags)
    generated = sum(d.generated for d in diags)
    root = totals.get(ROOT_SPAN, zero)
    m["candidates.kept_ratio"] = (generated / pairs if pairs else 0.0, "ratio")
    m["affidavit.polls"] = (polls, "count")
    m["affidavit.generated"] = (generated, "count")
    m["affidavit.finalized"] = (sum(d.finalized for d in diags), "count")
    m["affidavit.jobs"] = (root["jobs"], "count")
    m["affidavit.jobs_per_poll"] = (layer_jobs / polls if polls else 0.0, "count")
    m["affidavit.self_s"] = (root["self_s"], "s")
    tasks, failed_tasks = task_counts(bench.sc, tracer)
    m["spark.jobs"] = (plain_jobs, "count")
    m["spark.tasks"] = (tasks, "count")
    m["spark.failed_tasks"] = (failed_tasks, "count")
    m["driver.peak_rss_mb"] = (bench.peak_rss_mb(), "MB")
    m["trace.overhead_s"] = (
        sum(r.wall_s for r in tr) - sum(r.wall_s for r in plain), "s"
    )
    return m, plain + tr, problems


def task_counts(sc, tracer) -> tuple[int, int]:
    """Completed and failed tasks over the stages of the traced jobs."""
    tracker = sc.statusTracker()
    stages = set()
    for ids in tracer.job_ids().values():
        for jid in ids:
            info = tracker.getJobInfo(jid)
            if info is not None:
                stages.update(info.stageIds)
    done = failed = 0
    for sid in stages:
        st = tracker.getStageInfo(sid)
        if st is not None:
            done += st.numCompletedTasks
            failed += st.numFailedTasks
    return done, failed


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    configure_environment()
    bench = Bench(args.workload, args.seed)
    try:
        warm_s = bench.warm_up()
        build_s = bench.build()
        setup_s = bench.session_s + warm_s + build_s
        print(
            f"set-up: session {bench.session_s:.2f} s, warm-up {warm_s:.2f} s, "
            f"instance build (median of {SETUP_REPEATS}) {build_s:.2f} s"
        )
        if args.trace:
            metrics, results, problems = per_layer(bench)
        else:
            metrics, results, problems = end_to_end(bench, args, setup_s)
        env = bench.environment()
    finally:
        bench.stop()
        shutil.rmtree(WORK_DIR, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.parent.rmdir()  # only if no other run is using it

    failed = 0
    for r in results:
        if r.errors:
            failed += 1
            problems += [f"{r.name}: {e}" for e in r.errors]
    for p in problems:
        print(f"CHECK FAILED: {p}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    correct = not problems
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(results),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
