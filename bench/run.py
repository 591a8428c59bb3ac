"""c0lat benchmark: closed-loop verification jobs, one client, checked outputs.

Usage (from the repository root):

    python3 bench/run.py --workload modular-lattice --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 10

Workloads: modular-lattice, model-divisor, jordan-calculus (see
``bench/workloads.py``).  One process runs one job at a time and the next
job starts when the previous one returns; jobs are drawn from ``--seed``
and run in whole blocks of the workload's job cycle until ``--seconds``
have passed.  C0LAT_THREADS is removed from the environment, so the
suites' thread pool runs at its default width, as users and the
acceptance gate get it.

``--trace 0`` prints the end-to-end metrics, with ``setup_s`` taken from
fresh CLI launches made between blocks of the loop, and then runs the
workload's known-defect probe once, untimed and uncounted (see
``workloads.PROBES``); ``--trace 1`` runs the same
job stream under the span tracer, reruns the traced jobs untraced to get
the tracing overhead, prints per-layer metrics and writes the spans to
``bench/_work/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / "_work"
WORKLOAD_NAMES = ("modular-lattice", "model-divisor", "jordan-calculus")
# fresh CLI launches per run, spread evenly over the timed loop so that
# setup_s samples the same stretch of machine time as the jobs
SETUP_LAUNCHES = 9
# jobs whose payload bytes make up report_sha256, so runs of any length
# hash the same jobs
SHA_JOBS = 20
# share of --seconds spent in the traced pass; the untraced rerun of the
# same jobs takes the rest
TRACED_SHARE = 0.5


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# --------------------------------------------------------------------------
# environment


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _environment(suites) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "C0LAT_THREADS": f"unset (default {suites.thread_count()} workers)",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "commit": _git_commit(),
    }


# --------------------------------------------------------------------------
# set-up time: a fresh interpreter running one trivial CLI command


class Launcher:
    """Times fresh interpreters running `python -m c0lat.cli inner gcd` on
    two one-zero files and checks what they print."""

    def __init__(self):
        from c0lat.blaschke import BlaschkeProduct
        from c0lat.serialize import stable_json_bytes

        theta = BlaschkeProduct(((0.5 + 0.25j, 1),))
        paths = []
        for name in ("first.json", "second.json"):
            path = WORK / name
            path.write_bytes(stable_json_bytes(theta.to_json_dict()))
            paths.append(str(path))
        self.expected = f"{theta}\n"
        self.env = {k: v for k, v in os.environ.items() if k != "C0LAT_THREADS"}
        self.env["PYTHONPATH"] = str(SRC)
        self.cmd = [sys.executable, "-m", "c0lat.cli", "inner", "gcd", *paths]
        self.times: list = []
        self.correct = True

    def launch(self):
        start = time.perf_counter()
        done = subprocess.run(
            self.cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=60
        )
        self.times.append(time.perf_counter() - start)
        self.correct = self.correct and done.returncode == 0 and done.stdout == self.expected


# --------------------------------------------------------------------------
# the closed loop


@dataclass
class Result:
    index: int
    kind: str
    size: str
    suite: bool
    redrawn: int
    seconds: float = 0.0
    error: str | None = None
    problems: list = field(default_factory=list)
    payload: bytes = b""

    @property
    def passed(self) -> bool:
        return self.error is None and not self.problems


def _run_job(job, index, tracer=None) -> Result:
    res = Result(index, job.kind, job.size, job.suite, job.redrawn)
    if tracer is not None:
        tracer.job = index
    start = time.perf_counter()
    try:
        payload, verdict, value = job.call()
    except Exception as exc:  # a raising job is a failed job; the loop goes on
        res.seconds = time.perf_counter() - start
        res.error = f"{type(exc).__name__}: {exc}"
        res.payload = f"error:{type(exc).__name__}\n".encode()
        return res
    finally:
        if tracer is not None:
            tracer.job = None
    res.seconds = time.perf_counter() - start
    res.payload = payload
    if not verdict:
        res.problems.append("failing verdict")
    res.problems.extend(job.check(value))
    return res


def _loop(make_job, block, seed, seconds, tracer=None, pause=None, pauses=0) -> list:
    """Jobs 0, 1, ... in whole blocks until ``seconds`` of wall time pass.
    ``pause`` runs ``pauses`` times between blocks, evenly spread over the
    loop, and its time does not count towards ``seconds``."""
    results = []
    start = time.perf_counter()
    paused = 0.0
    done = 0
    i = 0
    while i % block or time.perf_counter() - start - paused < seconds:
        due = done < pauses and time.perf_counter() - start - paused >= done * seconds / pauses
        if i % block == 0 and due:
            began = time.perf_counter()
            pause()
            paused += time.perf_counter() - began
            done += 1
        results.append(_run_job(make_job(seed, i), i, tracer))
        i += 1
    for _ in range(done, pauses):
        pause()
    return results


def _warm_up(make_job, block, seed):
    """One untimed job of each kind, from a stream no timed job uses, so
    lazy imports and first-call costs land outside the timed loop."""
    for i in range(block):
        _run_job(make_job(seed, i, stream=1), -1)


# --------------------------------------------------------------------------
# metrics


def _tail(seconds_sorted) -> tuple[int, float]:
    """Highest integer percentile (nearest rank) with at least ten jobs
    above it, and its value; the maximum when there are too few jobs."""
    n = len(seconds_sorted)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, seconds_sorted[rank - 1]
    return 100, seconds_sorted[-1]


def _describe(results) -> list:
    lines = []
    kinds: dict = {}
    for r in results:
        kinds.setdefault(r.kind, []).append(r)
    for kind, rs in kinds.items():
        sizes = sorted({r.size for r in rs})
        shown = "; ".join(sizes[:3]) + (f"; ... ({len(sizes)} sizes)" if len(sizes) > 3 else "")
        lines.append(f"  jobs {kind}: {len(rs)} ({shown})")
    return lines


def _failures(results) -> list:
    lines = []
    for r in results:
        if not r.passed:
            why = r.error or "; ".join(r.problems)
            lines.append(f"  FAILED job {r.index} {r.kind} [{r.size}]: {why[:160]}")
    return lines


def _outputs_correct(results) -> bool:
    return not any(r.problems for r in results)


def _probe(make_probe, defect, seed) -> str:
    """Run a known-defect probe once, untimed and uncounted."""
    r = _run_job(make_probe(seed), -1)
    why = r.error or "; ".join(r.problems)
    outcome = "passes now" if r.passed else f"still fails: {why[:160]}"
    return f"  known-defect probe {r.kind} [{r.size}] ({defect}): {outcome}"


def _report_sha(results) -> str:
    digest = hashlib.sha256()
    for r in results[:SHA_JOBS]:
        digest.update(r.payload)
    return digest.hexdigest()


def _end_to_end(results, setup_s, setup_ok) -> tuple[dict, list]:
    wall = sum(r.seconds for r in results)
    passed = sum(r.passed for r in results)
    times = sorted(r.seconds for r in results)
    p, tail = _tail(times)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "jobs_per_s": (passed / wall, "1/s"),
        "job_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "job_tail_ms": (tail * 1e3, "ms"),
        "passed_ratio": (passed / len(results), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
    }
    notes = [
        f"  {len(results)} jobs, {passed} passed, wall time in c0lat {wall:.3f} s",
        f"  job_tail_ms is p{p}: {len(results) - math.ceil(p * len(results) / 100)} jobs above it",
        f"  failed_ratio {(len(results) - passed) / len(results):.6f} "
        f"({len(results) - passed} of {len(results)})",
        f"  suite seeds passed over because classify_c0 cannot certify the suite's own "
        f"draw (ROADMAP item 5): {sum(r.redrawn for r in results)}",
        f"  setup_s: median of {SETUP_LAUNCHES} launches of `python -m c0lat.cli inner gcd`"
        f" on two one-zero files, spread over the loop"
        f" (output {'correct' if setup_ok else 'WRONG'})",
        f"  report_sha256 (first {min(SHA_JOBS, len(results))} jobs): {_report_sha(results)}",
    ]
    return metrics, notes


def per_layer(tracer, results, untraced_wall) -> dict:
    """Per-job calls and self time of every traced function, plus the
    grid, overlap and overhead counters."""
    jobs = max(1, len(results))
    totals = tracer.layer_totals()
    metrics = {}
    for module, qualname in tracer.targets:
        name = f"{module}.{qualname}"
        calls, self_s = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls / jobs, "count")
        metrics[f"{name}.self_ms"] = (self_s * 1e3 / jobs, "ms")
    metrics["modelspace.grid_points"] = (sum(tracer.grid_points.values()) / jobs, "count")
    suite_jobs = [r for r in results if r.suite]
    suite_wall = sum(r.seconds for r in suite_jobs)
    trial_level = tracer.trial_level_seconds(r.index for r in suite_jobs)
    metrics["suites.overlap"] = (trial_level / suite_wall if suite_wall else 0.0, "ratio")
    traced_wall = sum(r.seconds for r in results)
    metrics["trace.overhead_ratio"] = (untraced_wall / traced_wall, "ratio")
    return metrics


# --------------------------------------------------------------------------


def _print_metrics(metrics):
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")


def _result_line(results, correct, metrics) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": len(results),
            "failed": sum(not r.passed for r in results),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def _run_workload(args) -> int:
    if not (SRC / "c0lat" / "__init__.py").is_file():
        print(f"bench: c0lat sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("C0LAT_THREADS", None)
    sys.path.insert(0, str(SRC))
    import workloads
    from c0lat import suites
    from tracer import Tracer

    WORK.mkdir(exist_ok=True)
    make_job, block = workloads.WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    print(f"workload {args.workload}: {why}")
    print(f"seed {args.seed}, {args.seconds:g} s, closed loop with one client, trace {args.trace}")
    print("environment " + json.dumps(_environment(suites)))

    if args.trace == 0:
        launcher = Launcher()
        _warm_up(make_job, block, args.seed)
        results = _loop(make_job, block, args.seed, args.seconds, None, launcher.launch,
                        SETUP_LAUNCHES)
        metrics, notes = _end_to_end(results, statistics.median(launcher.times), launcher.correct)
        correct = launcher.correct and _outputs_correct(results)
        notes.append(_probe(*workloads.PROBES[args.workload], args.seed))
        print("\n".join(_describe(results) + notes + _failures(results)))
        _print_metrics(metrics)
        print(_result_line(results, correct, metrics))
        return 0

    _warm_up(make_job, block, args.seed)
    tracer = Tracer()
    with tracer:
        results = _loop(make_job, block, args.seed, args.seconds * TRACED_SHARE, tracer)
    rerun = [_run_job(make_job(args.seed, r.index), r.index) for r in results]
    untraced_wall = sum(r.seconds for r in rerun)
    metrics = per_layer(tracer, results, untraced_wall)
    spans_path = WORK / f"trace-{args.workload}.jsonl"
    tracer.write(spans_path)
    correct = _outputs_correct(results + rerun)
    print("\n".join(_describe(results) + _failures(results)))
    print(f"  {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    print(f"  per-layer calls and self_ms are per job, over {len(results)} traced jobs")
    _print_metrics(metrics)
    print(_result_line(results, correct, metrics))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload != "all":
        return _run_workload(args)
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
