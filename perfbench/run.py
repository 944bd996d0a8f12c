"""arbor's benchmark: run one workload for a fixed time, check every report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: witness-segments, equiv-simplex (see perfbench/NOTES.md).  A
run repeats passes over the workload's request list; every pass is a fresh
single-threaded worker process (worker.py) that calls ``arbor.cli.main``
in-process, one request after the other (a closed loop with one client).
New passes start while the next one still fits in S seconds.  Set-up-only
probe processes run before the first pass and after every pass, so that
setup_s is a median over the whole run.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
passes with traced ones and reports the per-layer metrics; every report of
every pass, traced or not, must be byte-identical to the first.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it records the environment.  The whole record, and the
spans of the first traced pass, are written under .bench_out/.
"""
from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib.util
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 3  # set-up-only processes before the first pass
ROUND_PROBES = 2  # and after every round of passes
RUN_LIMIT_S = 170  # a run must end within 180 s whatever happens
# Untraced times are reported at a reference host speed: the one at which
# worker.probe_kernel takes PROBE_REF_S.  The host's speed around a request
# is taken from the probes from PROBE_WINDOW_S before it to PROBE_WINDOW_S
# after it (NOTES.md, "Bounds and noise").
PROBE_REF_S = 400e-6
PROBE_WINDOW_S = 0.5
LIMITS = ("no CPU pinning and no page-cache dropping: machine settings are "
          "off limits; figures are medians over repeated passes")


class WorkerError(RuntimeError):
    """A worker process failed, timed out or printed no result."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def launch(configs, job: dict, timeout: float) -> dict:
    """Run one worker process to completion and return its result."""
    env = {k: v for k, v in os.environ.items() if k != "ARBOR_VERTEX_CAP"}
    try:
        # the worker's set-up clock starts here (time.monotonic is system-wide)
        cmd = [sys.executable, "-I", WORKER, repr(time.monotonic()), ROOT,
               *configs]
        proc = subprocess.run(cmd, input=json.dumps(job), capture_output=True,
                              text=True, timeout=timeout, env=env, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-500:]}")
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError:
        raise WorkerError("worker printed no result")


def run_passes(requests, configs, seconds: float, trace: bool,
               seg_length, spans_path: str, started: float
               ) -> tuple[list, list, str | None]:
    """Rounds of passes while the next round still fits, with set-up probes
    before the first round and after each one.

    A round is one untraced pass, plus one traced pass when tracing.
    Returns (set-up samples, [(traced, worker result)], error or None).
    """
    argvs = [list(r.argv) for r in requests]
    setups, passes = [], []

    def budget() -> float:
        return max(5.0, RUN_LIMIT_S - (time.monotonic() - started))

    def probe(count: int) -> None:
        for _ in range(count):
            setups.append(launch(configs, {"requests": [], "trace": False},
                                 budget())["setup_s"])

    try:
        probe(SETUP_PROBES)
        begin = time.monotonic()
        longest = 0.0
        while True:
            round_start = time.monotonic()
            for traced in ((False, True) if trace else (False,)):
                first_traced = traced and not any(t for t, _ in passes)
                job = {"requests": argvs, "trace": traced,
                       "seg_length": seg_length,
                       "spans": spans_path if first_traced else None}
                result = launch(configs, job, budget())
                setups.append(result["setup_s"])
                passes.append((traced, result))
            probe(ROUND_PROBES)
            now = time.monotonic()
            longest = max(longest, now - round_start)
            if now - begin + longest > seconds:
                return setups, passes, None
    except WorkerError as err:
        return setups, passes, str(err)


def check_passes(requests, passes, checker) -> tuple[int, int, list]:
    """(attempted, failed, reasons).  Each report is checked once; every later
    pass, traced or not, must reproduce it byte for byte."""
    first: dict = {}
    answers: dict = {}
    attempted = failed = 0
    reasons = []
    for traced, result in passes:
        for req, code, text in zip(requests, result["codes"], result["reports"]):
            attempted += 1
            if req.id not in first:
                first[req.id] = (code, text)
                reason = checker.check(req, code, text, answers)
            elif first[req.id] != (code, text):
                reason = ("traced report differs from the untraced one"
                          if traced else "report differs between passes")
            else:
                continue
            if reason is not None:
                failed += 1
                reasons.append(f"{req.id}: {reason}")
    return attempted, failed, reasons


def _deciles(values) -> tuple[float, float]:
    """(p50, p90), interpolated between samples; a single sample is both."""
    if len(values) == 1:
        return values[0], values[0]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return deciles[4], deciles[8]


def reference_latencies(result: dict) -> list:
    """The request latencies of an untraced pass at the reference host speed.

    Each latency is scaled by the mean of PROBE_REF_S / probe time over the
    probes around the request.  The probes are evenly spaced in time, so this
    is the mean speed relative to the reference.  A pass too short for a
    probe there uses all of its probes.
    """
    at, took = result["probe_at"], result["probe_s"]
    if not took:
        raise WorkerError("a pass ended before its first speed probe")
    out = []
    for (begin, end), latency in zip(result["request_times"],
                                     result["latencies"]):
        near = took[bisect.bisect_left(at, begin - PROBE_WINDOW_S):
                    bisect.bisect_right(at, end + PROBE_WINDOW_S)] or took
        out.append(latency * statistics.fmean(PROBE_REF_S / t for t in near))
    return out


def end_to_end(setups, passes, attempted: int, failed: int,
               queries: list) -> dict:
    """End-to-end metrics of the untraced passes.

    Times of a pass are scaled to the reference host speed.  queries holds
    the positions of the query-stream requests in a pass.  There a query is
    one request: deciles of request latency within each pass, then the
    median over passes (pooling would let the number of passes decide which
    request a percentile lands on).  A workload without a query stream is a
    fixed list of unlike requests; the whole list is one query.
    """
    plain = [reference_latencies(r) for traced, r in passes if not traced]
    walls = [sum(latencies) for latencies in plain]
    if queries:
        per_pass = [_deciles([latencies[i] * 1000 for i in queries])
                    for latencies in plain]
        p50 = statistics.median(p for p, _ in per_pass)
        p90 = statistics.median(p for _, p in per_pass)
    else:
        p50, p90 = _deciles([w * 1000 for w in walls])
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for traced, r
                                          in passes if not traced), "MB"),
        "ok_rate": ((attempted - failed) / attempted, "ratio"),
        "query_p50_ms": (p50, "ms"),
        "query_p90_ms": (p90, "ms"),
    }


def _unit(key: str) -> str:
    stat = key.rsplit(".", 1)[1]
    if stat.endswith("_s"):
        return "s"
    if stat.endswith("_ratio"):
        return "ratio"
    if stat == "vectors":
        return "count_computed"
    return "count"


def per_layer(passes) -> dict:
    traced = [r for t, r in passes if t]
    plain = [r for t, r in passes if not t]
    out = {key: (statistics.median(r["layers"][key] for r in traced), _unit(key))
           for key in traced[0]["layers"]}
    out["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in plain), "s")
    return out


def environment() -> dict:
    """Where the figures come from.  The commit is None outside a git work
    tree; the hash of the sources under src/arbor identifies the code anyway."""
    commit = None
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30).stdout.split()
        if len(out) == 2 and os.path.samefile(out[0], ROOT):
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    src_hash = hashlib.sha256()
    for path in sorted(pathlib.Path(SRC, "arbor").rglob("*")):
        if path.suffix in (".py", ".json"):
            src_hash.update(path.relative_to(ROOT).as_posix().encode())
            src_hash.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "limits": LIMITS,
    }


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "arbor", "cli.py")):
        print(f"arbor sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import arbor
    if not arbor.__file__.startswith(SRC + os.sep):
        print(f"arbor imported from {arbor.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.makedirs(OUT, exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    requests = workloads.build(args.workload, args.seed)
    configs = workloads.MODELS[args.workload]
    setups, passes, error = run_passes(
        requests, configs, args.seconds, bool(args.trace),
        workloads.seg_length(requests),
        os.path.join(OUT, f"spans-{args.workload}.json"), started)
    attempted, failed, reasons = check_passes(
        requests, passes, workloads.Checker(workloads.load_expected()))
    if error is not None:  # the unfinished pass counts as failed requests
        attempted += len(requests)
        failed += len(requests)
        reasons.append(error)
    needed = {False, True} if args.trace else {False}
    if needed <= {traced for traced, _ in passes}:
        metrics = (per_layer(passes) if args.trace
                   else end_to_end(setups, passes, attempted, failed,
                                   workloads.query_indices(requests)))
    else:
        metrics = {}
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = environment()
    record = dict(result, env=env, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  failures=reasons[:20], setups=setups,
                  passes=[{"traced": t, "wall_s": r["wall_s"],
                           "probe_median_s": statistics.median(r["probe_s"])
                           if r["probe_s"] else None,
                           "setup_s": r["setup_s"],
                           "peak_rss_mb": r["peak_rss_mb"]}
                          for t, r in passes])
    with open(os.path.join(OUT, f"result-{label}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for reason in reasons[:20]:
        print(f"failed: {reason}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
