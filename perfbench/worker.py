"""One pass of a workload in a fresh process.

    python3 -I perfbench/worker.py LAUNCHED ROOT CONFIG...

LAUNCHED is the parent's time.monotonic() just before it started this
process, so set-up time runs from process start through ``import arbor``
and ``load_config`` of every CONFIG.  The job then arrives on stdin as JSON:
{"requests": [argv, ...], "trace": bool, "seg_length": int or null,
"spans": path or null}.  Each
request calls ``arbor.cli.main(argv)`` in-process, one after the other.
The result goes to stdout as one JSON object.  An empty request list makes
this a set-up probe.

An untraced pass also times a fixed piece of pure-Python work, the speed
probe, every PROBE_INTERVAL_S from a SIGALRM handler.  The host's speed
drifts (NOTES.md, "Bounds and noise"); the probe times tell run.py how fast
the host ran around each request.  Time spent in the probe is taken out of
wall_s and out of each request's latency.
"""
import gc
import signal
import sys
import time
from array import array

PROBE_INTERVAL_S = 0.05


def probe_kernel() -> int:
    """The speed probe's fixed work: small tuples, a dict, integer arithmetic."""
    counts = {}
    for i in range(1200):
        key = (i % 7, i % 5, i)
        counts[key] = counts.get(key, 0) + len(key)
    return min(counts)[2]


class SpeedProbe:
    """Runs probe_kernel on a timer and keeps when each run started and how
    long it took."""

    def __init__(self) -> None:
        self.at = array("d")
        self.took = array("d")
        self.spent = 0.0  # seconds inside the handler, kernel included

    def _tick(self, signum, frame) -> None:
        enter = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's objects is not the probe's
        start = time.perf_counter()
        probe_kernel()
        self.at.append(start)
        self.took.append(time.perf_counter() - start)
        if collecting:
            gc.enable()
        self.spent += time.perf_counter() - enter

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_request(main, argv) -> tuple:
    """(exit code, report text, seconds) of one CLI call, stdout captured."""
    import contextlib
    import io
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue(), time.perf_counter() - start


def main() -> int:
    launched = float(sys.argv[1])
    root = sys.argv[2]
    src = root + "/src"
    sys.path.insert(0, src)
    import arbor.cli
    for config in sys.argv[3:]:
        arbor.cli.load_config(config)
    setup_s = time.monotonic() - launched
    if not arbor.__file__.startswith(src + "/"):
        print(f"arbor imported from {arbor.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import json
    import resource
    job = json.load(sys.stdin)
    tracer = None
    if job["trace"]:
        sys.path.insert(0, root + "/perfbench")
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    probe = SpeedProbe()
    if tracer is None:  # traced times are not compared with untraced ones
        probe.start()
    codes, reports, latencies, request_times = [], [], [], []
    start = time.perf_counter()
    for argv in job["requests"]:
        if tracer is not None:
            tracer.model = argv[argv.index("--config") + 1] \
                if "--config" in argv else ""
        probed = probe.spent
        begin = time.perf_counter() - start
        code, text, seconds = run_request(arbor.cli.main, argv)
        request_times.append((begin, time.perf_counter() - start))
        codes.append(code)
        reports.append(text)
        latencies.append(seconds - (probe.spent - probed))
    probe.stop()
    wall_s = time.perf_counter() - start - probe.spent
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "probe_at": [t - start for t in probe.at],
        "probe_s": list(probe.took),
        "request_times": request_times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "codes": codes,
        "reports": reports,
        "latencies": latencies,
    }
    if tracer is not None:
        tracer.uninstall()
        from tracing import layer_metrics
        result["layers"] = layer_metrics(tracer, job["seg_length"])
        if job.get("spans"):
            tracer.write_spans(job["spans"])
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
