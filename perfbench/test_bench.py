"""The benchmark's own checks can fail, and tracing leaves reports unchanged.

    python3 -m pytest perfbench/test_bench.py
"""
import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import arbor.cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from worker import run_request  # noqa: E402


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)  # fixture paths in argv and reports are relative


def one_pass(requests, traced=False):
    codes, reports = [], []
    for req in requests:
        code, text, _ = run_request(arbor.cli.main, req.argv)
        codes.append(code)
        reports.append(text)
    return traced, {"codes": codes, "reports": reports}


def stored_checker():
    return workloads.Checker(workloads.load_expected())


def cheap_simplex():
    return [r for r in workloads.FIXED["simplex"]
            if r.id in ("reiter-group", "cfw")]


def test_stored_expectations_pass():
    requests = cheap_simplex()
    attempted, failed, reasons = run.check_passes(
        requests, [one_pass(requests)], stored_checker())
    assert (attempted, failed, reasons) == (2, 0, [])


def test_corrupted_expectation_is_counted_as_failure():
    requests = cheap_simplex()
    expected = copy.deepcopy(workloads.load_expected())
    expected["reiter-group"]["fields"]["max_deviation"] = "1/2"
    attempted, failed, reasons = run.check_passes(
        requests, [one_pass(requests)] * 2, workloads.Checker(expected))
    assert attempted == 4 and failed == 1
    assert reasons[0].startswith("reiter-group: max_deviation")


def test_pass_that_differs_from_the_first_is_a_failure():
    requests = cheap_simplex()
    first = one_pass(requests)
    traced = (True, dict(first[1], reports=[first[1]["reports"][0],
                                            first[1]["reports"][1] + " "]))
    _, failed, reasons = run.check_passes(
        requests, [first, traced], stored_checker())
    assert failed == 1 and "traced report differs" in reasons[0]


def test_equiv_checks_catch_a_wrong_witness_and_a_swap():
    requests = workloads.build("equiv-simplex", seed=7)
    constructed = next(r for r in requests
                       if r.kind == "constructed" and r.argv[4] != r.argv[6])
    pair = [r for r in requests if r.kind == "pair"][:2]
    requests = [constructed] + pair
    traced, result = one_pass(requests)
    checker = workloads.Checker({})
    assert run.check_passes(requests, [(traced, result)], checker)[1] == 0

    doc = json.loads(result["reports"][0])
    doc["witness"] = "e"  # the identity does not carry y to x here
    assert checker.check(constructed, 0, json.dumps(doc), {}) is not None
    flipped = json.loads(result["reports"][1])
    flipped["equivalent"] = not flipped["equivalent"]
    answers = {pair[0].id: flipped}
    reason = checker.check(pair[1], result["codes"][2], result["reports"][2],
                           answers)
    assert reason == "answer changes when x and y are swapped"


def test_equiv_simplex_spreads_the_simplex_requests_through_the_queries():
    requests = workloads.build("equiv-simplex", seed=7)
    queries = workloads.query_indices(requests)
    assert len(queries) == 2 * (workloads.EQUIV_CONSTRUCTED
                                + 2 * workloads.EQUIV_PAIRS)  # two fixtures
    assert [requests[i] for i in queries] == workloads._equiv_requests(7)
    fixed = [i for i in range(len(requests)) if i not in queries]
    assert [requests[i] for i in fixed] == workloads.FIXED["simplex"]
    assert fixed[0] > 0 and fixed[-1] == len(requests) - 1
    assert workloads.query_indices(workloads.build("witness-segments", 7)) == []


def test_tracing_keeps_reports_byte_identical():
    requests = [r for r in workloads.FIXED["witness"]
                if r.id != "witness-s4"] + cheap_simplex()
    _, plain = one_pass(requests)
    tracer = Tracer()
    tracer.install()
    try:
        _, traced = one_pass(requests)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.calls["tree.act_on_boundary"] > 0
    assert tracer.calls["groups.absorb"] > 0
    assert arbor.cli.main.__module__ == "arbor.cli"  # wrappers are gone


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "equiv-simplex",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    result = {"wall_s": 0.3, "setup_s": 0.1, "peak_rss_mb": 20.0,
              "latencies": [0.1, 0.2], "request_times": [(0.0, 0.1), (0.1, 0.3)],
              "probe_at": [0.05], "probe_s": [run.PROBE_REF_S],
              "layers": layer_metrics(Tracer(), 3)}
    for queries in ([], [0, 1]):
        e2e = run.end_to_end([0.1], [(False, result)], attempted=2, failed=0,
                             queries=queries)
        assert set(e2e) == {m["name"] for m in spec["end_to_end"]}
        assert all(value > 0 for value, _ in e2e.values())
    layers = run.per_layer([(False, result), (True, result)])
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    assert all(m["unit"] == run._unit(m["name"]) for m in spec["per_layer"])


def test_times_are_scaled_to_the_reference_speed_around_each_request():
    ref = run.PROBE_REF_S
    # the host runs at half speed during the first request, full speed later
    slow = {"wall_s": 3.0, "setup_s": 0.1, "peak_rss_mb": 20.0,
            "latencies": [1.0, 1.0, 1.0],
            "request_times": [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)],
            "probe_at": [0.1, 0.3, 0.5, 1.6, 2.2, 2.4, 2.6],
            "probe_s": [2 * ref, 2 * ref, 2 * ref, ref, ref, ref, ref]}
    e2e = run.end_to_end([0.1], [(False, slow)], attempted=3, failed=0,
                         queries=[0, 1, 2])
    # the second request's window holds one half-speed probe out of four
    assert run.reference_latencies(slow) == pytest.approx([0.5, 0.875, 1.0])
    assert e2e["wall_s"][0] == pytest.approx(2.375)
    assert e2e["query_p50_ms"][0] == pytest.approx(875.0)
    assert e2e["setup_s"][0] == 0.1  # set-up is reported as measured
