"""Store the expected reports of the fixed requests in expected.json.

    python3 perfbench/record_expected.py

Runs every fixed request once and stores its exit code and the SHA-256 of
its report.  The hand-written "fields" (known exact optima and verdicts)
are kept as they are: they are the independent part of the check.  Run
this only when a change alters report bytes on purpose, and say so.
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import arbor.cli  # noqa: E402
import workloads  # noqa: E402
from worker import run_request  # noqa: E402


def main() -> int:
    os.chdir(ROOT)
    try:
        old = workloads.load_expected()
    except FileNotFoundError:
        old = {}
    out = {}
    for name in sorted(workloads.FIXED):
        for req in workloads.FIXED[name]:
            code, text, seconds = run_request(arbor.cli.main, req.argv)
            entry = {"exit": code, "sha256": workloads.digest(text)}
            if "fields" in old.get(req.id, {}):
                entry["fields"] = old[req.id]["fields"]
            out[req.id] = entry
            print(f"{req.id}: exit {code}, {seconds:.2f} s", file=sys.stderr)
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
