"""The golden corpus: CLI runs whose exit code, stdout and stderr are stored.

Each row of tests/golden.json holds the CLI arguments of one run, its exit
code, the sha256 of its stdout, its exact stderr, and the seconds it took in
process when it was recorded (a cold model load included).  A row may also
hold a note saying what the run covers.  Run from the repository root, with
nothing installed:

    python tests/golden.py            # run every row; exit 1 on a mismatch
    python tests/golden.py --record   # run every row and rewrite the file

Each row runs as `python -m arbor.cli ARGS` with src on PYTHONPATH, under a
30 s timeout.  To add a row, add {"argv": [...]} to the file and record.  A
change that alters a report on purpose records again and names the changed
rows.  tests/test_golden.py runs the rows recorded under FAST seconds in
process.
"""
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden.json"
TIMEOUT = 30
FAST = 0.2  # seconds in process: the rows tier-1 runs


def load_rows() -> list:
    return json.loads(GOLDEN.read_text())


def expected(row: dict) -> tuple:
    return row["exit"], row["stdout_sha256"], row["stderr"]


def run(argv: list) -> tuple:
    """(exit code, stdout sha256, stderr) of one CLI process, from ROOT."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "arbor.cli", *argv],
                          cwd=ROOT, env=env, capture_output=True,
                          timeout=TIMEOUT)
    return (proc.returncode, hashlib.sha256(proc.stdout).hexdigest(),
            proc.stderr.decode())


def run_in_process(argv: list) -> tuple:
    """The same triple from cli.main in this process; the working directory
    must be ROOT."""
    from arbor import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as stop:  # argparse refusals
            code = stop.code
    return (code, hashlib.sha256(out.getvalue().encode()).hexdigest(),
            err.getvalue())


def _seconds(argv: list) -> float:
    from arbor import cli
    cli._model.cache_clear()  # count the model's load, as a process would
    start = time.perf_counter()
    run_in_process(argv)
    return round(time.perf_counter() - start, 3)


def record(rows: list) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    for row in rows:
        row["exit"], row["stdout_sha256"], row["stderr"] = run(row["argv"])
        row["seconds"] = _seconds(row["argv"])
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(row, sort_keys=True)
                                         for row in rows) + "\n]\n")


def check(rows: list) -> int:
    failed = 0
    for row in rows:
        print("arbor", *row["argv"], flush=True)
        try:
            got = run(row["argv"])
        except subprocess.TimeoutExpired:
            got = f"no exit within {TIMEOUT} s"
        if got != expected(row):
            failed += 1
            print(f"  expected {expected(row)!r}\n  got      {got!r}")
    print(f"{len(rows) - failed} of {len(rows)} rows match")
    return 1 if failed else 0


def main(args: list) -> int:
    if args not in ([], ["--record"]):
        print("usage: python tests/golden.py [--record]", file=sys.stderr)
        return 2
    rows = load_rows()
    if args:
        record(rows)
        return 0
    return check(rows)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
