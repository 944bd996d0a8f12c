"""One process that serves many requests answers each one as a fresh process
would: every subcommand on every model, in one order and then the reverse,
gives the same exit code, stdout and stderr, and no request changes a model
that later requests share."""
import json
import os
import subprocess
import sys
from pathlib import Path

from arbor import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# every packaged, fixture and test model, with two of its boundary codes
MODELS = {
    "dihedral": ("prefix=e;cycle=t,s", "prefix=;cycle=s,t"),
    "sl2z": ("prefix=e;cycle=b,a", "prefix=;cycle=a,b2"),
    "psl2z": ("prefix=e;cycle=t,s", "prefix=;cycle=s,t2"),
    str(ROOT / "perfbench/fixtures/c12_c3_c15.json"):
        ("prefix=e;cycle=b1,a1", "prefix=;cycle=a3,b4"),
    str(ROOT / "perfbench/fixtures/s4_c3_s3.json"):
        ("prefix=e;cycle=t1,s1", "prefix=;cycle=s21,t1"),
    str(ROOT / "tests/models/s4_s3_s4.json"):
        ("prefix=e;cycle=g2,g2", "prefix=;cycle=g8,g8"),
    str(ROOT / "tests/models/z2wr4_z2e4.json"):
        ("prefix=e;cycle=g4,g2", "prefix=;cycle=g27,g4"),
}
SMALL_SAMPLE = ["--p-max", "0", "--q-max", "2"]

S4 = str(ROOT / "perfbench/fixtures/s4_c3_s3.json")
# two runs of the repeatable --codes flag, with different codes
CODES = [
    ["check", "--what", "theorem-a", "--codes", "prefix=e;cycle=b,a"],
    ["check", "--what", "stabilizers", "--codes", "prefix=;cycle=a,b2",
     "--codes", "prefix=;cycle=a,b"],
]
# refusals and a negative verdict
REFUSALS = [
    ["tree", "--config", "nosuch"],
    ["tree", "--radius", "-1"],
    ["equiv", "--x", "junk", "--y", "prefix=;cycle=a,b"],
    ["check", "--what", "acylindrical", "--seg-length", "1", "--bound", "0"],
    ["check", "--what", "theorem-a", "--seg-length", "2"],
]
REQUESTS = [
    argv + ["--config", model]
    for model, (x, y) in MODELS.items()
    for argv in (
        ["tree", "--radius", "2"],
        ["check", "--what", "theorem-a", *SMALL_SAMPLE],
        ["check", "--what", "stabilizers", *SMALL_SAMPLE],
        ["check", "--what", "acylindrical", "--seg-length", "1"],
        ["witness", *SMALL_SAMPLE],
        ["equiv", "--x", x, "--y", y],
        ["equiv", "--x", y, "--y", y],
        ["reiter", "--window", "group"],
        ["cfw", "--m-max", "2"],
    )
] + CODES + [["reiter", "--window", "z", "--support-size", "3"]] + REFUSALS

# rows that a fresh interpreter must answer the same way too
FRESH = [["equiv", "--x", MODELS[S4][0], "--y", MODELS[S4][1], "--config", S4],
         CODES[1], REFUSALS[2]]


def serve(capsys, requests) -> list:
    replies = []
    for argv in requests:
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        replies.append((code, captured.out, captured.err))
    return replies


def test_warm_process_answers_as_a_cold_one(monkeypatch, capsys):
    loaded = []
    load = cli.load_config

    def recording(source):
        am, cap = load(source)
        loaded.append((source, am))
        return am, cap

    monkeypatch.setattr("arbor.cli.load_config", recording)
    hits = cli._model.cache_info().hits
    forward = serve(capsys, REQUESTS)
    backward = serve(capsys, REQUESTS[::-1])
    assert backward[::-1] == forward
    assert cli._model.cache_info().hits > hits  # the models were shared
    assert {code for code, _, _ in forward} == {0, 1, 2}

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    for argv in FRESH:
        proc = subprocess.run([sys.executable, "-m", "arbor.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        reply = forward[REQUESTS.index(argv)]
        assert (proc.returncode, proc.stdout, proc.stderr) == reply

    # no request changed a model it was handed: each equals a fresh build
    fresh = {source: cli._model.__wrapped__(source, cli._config_text(source))
             for source, _ in loaded}
    assert len(fresh) == len(MODELS)
    for source, am in loaded:
        assert vars(am) == vars(fresh[source]), source


def test_repeated_codes_flag_carries_nothing_into_the_next_request(capsys):
    # --codes appends to a list: a parser reused across requests must start
    # each one empty, so the second report holds only its own code
    a, b = MODELS[S4]
    reports = []
    for code in (a, b):
        assert cli.main(["check", "--what", "theorem-a", "--codes", code,
                         "--config", S4]) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert [[row["code"] for row in doc["rows"]] for doc in reports] == \
        [[a], [b]]
