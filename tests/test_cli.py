import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from arbor.cli import ConfigError, load_config, main
from arbor.reiter import monotone_tensor

from bruteforce import tensor_to_json

EQUIV_X = "prefix=e;cycle=b,a"
EQUIV_Y = "prefix=;cycle=a,b"
OTHER_Y = "prefix=;cycle=a,b2"


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_no_command_prints_help(capsys):
    rc, out, _ = run(capsys, [])
    assert rc == 0
    assert "usage" in out


def test_tree_report(capsys):
    rc, out, _ = run(capsys, ["tree", "--radius", "3"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["counts_by_distance"] == [1, 2, 4, 4]
    assert doc["vertices"] == 11
    assert doc["edges"] == 10
    assert doc["version"] == "0.1.0"
    assert doc["config"] == "sl2z"
    assert "timings" not in doc


def test_tree_dot_and_out(tmp_path, capsys):
    dot = tmp_path / "ball.dot"
    report = tmp_path / "report.json"
    rc, out, _ = run(capsys, ["tree", "--radius", "2", "--dot", str(dot),
                              "--out", str(report)])
    assert rc == 0
    assert out == ""
    assert dot.read_text().startswith("graph bass_serre {")
    doc = json.loads(report.read_text())
    assert doc["counts_by_distance"] == [1, 2, 4]


def test_reports_byte_identical(capsys):
    _, first, _ = run(capsys, ["witness", "--config", "dihedral"])
    _, second, _ = run(capsys, ["witness", "--config", "dihedral"])
    assert first == second
    _, third, _ = run(capsys, ["check", "--what", "theorem-a"])
    _, fourth, _ = run(capsys, ["check", "--what", "theorem-a"])
    assert third == fourth


def test_timings_flag(capsys):
    rc, out, _ = run(capsys, ["tree", "--radius", "2", "--timings"])
    assert rc == 0
    assert "seconds" in json.loads(out)["timings"]


def test_config_from_file(tmp_path, capsys):
    cfg = {
        "model": {
            "h": {"cyclic": 2, "names": ["e", "s"]},
            "k": {"cyclic": 2, "names": ["e", "t"]},
            "c": {"cyclic": 1, "names": ["e"]},
            "embed_h": [0],
            "embed_k": [0],
        },
    }
    path = tmp_path / "line.json"
    path.write_text(json.dumps(cfg))
    rc, out, _ = run(capsys, ["tree", "--config", str(path), "--radius", "3"])
    assert rc == 0
    assert json.loads(out)["counts_by_distance"] == [1, 2, 2, 2]


def test_config_errors(tmp_path, capsys):
    rc, _, err = run(capsys, ["tree", "--config", "nosuch"])
    assert rc == 2
    assert "unknown config" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    rc, _, err = run(capsys, ["tree", "--config", str(bad)])
    assert rc == 2
    assert "invalid JSON" in err

    with pytest.raises(ConfigError) as exc:
        load_config("nosuch")
    assert "nosuch" in str(exc.value)

    # values of the wrong JSON type, booleans included, are input errors
    table = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    bad_entry = [row[:] for row in table]
    bad_entry[1][2] = "x"
    model = {"h": {"cyclic": 4}, "k": {"cyclic": 4}, "c": {"cyclic": 2},
             "embed_h": [0, 2], "embed_k": [0, 2]}
    broken_h = [
        ({"cyclic": "4"}, "model.h: cyclic"),
        ({"cyclic": True}, "model.h: cyclic"),
        ({"cyclic": 1000000000}, "model.h: cyclic group of order 1000000000 "
                                 "is over the cap of 1024 elements"),
        (True, "model.h: cannot build a group from bool"),
        ({"mul_table": 5}, "model.h: mul_table"),
        ({"mul_table": bad_entry}, "model.h: mul_table"),
        ({"mul_table": table, "names": [1, 2, 3, 4]}, "model.h: names"),
        ({"mul_table": table, "names": "abcd"}, "model.h: names"),
        ({"permutations": [[1, 2, 3, 0]], "cap": "x"}, "model.h: cap"),
        ({"permutations": [[1, 2, 3, 0]], "cap": True}, "model.h: cap"),
        ({"permutations": [5]}, "model.h: permutations"),
    ]
    cases = [({"model": dict(model, h=spec)}, msg) for spec, msg in broken_h]
    cases += [
        ({"model": dict(model, embed_h=[0, True])}, "model.embed_h"),
        ({"model": model, "limits": {"p_max": 1}},
         "limits: unknown key; a config holds only model"),
    ]
    path = tmp_path / "cfg.json"
    for doc, msg in cases:
        path.write_text(json.dumps(doc))
        for argv in (["tree", "--dot", str(tmp_path / "t.dot")], ["witness"]):
            rc, out, err = run(capsys, [*argv, "--config", str(path)])
            assert (rc, out) == (2, ""), (doc, err)
            assert err.startswith(f"error: {msg}") and err.count("\n") == 1
    path.write_text(json.dumps({"model": model}))
    assert run(capsys, ["tree", "--config", str(path)])[0] == 0


def test_config_key_paths(tmp_path, capsys):
    base = {
        "model": {
            "h": {"cyclic": 2}, "k": {"cyclic": 2}, "c": {"cyclic": 1},
            "embed_h": [0], "embed_k": [0],
        },
    }
    broken = dict(base)
    broken["limits"] = {"vertex_cap": 3}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(broken))
    rc, _, err = run(capsys, ["tree", "--config", str(path)])
    assert rc == 2
    assert "limits: unknown key" in err

    broken = {"model": dict(base["model"])}
    broken["model"]["h"] = {"cyclic": 2, "mul_table": [[0]]}
    path.write_text(json.dumps(broken))
    rc, _, err = run(capsys, ["tree", "--config", str(path)])
    assert rc == 2
    assert "model.h" in err

    broken = {"model": dict(base["model"])}
    broken["model"]["embed_h"] = "nope"
    path.write_text(json.dumps(broken))
    rc, _, err = run(capsys, ["tree", "--config", str(path)])
    assert rc == 2
    assert "model.embed_h" in err


def test_vertex_cap_env(monkeypatch, capsys):
    monkeypatch.setenv("ARBOR_VERTEX_CAP", "5")
    rc, _, err = run(capsys, ["tree", "--radius", "4"])
    assert rc == 2
    assert "cap" in err
    monkeypatch.setenv("ARBOR_VERTEX_CAP", "abc")
    rc, _, err = run(capsys, ["tree", "--radius", "2"])
    assert rc == 2
    assert "ARBOR_VERTEX_CAP" in err


def test_check_theorem_a(capsys):
    rc, out, _ = run(capsys, ["check", "--what", "theorem-a"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert len(doc["rows"]) == 8
    for row in doc["rows"]:
        assert row["certified"] is True
        assert row["sigma_length"] == 1
        assert row["order"] == 2

    rc, out, _ = run(capsys, ["check", "--what", "theorem-a",
                              "--max-len", "0"])
    assert rc == 1
    assert json.loads(out)["ok"] is False


def test_check_acylindrical(capsys):
    rc, out, _ = run(capsys, ["check", "--what", "acylindrical",
                              "--bound", "2"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["max_order"] == 2
    assert doc["ok"] is True
    rc, out, _ = run(capsys, ["check", "--what", "acylindrical",
                              "--bound", "1"])
    assert rc == 1
    assert json.loads(out)["ok"] is False


def test_check_stabilizers(capsys):
    rc, out, _ = run(capsys, ["check", "--what", "stabilizers",
                              "--codes", EQUIV_Y])
    assert rc == 0
    doc = json.loads(out)
    assert doc["rows"] == [
        {"code": EQUIV_Y, "order": 2, "elements": ["e", "z"]}]


def test_equiv_positive(capsys):
    rc, out, _ = run(capsys, ["equiv", "--x", EQUIV_X, "--y", EQUIV_Y])
    assert rc == 0
    doc = json.loads(out)
    assert doc["equivalent"] is True
    assert doc["conclusive"] is True
    assert doc["method"] == "codes"
    assert doc["witness"]
    assert doc["shifts"] == [0, 0]


def test_equiv_negative(capsys):
    rc, out, _ = run(capsys, ["equiv", "--x", EQUIV_Y, "--y", OTHER_Y])
    assert rc == 1
    doc = json.loads(out)
    assert doc["equivalent"] is False
    assert doc["conclusive"] is True


def test_failed_witness_recheck_exits_3(monkeypatch, capsys):
    # products that keep only their left factor spell a wrong witness
    monkeypatch.setattr("arbor.cber.multiply", lambda am, g, h: g)
    rc, out, err = run(capsys, ["equiv", "--x", EQUIV_X, "--y", EQUIV_Y])
    assert rc == 3
    assert out == ""
    assert err == "internal error: orbit witness failed re-verification\n"


def test_equiv_bad_code(capsys):
    rc, _, err = run(capsys, ["equiv", "--x", "prefix=;cycle=b,a",
                              "--y", EQUIV_Y])
    assert rc == 2
    assert "letter" in err


def test_witness_report(capsys):
    rc, out, _ = run(capsys, ["witness", "--config", "dihedral"])
    assert rc == 0
    doc = json.loads(out)
    assert len(doc["points"]) == 2
    assert doc["target"] == [[0, 1]]
    assert doc["class_counts"][-1] == 1
    assert all(w["word"] for w in doc["witnesses"])

    rc, out, _ = run(capsys, ["witness", "--no-witnesses"])
    assert rc == 0
    assert "witnesses" not in json.loads(out)


def test_reiter_z_window(capsys):
    rc, out, _ = run(capsys, ["reiter", "--window", "z",
                              "--support-size", "3", "--target", "1",
                              "--grid-check", "--denominator", "6"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["optimum"] == "2/3"
    assert doc["ok"] is True
    assert doc["grid"]["matches_lp"] is True

    rc, out, _ = run(capsys, ["reiter", "--window", "z",
                              "--support-size", "3", "--target", "1/2"])
    assert rc == 1
    assert json.loads(out)["ok"] is False


def test_reiter_group_window(capsys):
    rc, out, _ = run(capsys, ["reiter", "--window", "group", "--side", "k"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["max_deviation"] == "0"
    assert len(doc["per_gen"]) == 5


def test_reiter_generators_flag(capsys):
    rc, out, _ = run(capsys, ["reiter", "--window", "z", "--support-size",
                              "4", "--generators", "2,-2"])
    assert rc == 0
    doc = json.loads(out)
    assert [g for g, _ in doc["per_gen"]] == ["2", "-2"]

    rc, out, _ = run(capsys, ["reiter", "--window", "group", "--side", "k",
                              "--generators", "b,b2"])
    assert rc == 0
    assert len(json.loads(out)["per_gen"]) == 2

    rc, _, err = run(capsys, ["reiter", "--window", "free",
                              "--generators", "a"])
    assert rc == 2
    assert "generators" in err


def test_cfw_builtin_tensor(capsys):
    rc, out, _ = run(capsys, ["cfw"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["thresholds"] == list(range(11))
    assert all(row["ok"] for row in doc["rows"])


def test_cfw_custom_tensor(tmp_path, capsys):
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps(tensor_to_json(monotone_tensor(3, 4))))
    rc, out, _ = run(capsys, ["cfw", "--tensor", str(path), "--m-max", "3"])
    assert rc == 0
    assert json.loads(out)["thresholds"] == [0, 1, 2]

    doc = tensor_to_json(monotone_tensor(2, 2))
    doc["values"][0][0][0][0] = "5/2"
    path.write_text(json.dumps(doc))
    rc, _, err = run(capsys, ["cfw", "--tensor", str(path)])
    assert rc == 2
    assert "tensor" in err


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# (argv, extra environment, exit code): bad or edge input on the reiter,
# cfw, witness, sample-space and cap paths must end in a verdict or one error
# line, never a traceback.  "{tmp}" is replaced by a fresh temporary
# directory, "{root}" by the repository root.
EDGE_CASES = [
    (["reiter", "--window", "z", "--support-size", "10", "--grid-check"],
     {}, 2),
    (["reiter", "--window", "free"], {}, 0),
    (["reiter", "--window", "free", "--support-radius", "3", "--radius", "2"],
     {}, 2),
    (["reiter", "--window", "free", "--radius", "1", "--support-radius",
      "1000000000"], {}, 2),
    (["reiter", "--window", "free", "--rank", "0"], {}, 2),
    (["reiter", "--window", "z", "--support-size", "0"], {}, 2),
    (["reiter", "--window", "z", "--radius", "-1"], {}, 2),
    (["reiter", "--window", "z", "--support-size", "3", "--grid-check",
      "--denominator", "0"], {}, 2),
    (["reiter", "--window", "group", "--generators", "zz"], {}, 2),
    (["cfw", "--tensor", "{tmp}/missing.json"], {}, 2),
    (["cfw", "--tensor", "{tmp}"], {}, 2),
    (["cfw", "--m-max", "0"], {}, 2),
    (["reiter", "--window", "group"], {"ARBOR_VERTEX_CAP": "-1"}, 2),
    (["witness", "--config", "{root}/perfbench/fixtures/c12_c3_c15.json",
      "--q-max", "12"], {}, 2),
    (["witness", "--config", "{root}/perfbench/fixtures/s4_c3_s3.json",
      "--p-max", "2", "--q-max", "20"], {}, 2),
    (["check", "--what", "theorem-a", "--q-max", "1000000000"], {}, 2),
    (["check", "--what", "theorem-a", "--max-len", "-1"], {}, 2),
    (["tree", "--out", "{tmp}/nonexistent/d/x.json"], {}, 2),
    (["tree", "--radius", "1", "--dot", "{tmp}/nonexistent/ball.dot"], {}, 2),
    (["cfw", "--out", "{tmp}"], {}, 2),
    (["reiter", "--window", "free", "--rank", "6", "--support-radius", "4"],
     {}, 2),
    (["reiter", "--window", "free", "--radius", "1000000000"], {}, 2),
    (["reiter", "--window", "z", "--radius", "1000000000"], {}, 2),
    (["reiter", "--window", "free", "--support-radius", "2"],
     {"ARBOR_VERTEX_CAP": "52"}, 2),
    (["reiter", "--window", "free", "--rank", "2", "--support-radius", "4"],
     {}, 2),
    (["reiter", "--window", "free", "--rank", "4", "--support-radius", "2"],
     {}, 2),
    (["reiter", "--window", "z", "--support-size", "1000"], {}, 2),
    (["witness", "--n-max", "1000000000"], {}, 2),
    (["cfw", "--m-max", "1000000000"], {}, 2),
]


@pytest.mark.parametrize("argv,env,code", EDGE_CASES,
                         ids=[" ".join(a) for a, _, _ in EDGE_CASES])
def test_edge_arguments_exit_without_traceback(tmp_path, argv, env, code):
    argv = [a.replace("{tmp}", str(tmp_path)).replace("{root}", str(ROOT))
            for a in argv]
    full_env = dict(os.environ, **env)
    full_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "arbor.cli", *argv],
                          capture_output=True, text=True, env=full_env,
                          timeout=60)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 2:
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1
    else:
        json.loads(proc.stdout)


@pytest.mark.parametrize("target", ["1/0", "abc"])
def test_unreadable_target_is_a_usage_error(target):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "arbor.cli", "reiter",
                           "--window", "z", "--target", target],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.endswith(
        f"error: argument --target: invalid Fraction value: '{target}'\n")


def test_oversized_grid_check_is_refused_fast(capsys):
    started = time.perf_counter()
    rc, out, err = run(capsys, ["reiter", "--window", "z", "--support-size",
                                "10", "--grid-check"])
    assert time.perf_counter() - started < 1
    assert rc == 2 and out == ""
    assert "30045014 vectors" in err


def test_free_window_default_radius(capsys):
    # the default window is the support ball grown by one
    rc, out, _ = run(capsys, ["reiter", "--window", "free",
                              "--support-radius", "1"])
    assert rc == 0
    _, explicit, _ = run(capsys, ["reiter", "--window", "free",
                                  "--support-radius", "1", "--radius", "2"])
    assert out == explicit
    assert json.loads(out)["support_size"] == 5


@pytest.mark.parametrize("argv,count", [
    (["--window", "free", "--radius", "1", "--support-radius", "1000000000"],
     "ball exceeds the window radius"),
    (["--window", "free", "--rank", "6", "--support-radius", "4"],
     "the window of radius 5 has 193261 vertices, over the vertex cap of "
     "100000"),
    (["--window", "free", "--rank", "2", "--support-radius", "4"],
     "has 2193330 entries, over the cap of 1000000"),
    (["--window", "free", "--rank", "4", "--support-radius", "2"],
     "has 1792674 entries, over the cap of 1000000"),
])
def test_oversized_window_or_lp_is_refused_fast(capsys, argv, count):
    started = time.perf_counter()
    rc, out, err = run(capsys, ["reiter", *argv])
    assert time.perf_counter() - started < 1
    assert rc == 2 and out == ""
    assert count in err


@pytest.mark.parametrize("argv,count", [
    (["witness", "--n-max", "1000000000"],
     "a witness chain of 1000000001 relations over 8 points has 8000000008 "
     "entries, over the cap of 200000"),
    (["cfw", "--m-max", "1000000000"],
     "the extraction weighs 1000000000 (group element, band) slices, over "
     "the cap of 2000"),
    (["tree", "--config", "{cfg}"],
     "model.h: cyclic group of order 1000000000 is over the cap of 1024"),
])
def test_oversized_chain_extraction_or_group_is_refused_fast(
        tmp_path, capsys, argv, count):
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({"model": {
        "h": {"cyclic": 1000000000}, "k": {"cyclic": 2}, "c": {"cyclic": 1},
        "embed_h": [0], "embed_k": [0]}}))
    started = time.perf_counter()
    rc, out, err = run(capsys, [a.replace("{cfg}", str(cfg)) for a in argv])
    assert time.perf_counter() - started < 1
    assert rc == 2 and out == ""
    assert count in err and err.count("\n") == 1


def _readme_commands() -> list:
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("arbor ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    assert len(commands) == 7
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        rc, _, err = run(capsys, argv)
        assert rc == 0, (argv, err)
