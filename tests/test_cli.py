import dataclasses
import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from arbor import cber, reiter, tree
from arbor.cli import ConfigError, load_config, main
from arbor.groups import B_SIDE, Letter, ReducedWord
from arbor.lp import LpSolution
from arbor.reiter import monotone_tensor

from bruteforce import swap_intercalate, tensor_to_json

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

EQUIV_X = "prefix=e;cycle=b,a"
EQUIV_Y = "prefix=;cycle=a,b"
OTHER_Y = "prefix=;cycle=a,b2"

# H names no report can read back, each put in place of psl2z's "s": codes
# and words are joined with , ; and *, and dot labels are quoted
UNREADABLE_NAMES = {"comma": "a,b", "space": " s", "empty": "",
                    "semicolon": "s;t", "star": "s*t", "quote": 's"',
                    "backslash": "s\\"}


def psl2z_named(h_name: str) -> dict:
    return {"model": {"h": {"cyclic": 2, "names": ["e", h_name]},
                      "k": {"cyclic": 3, "names": ["e", "t", "t2"]},
                      "c": {"cyclic": 1, "names": ["e"]},
                      "embed_h": [0], "embed_k": [0]}}


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
    # C300 with one intercalate swapped: a Latin square with identity 0
    # that is not associative, above the order the triple loop once reached
    c300 = [[(i + j) % 300 for j in range(300)] for i in range(300)]
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
        ({"cyclic": 4, "cap": 2},
         "model.h: cap: only a permutations spec has a closure to cap\n"),
        ({"mul_table": table, "cap": 2},
         "model.h: cap: only a permutations spec has a closure to cap\n"),
        ({"cyclic": 4, "nmes": ["e", "a", "a2", "a3"]},
         "model.h.nmes: unknown key\n"),
        ({"mul_table": swap_intercalate(c300, (1, 151, 1, 151))},
         "model.h: table is not associative"),
    ] + [({"cyclic": 4, "names": ["e", name, "a2", "a3"]},
          f"model.h: names: {name!r} cannot be read back from a report")
         for name in UNREADABLE_NAMES.values()]
    cases = [({"model": dict(model, h=spec)}, msg) for spec, msg in broken_h]
    cases += [
        ({"model": dict(model, embed_h=[0, True])}, "model.embed_h"),
        ({"model": dict(model, embed_c=[0, 2])},
         "model.embed_c: unknown key\n"),
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

    # a transposition and an 8-cycle generate S8, with 40,320 elements: the
    # cap is refused before the closure starts
    s8 = [[1, 0, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 0]]
    path.write_text(json.dumps({"model": dict(
        model, h={"permutations": s8, "cap": 40320})}))
    started = time.perf_counter()
    rc, out, err = run(capsys, ["tree", "--config", str(path)])
    assert time.perf_counter() - started < 1
    assert (rc, out) == (2, "")
    assert err == ("error: model.h: closure cap of 40320 elements is over the "
                   "cap of 1024 elements\n")


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


def test_group_window_refuses_grid_check(monkeypatch, capsys):
    # refused before the certificate is computed
    monkeypatch.setattr("arbor.cli.check_uniform_coamenable", None)
    rc, out, err = run(capsys, ["reiter", "--window", "group",
                                "--grid-check"])
    assert (rc, out) == (2, "")
    assert err == ("error: --grid-check: the group window has no LP optimum "
                   "to cross-check; use --window z or free\n")


def test_failed_witness_recheck_exits_3(monkeypatch, capsys):
    # products that keep only their left factor spell a wrong witness
    monkeypatch.setattr("arbor.cber.multiply", lambda am, g, h: g)
    rc, out, err = run(capsys, ["equiv", "--x", EQUIV_X, "--y", EQUIV_Y])
    assert rc == 3
    assert out == ""
    assert err == "internal error: orbit witness failed re-verification\n"


S4 = str(ROOT / "perfbench" / "fixtures" / "s4_c3_s3.json")
SIGMA_3 = "prefix=e;cycle=t1,s1"  # on S4: sigma_length 3, ray order 1


@pytest.mark.parametrize("what,plant,message", [
    # the element that dies at sigma reported as fixing the end
    ("stabilizers",
     lambda out, fix, n, dead: (out, fix + [(0, dead)], n, dead),
     "ray stabilizer element fails to fix the end"),
    ("theorem-a",
     lambda out, fix, n, dead: (out, fix + [(0, dead)], n, dead),
     "segment stabilizer element fails to fix the segment"),
    # ... and as fixing the end one step earlier, where it fixes the segment
    ("theorem-a",
     lambda out, fix, n, dead: (out, fix + [(0, dead)], n - 1, dead),
     "ray stabilizer element fails to fix the end"),
    # the identity as the element that dies at sigma
    ("theorem-a", lambda out, fix, n, dead: (out, fix, n, 0),
     "no element fixes 2 steps of the ray but not 3"),
    # no death at all, so the identity alone must be all of H
    ("theorem-a", lambda out, fix, n, dead: (out, fix, 0, None),
     "an element left out of the stabilizer fixes the ray's vertex at "
     "distance 0"),
], ids=["ray", "segment", "ray-after-segment", "sigma", "sigma-zero"])
def test_failed_stabilizer_recheck_exits_3(monkeypatch, capsys, what, plant,
                                           message):
    rc, out, _ = run(capsys, ["check", "--what", "theorem-a", "--config", S4,
                              "--codes", SIGMA_3])
    assert rc == 0 and json.loads(out)["rows"][0]["sigma_length"] == 3
    # plant maps the walk's (letters, survivors, sigma, dying element) to
    # what the re-checks see
    walk = tree.lockstep
    monkeypatch.setattr("arbor.tree.lockstep",
                        lambda am, x, least: plant(*walk(am, x, least)))
    rc, out, err = run(capsys, ["check", "--what", what, "--config", S4,
                                "--codes", SIGMA_3])
    assert (rc, out, err) == (3, "", f"internal error: {message}\n")


ORDER_3 = "prefix=e;cycle=t1,s18"  # on S4: sigma_length 1, ray order 3


@pytest.mark.parametrize("what", ["stabilizers", "theorem-a"])
def test_dropped_stabilizer_element_exits_3(monkeypatch, capsys, what):
    rc, out, _ = run(capsys, ["check", "--what", "theorem-a", "--config", S4,
                              "--codes", ORDER_3])
    row = json.loads(out)["rows"][0]
    assert rc == 0 and (row["sigma_length"], row["order"]) == (1, 3)
    # a walk that loses its last survivor reports a subgroup too small; each
    # element it reports still fixes the segment and the end
    walk = tree.lockstep

    def dropping(am, x, least):
        out, fix, n, dead = walk(am, x, least)
        return out, fix[:-1] if len(fix) > 1 else fix, n, dead

    monkeypatch.setattr("arbor.tree.lockstep", dropping)
    rc, out, err = run(capsys, ["check", "--what", what, "--config", S4,
                                "--codes", ORDER_3])
    assert (rc, out, err) == (3, "", "internal error: an element left out of "
                              "the stabilizer fixes the ray's vertex at "
                              "distance 1\n")


def test_failed_orbit_code_recheck_exits_3(monkeypatch, capsys):
    # the walk reports a first letter that its first survivor does not spell
    walk = cber.lockstep

    def misread(am, x, least):
        out, fix, n, dead = walk(am, x, least)
        return (Letter(out[0].side, out[0].rep + 1),) + out[1:], fix, n, dead

    monkeypatch.setattr("arbor.cber.lockstep", misread)
    rc, out, err = run(capsys, ["equiv", "--x", EQUIV_X, "--y", EQUIV_Y])
    assert (rc, out) == (3, "")
    assert err == ("internal error: canonical orbit code disagrees with the "
                   "lockstep walk\n")


def test_missing_orbit_witness_exits_3(monkeypatch, capsys):
    monkeypatch.setattr("arbor.cber._shift_witness", lambda *args: None)
    rc, out, err = run(capsys, ["witness", "--config", "dihedral"])
    assert (rc, out) == (3, "")
    assert err == ("internal error: target class pair (0,0) has no orbit "
                   "witness\n")


def test_failed_segment_stabilizer_recheck_exits_3(monkeypatch, capsys):
    # every conjugated element comes out as one K letter, which moves the
    # base vertex that the survey's first segment starts at
    monkeypatch.setattr("arbor.tree.multiply",
                        lambda am, u, v: ReducedWord((Letter(B_SIDE, 1),), 0))
    rc, out, err = run(capsys, ["check", "--what", "acylindrical",
                                "--seg-length", "1"])
    assert (rc, out) == (3, "")
    assert err == "internal error: conjugated stabilizer element fails to fix\n"


def test_reiter_value_mismatch_exits_3(monkeypatch, capsys):
    # a simplex that reports its vertex one unit worse than it deviates
    solve = reiter.solve_lp

    def off_by_one(*program):
        sol = solve(*program)
        return LpSolution(sol.value + 1, sol.x, sol.y)

    monkeypatch.setattr("arbor.reiter.solve_lp", off_by_one)
    rc, out, err = run(capsys, ["reiter", "--window", "z",
                                "--support-size", "3"])
    assert (rc, out) == (3, "")
    assert err == ("internal error: verification mismatch: simplex reported "
                   "5/3 but the vertex deviates by 2/3\n")


def test_cfw_late_mass_recheck_exits_3(monkeypatch, capsys):
    # stage 0's late mass is 4095/4096; the extraction stores 1/2 instead
    extract = reiter.cfw_extract

    def corrupted(tensor, m_max=None):
        ext = extract(tensor, m_max)
        first = dataclasses.replace(ext.rows[0], bad_mass=Fraction(1, 2))
        return dataclasses.replace(ext, rows=(first,) + ext.rows[1:])

    monkeypatch.setattr("arbor.cli.cfw_extract", corrupted)
    rc, out, err = run(capsys, ["cfw"])
    assert (rc, out) == (3, "")
    assert err == ("internal error: late mass at stage 0 recomputes to "
                   "4095/4096, stored 1/2\n")


def test_unscaled_elimination_fails_the_lp_certificate(monkeypatch, capsys):
    # the integer pivot without its row scale is right only when the pivot
    # numerator divides the entry it clears; the z window's LP on two points
    # has a pivot where it does not
    def unscaled(row, b, den, prow, pb, p, col):
        factor = row[col] // gcd(row[col], p)
        for j, v in prow.items():
            new = row.get(j, 0) - factor * v
            if new:
                row[j] = new
            else:
                del row[j]
        return b - factor * pb, den

    monkeypatch.setattr("arbor.lp._eliminate", unscaled)
    rc, out, err = run(capsys, ["reiter", "--window", "z",
                                "--support-size", "2"])
    assert (rc, out) == (3, "")
    assert err == "internal error: certificate: constraint 6 is violated\n"


# sha256 of the reports of the largest LPs the entry cap admits, recorded
# from the Fraction tableau before the simplex moved to integer rows
LARGE_LP_DIGESTS = {
    "--window free --rank 3 --support-radius 2":
        "6fce7011c237d9b8e1b3fefb89464f263c39710a34ed618ea7465c6aecd5fea5",
    "--window free --rank 2 --support-radius 3":
        "389c19ff3155e48b7c6dba5c997d82e8fa30266e420d3a1676de111d5fbf3a17",
    "--window z --support-size 287":
        "59c733a073dc47b7929c0e21f57ad1873abe6b97b37ddb451b2a71e147723cb7",
}


@pytest.mark.parametrize("args", LARGE_LP_DIGESTS)
def test_large_lp_reports_keep_their_bytes(capsys, args):
    rc, out, err = run(capsys, ["reiter", *args.split()])
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_LP_DIGESTS[args]


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


@pytest.mark.parametrize("support", ["3", "1000000000"])
@pytest.mark.parametrize("denominator", ["0", "-5"])
def test_reiter_bad_denominator_is_refused_first(capsys, support,
                                                  denominator):
    # refused before the window is built, so an oversized support never
    # gets its own refusal
    rc, out, err = run(capsys, ["reiter", "--window", "z", "--support-size",
                                support, "--grid-check", "--denominator",
                                denominator])
    assert (rc, out) == (2, "")
    assert err == f"error: --denominator: need at least 1, got {denominator}\n"


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


def test_cfw_does_not_load_the_config(capsys):
    _, builtin_report, _ = run(capsys, ["cfw"])
    rc, out, err = run(capsys, ["cfw", "--config", "nosuch"])
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert doc["config"] == "nosuch"
    doc["config"] = "sl2z"
    assert doc == json.loads(builtin_report)


@pytest.mark.parametrize("size", ["0", "-3"])
def test_support_size_below_one_is_refused(capsys, size):
    rc, out, err = run(capsys, ["reiter", "--window", "z",
                                "--support-size", size])
    assert (rc, out) == (2, "")
    assert err == (f"error: --support-size: need at least 1 support point, "
                   f"got {size}\n")


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
    (["reiter", "--window", "group", "--grid-check", "--denominator", "0"],
     {}, 2),
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
    (["witness", "--config", "psl2z", "--n-max", "1"], {}, 2),
    (["cfw", "--m-max", "1000000000"], {}, 2),
    (["reiter", "--window", "z", "--support-size", "-3"], {}, 2),
    (["cfw", "--config", "nosuch"], {}, 0),
    # 81 points fill the window but escape it; more cannot fit at all, and
    # are refused before the support is listed
    (["reiter", "--window", "z", "--radius", "40", "--support-size", "81"],
     {}, 2),
    (["reiter", "--window", "z", "--radius", "40", "--support-size", "82"],
     {}, 2),
    (["reiter", "--window", "z", "--radius", "40", "--support-size",
      "1000000000"], {}, 2),
    # the labels of the dihedral ball of radius 3162 hold 3162 * 3163 letters,
    # over DOT_LETTER_CAP; one radius less fits
    (["tree", "--config", "dihedral", "--radius", "3162", "--dot",
      "{tmp}/ball.dot"], {}, 2),
    (["tree", "--config", "dihedral", "--radius", "4", "--dot",
      "{tmp}/ball.dot"], {}, 0),
] + [(["witness", "--config", f"{{tmp}}/names_{label}.json"], {}, 2)
     for label in UNREADABLE_NAMES]


@pytest.mark.parametrize("argv,env,code", EDGE_CASES,
                         ids=[" ".join(a) for a, _, _ in EDGE_CASES])
def test_edge_arguments_exit_without_traceback(tmp_path, argv, env, code):
    argv = [a.replace("{tmp}", str(tmp_path)).replace("{root}", str(ROOT))
            for a in argv]
    for label, name in UNREADABLE_NAMES.items():
        (tmp_path / f"names_{label}.json").write_text(
            json.dumps(psl2z_named(name)))
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


def test_oversized_dot_is_refused_fast(tmp_path, capsys):
    dot = tmp_path / "ball.dot"
    started = time.perf_counter()
    rc, out, err = run(capsys, ["tree", "--config", "dihedral", "--radius",
                                "3162", "--dot", str(dot)])
    assert time.perf_counter() - started < 1
    assert (rc, out) == (2, "")
    assert err == ("error: the dot labels of a ball of radius 3162 hold "
                   "10001406 letters, over the cap of 10000000\n")
    assert not dot.exists()
    rc, _, _ = run(capsys, ["tree", "--config", "dihedral", "--radius",
                            "3161", "--dot", str(dot)])
    assert rc == 0
    assert dot.read_text().count("--") == 2 * 3161


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
    (["--window", "z", "--radius", "40", "--support-size", "81"],
     "error: support vertex 40 escapes under generator 1; shrink the support "
     "or grow the window\n"),
    (["--window", "z", "--radius", "40", "--support-size", "82"],
     "error: --support-size: 82 support points do not fit in the window of "
     "radius 40, which has 81 vertices\n"),
    (["--window", "z", "--radius", "40", "--support-size", "1000000000"],
     "error: --support-size: 1000000000 support points do not fit in the "
     "window of radius 40, which has 81 vertices\n"),
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


@pytest.mark.parametrize("argv,count", [
    (["tree", "--radius", "60"],
     "the tree ball of radius 60 has more than 2**30 vertices"),
    (["check", "--what", "acylindrical", "--seg-length", "30"],
     "the tree ball of radius 32 has 393211 vertices"),
    (["tree", "--config", "dihedral", "--radius", "1000000000"],
     "the tree ball of radius 1000000000 has 2000000001 vertices"),
])
def test_oversized_tree_ball_is_refused_fast(capsys, argv, count):
    started = time.perf_counter()
    rc, out, err = run(capsys, argv)
    assert time.perf_counter() - started < 0.5
    assert (rc, out) == (2, "")
    assert err == f"error: {count}, over the vertex cap of 100000\n"


def test_witness_below_stabilization_names_n_max(capsys):
    rc, out, err = run(capsys, ["witness", "--config", "psl2z",
                                "--n-max", "1"])
    assert (rc, out) == (2, "")
    assert err == ("error: the chain up to --n-max 1 does not reach the "
                   "orbit relation on the sample; raise --n-max (6 is always "
                   "enough for this sample)\n")
    # the advertised bound is enough, and so is the chain's stabilization
    for n_max in ("6", "2"):
        rc, out, _ = run(capsys, ["witness", "--config", "psl2z",
                                  "--n-max", n_max])
        assert rc == 0
        assert json.loads(out)["stabilized_at"] == 2


def test_short_n_max_is_refused_before_any_certificate(monkeypatch, capsys):
    def certify(*args):
        raise AssertionError("a certificate was built before the refusal")

    monkeypatch.setattr("arbor.cber.check_theorem_A", certify)
    rc, out, err = run(capsys, ["witness", "--config", "psl2z",
                                "--n-max", "1"])
    assert (rc, out) == (2, "")
    assert err.startswith("error: the chain up to --n-max 1 does not reach")


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
