import copy
import hashlib
import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

import pytest

from arbor import cber, cli, groups, reiter, tree
from arbor.cli import ConfigError, load_config, main
from arbor.groups import (A_SIDE, B_SIDE, Amalgam, Letter, ReducedWord,
                          VerificationError)
from arbor.lp import LpSolution
from arbor.reiter import monotone_tensor
from arbor.tree import GeodesicPath

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


# H specs whose names do not name each element exactly once
MISNAMED_H = {"duplicate": {"cyclic": 2, "names": ["e", "e"]},
              "short": {"cyclic": 2, "names": ["e"]}}


def psl2z_with_h(h: dict) -> dict:
    return {"model": {"h": h,
                      "k": {"cyclic": 3, "names": ["e", "t", "t2"]},
                      "c": {"cyclic": 1, "names": ["e"]},
                      "embed_h": [0], "embed_k": [0]}}


def psl2z_named(h_name: str) -> dict:
    return psl2z_with_h({"cyclic": 2, "names": ["e", h_name]})


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
        ({"permutations": [[1, 2, 3, 0]], "cap": "x"},
         "model.h.cap: unknown key\n"),
        ({"permutations": [[1, 2, 3, 0]], "cap": True},
         "model.h.cap: unknown key\n"),
        ({"permutations": [5]}, "model.h: permutations"),
        ({"cyclic": 4, "cap": 2}, "model.h.cap: unknown key\n"),
        ({"mul_table": table, "cap": 2}, "model.h.cap: unknown key\n"),
        ({"cyclic": 4, "nmes": ["e", "a", "a2", "a3"]},
         "model.h.nmes: unknown key\n"),
        ({"mul_table": swap_intercalate(c300, (1, 151, 1, 151))},
         "model.h: table is not associative"),
    ] + [({"cyclic": 4, "names": ["e", name, "a2", "a3"]},
          f"model.h: names: {name!r} cannot be read back from a report")
         for name in UNREADABLE_NAMES.values()
    ] + [({"cyclic": 4, "names": names},
          "model.h: names must be distinct and cover every element\n")
         for names in (["e", "a", "a", "a3"], ["e", "a"])]
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
    # closure stops at the group-size cap
    s8 = [[1, 0, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 0]]
    path.write_text(json.dumps({"model": dict(model, h={"permutations": s8})}))
    started = time.perf_counter()
    rc, out, err = run(capsys, ["tree", "--config", str(path)])
    assert time.perf_counter() - started < 1
    assert (rc, out) == (2, "")
    assert err == "error: model.h: closure exceeds the cap of 1024 elements\n"


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
    # read on every load, also of a model built by an earlier one
    assert run(capsys, ["tree", "--radius", "4"])[0] == 0
    hits = cli._model.cache_info().hits
    monkeypatch.setenv("ARBOR_VERTEX_CAP", "5")
    rc, out, err = run(capsys, ["tree", "--radius", "4"])
    assert (rc, out) == (2, "")
    assert "cap of 5" in err
    monkeypatch.setenv("ARBOR_VERTEX_CAP", "abc")
    assert run(capsys, ["tree", "--radius", "2"]) == (
        2, "", "error: ARBOR_VERTEX_CAP: not an integer: 'abc'\n")
    monkeypatch.delenv("ARBOR_VERTEX_CAP")
    assert run(capsys, ["tree", "--radius", "4"])[0] == 0
    assert cli._model.cache_info().hits == hits + 3  # every load was cached


# the models a process builds are kept by config text: what each load must
# still read, refuse and rebuild

LINE = {"model": {"h": {"cyclic": 2}, "k": {"cyclic": 2},
                  "c": {"cyclic": 1}, "embed_h": [0], "embed_k": [0]}}


def test_rewritten_config_loads_the_new_model(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(LINE))
    argv = ["tree", "--config", str(path), "--radius", "3"]
    rc, out, _ = run(capsys, argv)
    assert (rc, json.loads(out)["counts_by_distance"]) == (0, [1, 2, 2, 2])
    line, _ = load_config(str(path))
    assert load_config(str(path))[0] is line  # the same text: the same model

    path.write_text(json.dumps(psl2z_named("s")))  # same path, new text
    rc, out, _ = run(capsys, argv)
    assert (rc, json.loads(out)["counts_by_distance"]) == (0, [1, 2, 4, 4])
    assert load_config(str(path))[0].K.order == 3


def test_bad_config_is_refused_on_every_call(tmp_path, capsys):
    path = tmp_path / "model.json"
    argv = ["tree", "--config", str(path), "--radius", "1"]
    path.write_text(json.dumps(LINE))
    assert run(capsys, argv)[0] == 0
    path.write_text("{nope")
    refusals = [run(capsys, argv) for _ in range(2)]
    assert refusals[0] == refusals[1]
    assert refusals[0][:2] == (2, "")
    assert refusals[0][2].startswith(f"error: {path}: invalid JSON: ")
    # a model refused at its build is refused again, with the same line
    path.write_text(json.dumps(psl2z_with_h({"cyclic": 2, "names": ["e"]})))
    refusals = [run(capsys, argv) for _ in range(2)]
    assert refusals[0] == refusals[1]
    assert refusals[0][:2] == (2, "")
    assert refusals[0][2].startswith("error: model.h: ")
    path.write_text(json.dumps(LINE))
    assert run(capsys, argv)[0] == 0


def test_model_cache_stays_within_its_bound(tmp_path):
    bound = cli._model.cache_info().maxsize
    paths = []
    for n in range(2, bound + 5):
        doc = copy.deepcopy(LINE)
        doc["model"]["h"] = {"cyclic": n}
        paths.append(tmp_path / f"c{n}.json")
        paths[-1].write_text(json.dumps(doc))
        assert load_config(str(paths[-1]))[0].H.order == n
        assert cli._model.cache_info().currsize <= bound
    # the first model was dropped from the cache, and is built again
    misses = cli._model.cache_info().misses
    assert load_config(str(paths[0]))[0].H.order == 2
    assert cli._model.cache_info().misses == misses + 1
    assert cli._model.cache_info().currsize == bound


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
S4_S3_S4 = str(ROOT / "tests" / "models" / "s4_s3_s4.json")
# Z2 wr Z4 *_(Z2^3) Z2^4: carries live for two cycle passes and die in the
# third, so ray certificates reach far past the horizon
Z2WR4 = str(ROOT / "tests" / "models" / "z2wr4_z2e4.json")
PAST_HORIZON = "prefix=;cycle=g3,g4"  # on Z2WR4: horizon 2, sigma_length 7
SIGMA_3 = "prefix=e;cycle=t1,s1"  # on S4: sigma_length 3, ray order 1
ORDER_3 = "prefix=e;cycle=t1,s18"  # on S4: sigma_length 1, ray order 3
DEATHS_2_3 = "prefix=e;cycle=g2,g2"  # on s4_s3_s4: deaths at 2 and 3


def plant_walk(monkeypatch, plant):
    """Every fixing walk hands its re-checks plant(am, letters, survivors,
    deaths) in place of what it found; survivors are (carry, element) and
    deaths (position, element)."""
    walk = tree.lockstep
    monkeypatch.setattr("arbor.tree.lockstep", lambda am, path, least: plant(
        am, *walk(am, path, least)))


def _first_mover(deaths):
    """An element that moves the walk's first edge."""
    return next(e for k, e in deaths if k == 1)


def conjugated(am, out, fix, deaths):
    """The walk's elements conjugated by one that moves the first edge: the
    stabilizer of another edge at the same vertex."""
    grp = am.side_group(out[0].side)
    g = _first_mover(deaths)

    def c(e):
        return grp.mul(grp.mul(g, e), grp.inv(g))

    return out, [(k, c(e)) for k, e in fix], [(k, c(e)) for k, e in deaths]


def dead_survives(am, out, fix, deaths):
    """The element that dies last reported as a survivor too."""
    return out, fix + [(0, deaths[-1][1])], deaths


def no_death(am, out, fix, deaths):
    return out, fix, []


def swapped_survivor(am, out, fix, deaths):
    """The last survivor swapped for an element that moves the first edge."""
    return out, fix[:-1] + [(fix[-1][0], _first_mover(deaths))], deaths


def swapped_death(am, out, fix, deaths):
    """The last death swapped for an element that moves the first edge."""
    return out, fix, deaths[:-1] + [(deaths[-1][0], _first_mover(deaths))]


def death_early(am, out, fix, deaths):
    """The last death reported one position early."""
    k, e = deaths[-1]
    return out, fix, deaths[:-1] + [(k - 1, e)]


def death_late(am, out, fix, deaths):
    """The last death reported one position late."""
    k, e = deaths[-1]
    return out, fix, deaths[:-1] + [(k + 1, e)]


def later_death_late(am, out, fix, deaths):
    """The first death at 2 <= k < sigma, the last death's position,
    reported one position late: the element still moves the vertex at k + 1,
    but no longer fixes the one at k."""
    sigma = max(deaths)[0]
    i = next((i for i, (k, _) in enumerate(deaths) if 1 < k < sigma), None)
    if i is None:
        return out, fix, deaths
    k, e = deaths[i]
    return out, fix, deaths[:i] + [(k + 1, e)] + deaths[i + 1:]


def dropped(am, out, fix, deaths):
    """The last survivor lost, unless it is the only one."""
    return out, fix[:-1] if len(fix) > 1 else fix, deaths


DEATHS_OFF_PATH = "the walk reports no death, or one past its path"
FAILS_END = "ray stabilizer element fails to fix the end"
MOVES_FIRST_EDGE = ("an element the walk keeps past the first letter moves "
                    "the first edge")


def death_position(k):
    return (f"an element the walk reports dying at distance {k} does not fix "
            f"the path's vertex at {k - 1} and move the one at {k}")


def edge_stabilizer_size(size):
    return (f"the walk's first-edge stabilizer is not |G|/|G:C| = {size} "
            f"distinct elements")


@pytest.mark.parametrize("what,plant,message", [
    ("stabilizers", dead_survives, FAILS_END),
    ("theorem-a", dead_survives, FAILS_END),
    # ... and every death at sigma one step earlier, where the element
    # reported as a survivor fixes the segment
    ("theorem-a", lambda am, out, fix, deaths: (
        out, fix + [(0, deaths[-1][1])],
        [(k - (k == deaths[-1][0]), e) for k, e in deaths]), FAILS_END),
    # the identity, the ray's one survivor, as every element that dies at
    # sigma
    ("theorem-a", lambda am, out, fix, deaths: (
        out, fix, [(k, 0 if k == deaths[-1][0] else e) for k, e in deaths]),
     edge_stabilizer_size(3)),
    ("theorem-a", no_death, DEATHS_OFF_PATH),
    ("stabilizers", no_death, DEATHS_OFF_PATH),
    ("stabilizers", swapped_survivor, FAILS_END),
    ("theorem-a", swapped_survivor, FAILS_END),
    ("stabilizers", swapped_death, MOVES_FIRST_EDGE),
    ("theorem-a", swapped_death, MOVES_FIRST_EDGE),
    ("stabilizers", death_early, death_position(2)),
    ("theorem-a", death_early, death_position(2)),
    ("stabilizers", death_late, death_position(4)),
], ids=["ray", "segment", "ray-after-segment", "sigma", "sigma-zero",
        "no-death-stabilizers", "swapped-survivor-stabilizers",
        "swapped-survivor-theorem-a", "swapped-death-stabilizers",
        "swapped-death-theorem-a", "death-early-stabilizers",
        "death-early-theorem-a", "death-late-stabilizers"])
def test_failed_stabilizer_recheck_exits_3(monkeypatch, capsys, what, plant,
                                           message):
    rc, out, _ = run(capsys, ["check", "--what", "theorem-a", "--config", S4,
                              "--codes", SIGMA_3])
    assert rc == 0 and json.loads(out)["rows"][0]["sigma_length"] == 3
    plant_walk(monkeypatch, plant)
    rc, out, err = run(capsys, ["check", "--what", what, "--config", S4,
                                "--codes", SIGMA_3])
    assert (rc, out, err) == (3, "", f"internal error: {message}\n")


def test_capped_theorem_a_verdict_is_rechecked(monkeypatch, capsys):
    # a walk that reports its last death one position late puts sigma past
    # the cap; the missing certificate is re-checked like a found one
    plant_walk(monkeypatch, death_late)
    rc, out, err = run(capsys, ["check", "--what", "theorem-a", "--config",
                                S4, "--codes", SIGMA_3, "--max-len", "3"])
    assert (rc, out, err) == (3, "", f"internal error: {death_position(4)}\n")


@pytest.mark.parametrize("what", ["stabilizers", "theorem-a"])
def test_dropped_stabilizer_element_exits_3(monkeypatch, capsys, what):
    rc, out, _ = run(capsys, ["check", "--what", "theorem-a", "--config", S4,
                              "--codes", ORDER_3])
    row = json.loads(out)["rows"][0]
    assert rc == 0 and (row["sigma_length"], row["order"]) == (1, 3)
    # a walk that loses its last survivor reports a subgroup too small; each
    # element it reports still fixes the segment and the end
    plant_walk(monkeypatch, dropped)
    rc, out, err = run(capsys, ["check", "--what", what, "--config", S4,
                                "--codes", ORDER_3])
    assert (rc, out, err) == (3, "", "internal error: "
                              f"{edge_stabilizer_size(3)}\n")


def test_failed_orbit_code_recheck_exits_3(monkeypatch, capsys):
    # the walk reports a first letter that its first survivor does not spell
    walk = cber.lockstep

    def misread(am, x, least):
        out, fix, deaths = walk(am, x, least)
        return (Letter(out[0].side, out[0].rep + 1),) + out[1:], fix, deaths

    monkeypatch.setattr("arbor.cber.lockstep", misread)
    rc, out, err = run(capsys, ["equiv", "--x", EQUIV_X, "--y", EQUIV_Y])
    assert (rc, out) == (3, "")
    assert err == ("internal error: canonical orbit code disagrees with the "
                   "lockstep walk\n")


def test_unstable_junction_exits_3(monkeypatch, capsys):
    # a letter feed that never appends: feeding ray letters never stops
    # cancelling
    monkeypatch.setattr("arbor.tree.feed",
                        lambda am, letters, carry, letter: carry)
    rc, out, err = run(capsys, ["equiv", "--x", EQUIV_X, "--y", EQUIV_Y])
    assert (rc, out) == (3, "")
    assert err == "internal error: junction phase failed to stabilize\n"


class CountingUp(dict):
    """A step table for one side that counts carries up instead of keeping
    them in C: row c, for every c, sends each rep r to (r, c + 1); 16 reps
    are more than either side of the default model has."""

    def __missing__(self, carry):
        return [(rep, carry + 1) for rep in range(16)]


def test_acyclic_carry_phase_exits_3(monkeypatch, capsys):
    # the loaded model's step table, swapped after its load-time check for
    # one that counts carries up: no (cycle position, carry) state repeats.
    # The swap is made on a copy, so the model later loads share is unharmed
    load = load_config

    def counting_up(source):
        am, cap = load(source)
        am = copy.copy(am)
        am.steps = (CountingUp(), CountingUp())
        return am, cap

    monkeypatch.setattr("arbor.cli.load_config", counting_up)
    rc, out, err = run(capsys, ["equiv", "--x", EQUIV_X, "--y", EQUIV_Y])
    assert (rc, out) == (3, "")
    assert err == "internal error: carry phase failed to cycle\n"


def test_wrong_step_entry_exits_3_at_load(monkeypatch, capsys):
    # decompose gives a wrong carry for embed(1)·rep[1] on the K side, and
    # only the step table is built with it: the model's load refuses it
    # before any work
    decompose = Amalgam.decompose

    def wrong_carry(am, side, elem):
        rep, carry = decompose(am, side, elem)
        if side == B_SIDE and elem == am.K.mul(am.embed_to_side(B_SIDE, 1),
                                               am.rep_element(B_SIDE, 1)):
            carry = am.C.mul(carry, 1)
        return rep, carry

    monkeypatch.setattr(Amalgam, "decompose", wrong_carry)
    cli._model.cache_clear()  # the plant reaches a fresh build
    rc, out, err = run(capsys, ["witness", "--config",
                                str(ROOT / "perfbench/fixtures/s4_c3_s3.json")])
    assert (rc, out) == (3, "")
    assert err == ("internal error: the K step table disagrees with group "
                   "multiplication at carry 1, rep 1\n")


def test_wrong_coset_table_exits_3_at_load(monkeypatch, capsys):
    # element 1 of H gets another carry in C, so its coset tables no longer
    # multiply back to it
    factor = groups._factor

    def wrong_carry(group, images):
        transversal, rep_idx, carry = factor(group, images)
        carry = carry[:1] + ((carry[1] + 1) % len(images),) + carry[2:]
        return transversal, rep_idx, carry

    monkeypatch.setattr("arbor.groups._factor", wrong_carry)
    cli._model.cache_clear()  # the plant reaches a fresh build
    rc, out, err = run(capsys, ["tree", "--radius", "1"])
    assert (rc, out) == (3, "")
    assert err == ("internal error: the H coset tables do not factor H "
                   "uniquely\n")


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


def test_segment_stabilizer_recheck_reaches_the_far_end(monkeypatch,
                                                       capsys):
    # every conjugated element comes out as one nontrivial H letter, which
    # fixes the base vertex that the survey's first segment starts at but
    # moves its far end, the base's K neighbour
    monkeypatch.setattr("arbor.tree.multiply",
                        lambda am, u, v: ReducedWord((Letter(A_SIDE, 1),), 0))
    rc, out, err = run(capsys, ["check", "--what", "acylindrical",
                                "--seg-length", "1"])
    assert (rc, out) == (3, "")
    assert err == "internal error: conjugated stabilizer element fails to fix\n"
    # later segments start elsewhere, where the letter moves the start too;
    # the first one is refused at its far end alone
    am, _ = load_config("sl2z")
    first = tree.geodesic(tree.build_tree(am, 1), 0, 1)
    with pytest.raises(VerificationError, match="^conjugated stabilizer "
                                                "element fails to fix$"):
        tree.stabilizer_of_segment(am, first)


def one_step_further(v: tree.TreeVertex) -> tree.TreeVertex:
    """A child of v, one step further from the base vertex."""
    step = Letter(len(v.word) % 2, 1)
    return tree.TreeVertex(1 - v.vtype, v.word + (step,))


@pytest.mark.parametrize("plant,length", [
    (lambda path, v, w: tree.GeodesicPath(path(v, w).vertices[:-1]), 1),
    (lambda path, v, w: path(v, one_step_further(w)), 3),
], ids=["shortened", "lengthened"])
def test_translated_segment_of_wrong_length_exits_3(monkeypatch, capsys,
                                                    plant, length):
    # the translated segment is the path between its translated ends; one
    # that loses or gains a vertex is a defect, while the survey's own
    # segments keep their length
    path = tree._path_between
    monkeypatch.setattr("arbor.tree.geodesic", lambda ball, i, j: path(
        ball.vertex(i), ball.vertex(j)))
    monkeypatch.setattr("arbor.tree._path_between",
                        lambda v, w: plant(path, v, w))
    rc, out, err = run(capsys, ["check", "--what", "acylindrical",
                                "--seg-length", "2"])
    assert (rc, out, err) == (3, "", "internal error: the translated segment "
                              f"has length {length}, not 2\n")


def test_survey_segment_faults_exit_3(monkeypatch, capsys):
    # the survey builds its segments itself, so a path that backtracks, or a
    # translation that leaves a segment's start where it is, is a defect
    argv = ["check", "--what", "acylindrical", "--seg-length", "1"]
    path = tree.geodesic
    monkeypatch.setattr("arbor.tree.geodesic", lambda ball, i, j: GeodesicPath(
        path(ball, i, j).vertices + path(ball, i, j).vertices[-2:-1]))
    rc, out, err = run(capsys, argv)
    assert (rc, out, err) == (3, "", "internal error: survey segment is not "
                              "a geodesic: path backtracks\n")
    monkeypatch.setattr("arbor.tree.geodesic", path)
    monkeypatch.setattr("arbor.tree.word_element",
                        lambda am, letters: am.identity_word())
    rc, out, err = run(capsys, argv)
    assert (rc, out, err) == (3, "", "internal error: failed to translate the "
                              "segment start to a base coset\n")


SEGMENTS_1 = ["acylindrical", "--config", S4_S3_S4, "--seg-length", "1"]
SEGMENTS_3 = ["acylindrical", "--config", S4_S3_S4, "--seg-length", "3"]


@pytest.mark.parametrize("argv,plant,message", [
    # the stabilizer of another edge at the same vertex
    (SEGMENTS_1, conjugated, MOVES_FIRST_EDGE),
    (SEGMENTS_1, dropped, edge_stabilizer_size(6)),
    (["stabilizers", "--config", S4, "--codes", SIGMA_3], conjugated,
     MOVES_FIRST_EDGE),
    (SEGMENTS_3, dead_survives, edge_stabilizer_size(6)),
    (SEGMENTS_3, no_death, DEATHS_OFF_PATH),
    (SEGMENTS_3, swapped_survivor, MOVES_FIRST_EDGE),
    (SEGMENTS_3, swapped_death, MOVES_FIRST_EDGE),
    (SEGMENTS_3, death_early, death_position(2)),
    (SEGMENTS_3, death_late, DEATHS_OFF_PATH),
    (["stabilizers", "--config", S4_S3_S4, "--codes", DEATHS_2_3],
     later_death_late, death_position(3)),
    (SEGMENTS_3, later_death_late, death_position(3)),
], ids=["inverse-representative", "dropped-candidate",
        "inverse-representative-ray", "dead-survives-segment",
        "no-death-segment", "swapped-survivor-segment",
        "swapped-death-segment", "death-early-segment",
        "death-late-segment", "later-death-late-ray",
        "later-death-late-segment"])
def test_wrong_edge_stabilizer_exits_3(monkeypatch, capsys, argv, plant,
                                       message):
    # walks whose first-edge stabilizer or deaths are wrong, on segments
    # and on a ray
    argv = ["check", "--what"] + argv
    assert run(capsys, argv)[0] == 0
    plant_walk(monkeypatch, plant)
    rc, out, err = run(capsys, argv)
    assert (rc, out, err) == (3, "", f"internal error: {message}\n")


def test_unstrict_group_certificate_exits_3(monkeypatch, capsys):
    # a deviation of 1/2 on a finite factor, where the uniform vector has 0
    monkeypatch.setattr("arbor.reiter.reiter_deviation",
                        lambda p, gens, apply, x: Fraction(1, 2))
    rc, out, err = run(capsys, ["reiter", "--window", "group"])
    assert (rc, out) == (3, "")
    assert err == "internal error: certificate bound is not strict\n"


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


@pytest.mark.parametrize("plant,message", [
    # stage 1's threshold moved to column 0, with that column's true late
    # mass, 4095/4096, which is over the stage's bound of 1/2
    (dict(f=0, bad_mass=Fraction(4095, 4096)),
     "stage 1 exceeds its bound"),
    (dict(bound=Fraction(1)), "stage 1 has bound 1, not 1/2**1"),
], ids=["late-mass-over-bound", "wrong-bound"])
def test_cfw_threshold_recheck_exits_3(monkeypatch, capsys, plant, message):
    extract = reiter.cfw_extract

    def corrupted(tensor, m_max=None):
        ext = extract(tensor, m_max)
        rows = list(ext.rows)
        rows[1] = rows[1]._replace(**plant)
        return ext._replace(rows=tuple(rows))

    monkeypatch.setattr("arbor.cli.cfw_extract", corrupted)
    assert run(capsys, ["cfw"]) == (3, "", f"internal error: {message}\n")


def test_cfw_late_mass_recheck_exits_3(monkeypatch, capsys):
    # stage 0's late mass is 4095/4096; the extraction stores 1/2 instead
    extract = reiter.cfw_extract

    def corrupted(tensor, m_max=None):
        ext = extract(tensor, m_max)
        first = ext.rows[0]._replace(bad_mass=Fraction(1, 2))
        return ext._replace(rows=(first,) + ext.rows[1:])

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

    # an empty list is given, not absent: it is refused, never replaced by
    # the window's default generators
    for window, message in (("z", "generators: need integers, got ''"),
                            ("group", "unknown element name ''")):
        rc, out, err = run(capsys, ["reiter", "--window", window,
                                    "--generators", ""])
        assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_group_generators_are_element_names(tmp_path, capsys):
    # H = C4 with its element 3 named "1": a digit names an element, it is
    # never read as an index
    path = tmp_path / "digits.json"
    path.write_text(json.dumps(psl2z_with_h(
        {"cyclic": 4, "names": ["e", "3", "2", "1"]})))
    argv = ["reiter", "--window", "group", "--side", "h", "--config",
            str(path), "--generators"]
    rc, out, _ = run(capsys, argv + ["1"])
    assert rc == 0
    assert json.loads(out)["per_gen"] == [["1", "0"]]
    rc, out, err = run(capsys, argv + ["9"])
    assert (rc, out, err) == (2, "", "error: unknown element name '9'\n")


@pytest.mark.parametrize("argv,message", [
    (["--window", "group", "--support-size", "-5", "--rank", "0",
      "--radius", "-3"],
     "--radius: the group window does not use this flag; only --window z "
     "or free does"),
    (["--window", "z", "--side", "h", "--support-size", "3"],
     "--side: the z window does not use this flag; only --window group does"),
    (["--window", "free", "--support-size", "10"],
     "--support-size: the free window does not use this flag; only --window "
     "z does"),
    (["--window", "z", "--rank", "2", "--support-radius", "2"],
     "--rank: the z window does not use this flag; only --window free does"),
    (["--window", "group", "--denominator", "20"],
     "--denominator: the group window does not use this flag; only --window "
     "z or free does"),
    (["--window", "z", "--denominator", "-5"],
     "--denominator: a run without --grid-check does not use this flag; only "
     "--grid-check does"),
    (["--window", "free", "--generators", ""],
     "--generators: the free window does not use this flag; only --window z "
     "or group does"),
])
def test_flag_the_window_does_not_use_is_refused(monkeypatch, capsys, argv,
                                                  message):
    # refused before any window or certificate is built, even at the
    # flag's default value
    for name in ("check_uniform_coamenable", "integer_window",
                 "free_tree_window"):
        monkeypatch.setattr(f"arbor.cli.{name}", None)
    rc, out, err = run(capsys, ["reiter", *argv])
    assert (rc, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv,message", [
    (["--what", "acylindrical", "--max-len", "-5", "--codes", "junk"],
     "--codes: --what acylindrical does not use this flag; only --what "
     "theorem-a or stabilizers does"),
    (["--what", "theorem-a", "--seg-length", "-3", "--bound", "-1"],
     "--seg-length: --what theorem-a does not use this flag; only --what "
     "acylindrical does"),
    (["--what", "stabilizers", "--max-len", "3"],
     "--max-len: --what stabilizers does not use this flag; only --what "
     "theorem-a does"),
    (["--what", "acylindrical", "--p-max", "1"],
     "--p-max: --what acylindrical does not use this flag; only --what "
     "theorem-a or stabilizers does"),
    (["--what", "theorem-a", "--codes", EQUIV_X, "--q-max", "4"],
     "--q-max: a run with --codes does not use this flag; only a run without "
     "--codes does"),
])
def test_flag_the_check_mode_does_not_read_is_refused(monkeypatch, capsys,
                                                      argv, message):
    # refused before any survey, sample space or certificate is built, even
    # at the flag's default value
    for name in ("check_acylindricity", "build_sample_space",
                 "check_theorem_A", "ray_stabilizer"):
        monkeypatch.setattr(f"arbor.cli.{name}", None)
    rc, out, err = run(capsys, ["check", *argv])
    assert (rc, out, err) == (2, "", f"error: {message}\n")


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


def _bad_tensor(edit):
    doc = tensor_to_json(monotone_tensor(2, 2))
    edit(doc)
    return doc


# tensor documents cfw --tensor refuses, each with its message
BAD_TENSORS = {
    "mu_length": (_bad_tensor(lambda d: d.update(mu=["1/2", "1/2"])),
                  "mu must weight exactly the sample points"),
    "mu_sum": (_bad_tensor(lambda d: d.update(mu=["1/2"])),
               "mu must be a probability vector"),
    "ragged_j": (_bad_tensor(lambda d: d["values"][1].pop()),
                 "ragged j dimension"),
    "ragged_group": (_bad_tensor(lambda d: d["values"][0][0].pop()),
                     "ragged group dimension"),
    "ragged_point": (_bad_tensor(lambda d: d["values"][0][0][0].pop()),
                     "ragged point dimension"),
    "empty_j": (_bad_tensor(lambda d: d.update(values=[[], []])),
                "empty j dimension"),
    # JSON booleans are not numbers, though Python reads them as 1 and 0
    "mu_true": (_bad_tensor(lambda d: d.update(mu=[True])),
                "Invalid literal for Fraction: 'True'"),
    "deviation_false": (_bad_tensor(
        lambda d: d["values"][0][0][0].__setitem__(0, False)),
        "Invalid literal for Fraction: 'False'"),
}


@pytest.mark.parametrize("label", BAD_TENSORS)
def test_tensor_refusals_name_their_defect(tmp_path, capsys, label):
    doc, message = BAD_TENSORS[label]
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, ["cfw", "--tensor", str(path)])
    assert (rc, out, err) == (2, "", f"error: tensor: {message}\n")


# config documents load_config refuses, each written to
# {tmp}/config_<label>.json
BAD_CONFIGS = {
    "list": [],
    "model_int": {"model": 3},
    "no_k": {"model": {"h": 2}},
    "empty_table": psl2z_with_h({"mul_table": []}),
    "no_permutations": psl2z_with_h({"permutations": []}),
    "not_permutation": psl2z_with_h({"permutations": [[0, 0]]}),
    # a transposition of 20,000 points: refused on its degree before the
    # closure composes anything
    "degree_over_cap": psl2z_with_h(
        {"permutations": [[1, 0, *range(2, 20_000)]]}),
}

# the exact error line of EDGE_CASES rows whose refusal no in-process test
# reaches; {tmp}/x.json is a directory
EDGE_ERRORS = {
    ("witness", "--q-max", "1"): "need p_max >= 0 and q_max >= 2",
    ("witness", "--n-max", "-1"): "n_max must be nonnegative",
    ("tree", "--radius", "-1"): "radius must be nonnegative",
    ("check", "--what", "acylindrical", "--seg-length", "0"):
        "segment length must be positive",
    ("tree", "--config", "{tmp}/x.json"):
        "cannot read {tmp}/x.json: Is a directory",
    ("cfw", "--tensor", "{tmp}/x.json"):
        "tensor: cannot read {tmp}/x.json: Is a directory",
    ("tree", "--config", "{tmp}/config_list.json"):
        "{tmp}/config_list.json: top level must be an object",
    ("tree", "--config", "{tmp}/config_model_int.json"):
        "model: missing or not an object",
    ("tree", "--config", "{tmp}/config_no_k.json"):
        "model.k: missing group spec",
    ("tree", "--config", "{tmp}/config_empty_table.json"):
        "model.h: empty multiplication table",
    ("tree", "--config", "{tmp}/config_no_permutations.json"):
        "model.h: need at least one generator permutation",
    ("tree", "--config", "{tmp}/config_not_permutation.json"):
        "model.h: not a permutation of 0..1: [0, 0]",
    ("tree", "--config", "{tmp}/config_degree_over_cap.json"):
        "model.h: a permutation of degree 20000 is over the cap of 1024 "
        "points",
}

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
    (["reiter", "--window", "z", "--generators", ""], {}, 2),
    (["reiter", "--window", "group", "--generators", ""], {}, 2),
    (["reiter", "--window", "free", "--generators", ""], {}, 2),
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
    # few candidates, but long ones: a bound of 268,582,920 letters
    (["witness", "--config", "dihedral", "--p-max", "8192", "--q-max", "4",
      "--no-witnesses"], {}, 2),
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
    (["reiter", "--window", "group", "--support-size", "-5", "--rank", "0",
      "--radius", "-3"], {}, 2),
    (["reiter", "--window", "z", "--side", "h", "--support-size", "3"],
     {}, 2),
    # a flag the run does not read: --denominator without --grid-check, and
    # check flags off the modes that read them
    (["reiter", "--window", "z", "--denominator", "-5"], {}, 2),
    (["reiter", "--window", "free", "--denominator", "0"], {}, 2),
    (["check", "--what", "acylindrical", "--max-len", "-5", "--codes",
      "junk"], {}, 2),
    (["check", "--what", "theorem-a", "--seg-length", "-3", "--bound", "-1"],
     {}, 2),
    (["check", "--what", "stabilizers", "--codes", "prefix=;cycle=a,b",
      "--p-max", "1"], {}, 2),
    (["check", "--what", "acylindrical", "--seg-length", "1", "--bound",
      "1"], {}, 1),
    (["check", "--what", "theorem-a", "--codes", "prefix=;cycle=a,b",
      "--max-len", "0"], {}, 1),
    # certificates past the horizon: every one found uncapped, and one
    # missing under --max-len
    (["witness", "--config", "{root}/tests/models/z2wr4_z2e4.json",
      "--no-witnesses"], {}, 0),
    (["check", "--what", "theorem-a", "--config",
      "{root}/tests/models/z2wr4_z2e4.json", "--codes", PAST_HORIZON,
      "--max-len", "1"], {}, 1),
] + [(["witness", "--config", f"{{tmp}}/names_{label}.json"], {}, 2)
     for label in [*UNREADABLE_NAMES, *MISNAMED_H]
] + [(["cfw", "--tensor", f"{{tmp}}/tensor_{label}.json"], {}, 2)
     for label in BAD_TENSORS
] + [(list(argv), {}, 2) for argv in EDGE_ERRORS]


@pytest.mark.parametrize("argv,env,code", EDGE_CASES,
                         ids=[" ".join(a) for a, _, _ in EDGE_CASES])
def test_edge_arguments_exit_without_traceback(tmp_path, argv, env, code):
    message = EDGE_ERRORS.get(tuple(argv))
    argv = [a.replace("{tmp}", str(tmp_path)).replace("{root}", str(ROOT))
            for a in argv]
    for label, name in UNREADABLE_NAMES.items():
        (tmp_path / f"names_{label}.json").write_text(
            json.dumps(psl2z_named(name)))
    for label, spec in MISNAMED_H.items():
        (tmp_path / f"names_{label}.json").write_text(
            json.dumps(psl2z_with_h(spec)))
    for label, (doc, _) in BAD_TENSORS.items():
        (tmp_path / f"tensor_{label}.json").write_text(json.dumps(doc))
    for label, doc in BAD_CONFIGS.items():
        (tmp_path / f"config_{label}.json").write_text(json.dumps(doc))
    (tmp_path / "x.json").mkdir()
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
        if message is not None:
            assert proc.stderr == f"error: {message}\n".replace(
                "{tmp}", str(tmp_path))
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


NINES = "9" * 4300  # the longest integer the interpreter reads by default
C12 = str(ROOT / "perfbench" / "fixtures" / "c12_c3_c15.json")
GRID_TAIL = ("over the cap of 1000000; lower the denominator or shrink the "
             "support")


def _psl2z_cycle(flip) -> str:
    """A psl2z code of 3,200 letters: s, then t or t2 as flip(i) says."""
    return "prefix=;cycle=" + ",".join(
        f"s,{'t2' if flip(i) else 't'}" for i in range(1600))


@pytest.mark.parametrize("argv,message", [
    (["reiter", "--window", "z", "--support-size", "1", "--grid-check",
      "--denominator", "100000000"],
     "grid check over 1 support vertices with denominators up to 100000000 "
     f"would visit 100000000 vectors, {GRID_TAIL}"),
    (["reiter", "--window", "z", "--support-size", "1", "--grid-check",
      "--denominator", "1000000000"],
     "grid check over 1 support vertices with denominators up to 1000000000 "
     f"would visit 1000000000 vectors, {GRID_TAIL}"),
    (["reiter", "--window", "z", "--support-size", "1", "--grid-check",
      "--denominator", "1" + "0" * 4000],
     f"grid check over 1 support vertices with denominators up to 1{'0' * 4000}"
     f" would visit 1{'0' * 4000} vectors, {GRID_TAIL}"),
    (["reiter", "--window", "z", "--support-size", "49997", "--grid-check",
      "--denominator", "1000000000"],
     "grid check over 49997 support vertices with denominators up to "
     f"1000000000 would visit more than 2**49996 vectors, {GRID_TAIL}"),
    (["witness", "--config", C12, "--p-max", "0", "--q-max", "8192"],
     "a sample space with prefixes up to 0 and cycles up to 8192 letters "
     "would enumerate more than 2**4095 candidate codes, over the cap of "
     "100000; lower the prefix or cycle cap"),
    (["witness", "--config", S4, "--p-max", "8192", "--q-max", "8192"],
     "a sample space with prefixes up to 8192 and cycles up to 8192 letters "
     "would enumerate more than 2**4096 candidate codes, over the cap of "
     "100000; lower the prefix or cycle cap"),
    (["witness", "--config", S4, "--p-max", "6000", "--q-max", "6000"],
     "a sample space with prefixes up to 6000 and cycles up to 6000 letters "
     "would enumerate more than 2**3000 candidate codes, over the cap of "
     "100000; lower the prefix or cycle cap"),
    (["witness", "--config", "dihedral", "--p-max", "8192", "--q-max", "4",
      "--no-witnesses"],
     "a sample space with prefixes up to 8192 and cycles up to 4 letters "
     "would spell up to 268582920 letters in its candidate codes, over the "
     "cap of 10000000; lower the prefix or cycle cap"),
    (["tree", "--config", "dihedral", "--radius", NINES],
     f"the tree ball of radius {NINES} has more than 2**14285 vertices, over "
     "the vertex cap of 100000"),
    (["reiter", "--window", "z", "--radius", NINES],
     f"the window of radius {NINES} has more than 2**14285 vertices, over "
     "the vertex cap of 100000; lower the radius or the support"),
    (["equiv", "--config", "psl2z",
      "--x", _psl2z_cycle(lambda i: bin(i).count("1") % 2),
      "--y", _psl2z_cycle(lambda i: isqrt(i) % 2)],
     "the orbit walks of two codes of 3200 and 3200 letters would take "
     "30742402 steps, over the cap of 1000000; shorten the codes"),
], ids=["grid-1e8", "grid-1e9", "grid-1e4000", "grid-49997", "sample-c12",
        "sample-s4-8192", "sample-s4-6000", "sample-letters", "tree-nines",
        "window-nines", "equiv-3200"])
def test_count_too_large_or_too_long_to_print_is_refused_fast(
        capsys, argv, message):
    # each one hung, or printed the interpreter's own digit-limit error in
    # place of its count, before every budget shared one counting rule
    started = time.perf_counter()
    rc, out, err = run(capsys, argv)
    assert time.perf_counter() - started < 1
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_witness_certifies_rays_past_the_horizon(capsys):
    rc, out, err = run(capsys, ["witness", "--config", Z2WR4,
                                "--no-witnesses"])
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert len(doc["points"]) == 392
    assert max(c["sigma_length"] for c in doc["certificates"]) == 13


def test_theorem_a_caps_only_at_max_len(capsys):
    argv = ["check", "--what", "theorem-a", "--config", Z2WR4, "--codes",
            PAST_HORIZON]
    rc, out, err = run(capsys, argv)
    assert (rc, err) == (0, "")
    assert json.loads(out)["rows"] == [{
        "code": PAST_HORIZON, "certified": True, "sigma_length": 7,
        "order": 1, "ray_order": 1}]
    rc, out, err = run(capsys, argv + ["--max-len", "1"])
    assert (rc, err) == (1, "")
    doc = json.loads(out)
    assert doc["ok"] is False
    assert doc["rows"] == [{"code": PAST_HORIZON, "certified": False}]


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
