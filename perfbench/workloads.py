"""The benchmark's workloads: request lists, seeded inputs and report checks.

Every request is an argv for ``arbor.cli.main``.  Fixed requests are checked
against stored expected reports (expected.json) and, where a report carries
a claim that can be re-derived, by an independent path as well.  The equiv
workload is generated from the seed and checked only independently.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field

from arbor.cber import witness_chain_from_json
from arbor.cli import load_config
from arbor.codes import BoundaryCode, format_code, parse_code
from arbor.groups import Letter, ReducedWord, word_from_str
from arbor.tree import act_on_boundary

HERE = os.path.dirname(os.path.abspath(__file__))
# Relative to the repository root, which is the benchmark's working directory;
# the path is part of every report ("config"), so it must not vary.
C12 = "perfbench/fixtures/c12_c3_c15.json"
S4 = "perfbench/fixtures/s4_c3_s3.json"
EXPECTED_PATH = os.path.join(HERE, "expected.json")


@dataclass(frozen=True)
class Request:
    id: str
    argv: tuple
    kind: str = "fixed"  # fixed | witness | constructed | pair
    meta: dict = field(default_factory=dict, compare=False, hash=False)


def _fixed(rid: str, *argv: str, kind: str = "fixed") -> Request:
    return Request(rid, tuple(argv), kind)


FIXED = {
    "witness": [
        _fixed("witness-s4", "witness", "--config", S4, kind="witness"),
        _fixed("witness-sl2z", "witness", "--config", "sl2z", kind="witness"),
        _fixed("witness-psl2z", "witness", "--config", "psl2z",
               kind="witness"),
    ],
    "segments": [
        _fixed("acylindrical-c12", "check", "--what", "acylindrical",
               "--seg-length", "3", "--config", C12),
        _fixed("theorem-a-s4", "check", "--what", "theorem-a", "--p-max", "2",
               "--q-max", "4", "--config", S4),
    ],
    "simplex": [
        _fixed("reiter-z20", "reiter", "--window", "z", "--support-size", "20"),
        _fixed("reiter-free", "reiter", "--window", "free", "--radius", "3",
               "--support-radius", "1"),
        _fixed("reiter-grid", "reiter", "--window", "z", "--support-size", "6",
               "--grid-check", "--denominator", "12"),
        _fixed("reiter-group", "reiter", "--window", "group"),
        _fixed("cfw", "cfw", "--m-max", "12"),
    ],
}

# A workload is a pass over these parts, in this order (see NOTES.md for
# why four parts are run as two workloads).  In "equiv-simplex" the simplex
# requests are spread through the query stream, so the query latencies are
# sampled across the whole pass.
WORKLOADS = {
    "witness-segments": ("witness", "segments"),
    "equiv-simplex": ("equiv", "simplex"),
}

# Models each workload loads at set-up (the CLI default config is sl2z).
MODELS = {
    "witness-segments": [S4, "sl2z", "psl2z", C12],
    "equiv-simplex": [C12, S4, "sl2z"],
}

# Per fixture and pass: constructed-equivalent queries and random pairs,
# each pair asked both ways, so half the queries are constructed.
EQUIV_CONSTRUCTED = 64
EQUIV_PAIRS = 32
# Request kinds that form a query stream, whose latency percentiles are
# taken per request; a workload without one counts a whole pass as a query.
QUERY_KINDS = ("constructed", "pair")


def query_indices(requests) -> list:
    """Positions of the query-stream requests in a pass."""
    return [i for i, req in enumerate(requests) if req.kind in QUERY_KINDS]


def seg_length(requests) -> int | None:
    """Segment length asked by the acylindricity request, if any."""
    for req in requests:
        if "acylindrical" in req.argv:
            return int(req.argv[req.argv.index("--seg-length") + 1])
    return None


# -- equiv inputs ---------------------------------------------------------

def _random_code(rng: random.Random, am) -> BoundaryCode:
    """A code with prefix <= 4 and cycle <= 8 letters, before canonical form."""
    p = rng.randint(0, 4)
    c = rng.choice((2, 4, 6, 8))
    index = (am.A.index, am.B.index)
    letters = []
    for i in range(p + c):
        side = i % 2
        low = 0 if (i == 0 and p > 0) else 1
        letters.append(Letter(side, rng.randrange(low, index[side])))
    return BoundaryCode(letters[:p], letters[p:])


def _random_word(rng: random.Random, am) -> ReducedWord:
    """A normal form with at most 4 letters and a random carry."""
    n = rng.randint(0, 4)
    start = rng.randint(0, 1)
    index = (am.A.index, am.B.index)
    letters = tuple(Letter((start + i) % 2,
                           rng.randrange(1, index[(start + i) % 2]))
                    for i in range(n))
    return ReducedWord(letters, rng.randrange(am.C.order))


def _equiv_requests(seed: int) -> list:
    rng = random.Random(seed)
    out = []
    for config in (C12, S4):
        am, _ = load_config(config)
        tag = os.path.basename(config).split("_")[0]
        for i in range(EQUIV_CONSTRUCTED):
            x = _random_code(rng, am)
            y = act_on_boundary(am, _random_word(rng, am), x)
            out.append(Request(f"equiv-{tag}-c{i}", _equiv_argv(am, config, x, y),
                               "constructed"))
        for i in range(EQUIV_PAIRS):
            x, y = _random_code(rng, am), _random_code(rng, am)
            first = f"equiv-{tag}-p{i}"
            out.append(Request(first, _equiv_argv(am, config, x, y), "pair"))
            out.append(Request(f"{first}-swap", _equiv_argv(am, config, y, x),
                               "pair", {"mirror": first}))
    return out


def _equiv_argv(am, config: str, x, y) -> tuple:
    return ("equiv", "--config", config, "--x", format_code(am, x),
            "--y", format_code(am, y))


def _interleave(queries: list, fixed: list) -> list:
    """The queries in order, with one fixed request after each equal share."""
    out, n = [], len(fixed)
    for k, req in enumerate(fixed):
        out += queries[k * len(queries) // n:(k + 1) * len(queries) // n]
        out.append(req)
    return out


def build(workload: str, seed: int) -> list:
    """The request list of one pass.  Only the equiv queries use the seed."""
    parts = WORKLOADS[workload]
    fixed = [r for part in parts if part != "equiv" for r in FIXED[part]]
    if "equiv" in parts:
        return _interleave(_equiv_requests(seed), fixed)
    return fixed


# -- checks ---------------------------------------------------------------

def load_expected(path: str = EXPECTED_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _lookup(doc, dotted: str):
    for part in dotted.split("."):
        doc = doc[part]
    return doc


class Checker:
    """Checks reports; holds the models it re-parses codes and words in."""

    def __init__(self, expected: dict) -> None:
        self.expected = expected
        self._models: dict = {}

    def _model(self, config: str):
        if config not in self._models:
            self._models[config] = load_config(config)[0]
        return self._models[config]

    def check(self, req: Request, code: int, text: str, answers: dict) -> str | None:
        """None if the report is right, else the reason it is wrong.

        answers maps request ids already checked to their parsed reports, for
        the swapped half of a random pair.
        """
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            return "report is not JSON"
        try:
            if req.kind in ("constructed", "pair"):
                return self._check_equiv(req, code, doc, answers)
            return self._check_fixed(req, code, text, doc)
        except (KeyError, TypeError) as err:
            return f"report lacks or mistypes {err}"

    def _check_fixed(self, req: Request, code: int, text: str,
                     doc: dict) -> str | None:
        want = self.expected.get(req.id)
        if want is None:
            return "no expected report stored"
        if code != want["exit"]:
            return f"exit {code}, expected {want['exit']}"
        if digest(text) != want["sha256"]:
            return "report differs from the stored expected report"
        for key, value in want.get("fields", {}).items():
            got = _lookup(doc, key)
            if got != value:
                return f"{key} is {got!r}, expected {value!r}"
        if req.kind == "witness":
            return self._check_witness(doc)
        return None

    def _check_witness(self, doc: dict) -> str | None:
        am = self._model(doc["config"])
        if len(doc.get("witnesses", ())) != len(doc["points"]):
            return "not every point has an orbit witness"
        try:
            witness_chain_from_json(am, doc)  # re-applies every witness word
        except (ValueError, KeyError) as err:
            return f"witness chain does not re-verify: {err}"
        return None

    def _check_equiv(self, req: Request, code: int, doc: dict,
                     answers: dict) -> str | None:
        config = req.argv[2]
        x_text, y_text = req.argv[4], req.argv[6]
        if (doc.get("x"), doc.get("y")) != (x_text, y_text):
            return "report names other codes than the query"
        if code != (0 if doc["equivalent"] else 1):
            return f"exit {code} disagrees with equivalent={doc['equivalent']}"
        answers[req.id] = doc
        if req.kind == "constructed" and doc["equivalent"] is not True:
            return "constructed pair y = g.x reported not equivalent"
        if doc["equivalent"]:
            am = self._model(config)
            try:
                g = word_from_str(am, doc["witness"])
                moved = act_on_boundary(am, g, parse_code(am, y_text))
            except (ValueError, TypeError, AttributeError) as err:
                return f"witness does not parse or apply: {err}"
            if moved != parse_code(am, x_text):
                return "witness does not carry y to x"
        mirror = req.meta.get("mirror")
        if mirror is not None:
            other = answers.get(mirror)
            if other is None or other["equivalent"] != doc["equivalent"]:
                return "answer changes when x and y are swapped"
        return None
