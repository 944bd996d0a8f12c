"""Deterministic JSON reports over trees, orbit relations, and vectors.

Every subcommand but cfw loads a model config (a built-in name or a JSON
path), runs one exact computation, and prints a sorted-key JSON report.  Exit
status 0 means the computation succeeded and any requested verdict holds,
1 means a verdict came back negative, 2 means the input could not be used,
3 means an internal re-check failed (a defect, not a verdict).
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Optional

from . import __version__
from .cber import (
    RelationError,
    build_sample_space,
    hyperfiniteness_witness,
    orbit_equivalent,
    validate_witness_chain,
    witness_chain_to_json,
)
from .codes import format_code, parse_code
from .groups import (SPEC_KEYS, Amalgam, GroupError, VerificationError,
                     make_amalgam, make_group, word_to_str)
from .lp import LpError
from .reiter import (
    cfw_extract,
    check_grid_size,
    check_uniform_coamenable,
    check_window_size,
    format_fraction,
    free_ball,
    free_tree_window,
    grid_search_min_deviation,
    integer_window,
    monotone_tensor,
    reiter_lp,
    tensor_from_json,
    verify_cfw,
)
from .tree import (
    VERTEX_CAP,
    build_tree,
    check_acylindricity,
    check_theorem_A,
    ray_stabilizer,
    to_dot,
)


class ConfigError(ValueError):
    """A config document that cannot be turned into a model."""


def _config_text(source: str) -> str:
    path = Path(source)
    if source.endswith(".json") or path.exists():
        try:
            return path.read_text()
        except OSError as err:
            raise ConfigError(f"cannot read {source}: {err.strerror}")
    try:
        return resources.files("arbor.configs").joinpath(
            f"{source}.json").read_text()
    except FileNotFoundError:
        raise ConfigError(
            f"unknown config {source!r}: neither a file nor a built-in name")


def load_config(source: str) -> tuple[Amalgam, int]:
    """Model and vertex cap from a built-in name or a JSON file path.

    A config holds only its model; run parameters are flags.  The vertex cap
    is VERTEX_CAP unless the ARBOR_VERTEX_CAP environment variable sets it.
    Errors carry the dotted path of the offending key.  The config text and
    ARBOR_VERTEX_CAP are read on every call; the model is built and checked
    once per exact text in a process (see _model), so later loads of the
    same text return that same model, which nothing mutates.
    """
    am = _model(source, _config_text(source))
    cap = os.environ.get("ARBOR_VERTEX_CAP")
    if cap is None:
        return am, VERTEX_CAP
    try:
        vertex_cap = int(cap)
    except ValueError:
        raise ConfigError(f"ARBOR_VERTEX_CAP: not an integer: {cap!r}")
    if vertex_cap < 0:
        raise ConfigError(
            f"ARBOR_VERTEX_CAP: need a nonnegative integer, got {cap!r}")
    return am, vertex_cap


@functools.lru_cache(maxsize=4)
def _model(source: str, text: str) -> Amalgam:
    """Parse, validate and build the model of one config text.

    Keyed on the exact text (and the source its errors name), so a file
    rewritten between calls is built again.  A refusal raises and is not
    cached: a bad config is refused on every call.  Four entries hold every
    model one benchmark workload loads.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{source}: invalid JSON: {err}")
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: top level must be an object")
    for key in doc:
        if key != "model":
            raise ConfigError(f"{key}: unknown key; a config holds only model")
    model = doc.get("model")
    if not isinstance(model, dict):
        raise ConfigError("model: missing or not an object")
    for key in model:
        if key not in ("h", "k", "c", "embed_h", "embed_k"):
            raise ConfigError(f"model.{key}: unknown key")
    groups = {}
    for key in ("h", "k", "c"):
        if key not in model:
            raise ConfigError(f"model.{key}: missing group spec")
        for sub in model[key] if isinstance(model[key], dict) else ():
            if sub not in SPEC_KEYS:
                raise ConfigError(f"model.{key}.{sub}: unknown key")
        try:
            groups[key] = make_group(model[key])
        except GroupError as err:
            raise ConfigError(f"model.{key}: {err}")
    for key in ("embed_h", "embed_k"):
        images = model.get(key)
        if not isinstance(images, list) \
                or not all(type(v) is int for v in images):
            raise ConfigError(f"model.{key}: need a list of element indices")
    try:
        return make_amalgam(groups["h"], groups["k"], groups["c"],
                            model["embed_h"], model["embed_k"])
    except GroupError as err:
        raise ConfigError(f"model: {err}")


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err.strerror}")


def _emit(doc: dict, args) -> None:
    doc = dict(doc)
    doc["tool"] = "arbor"
    doc["version"] = __version__
    doc["config"] = args.config
    if args.timings:
        doc["timings"] = {"seconds": time.perf_counter() - args.started}
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if getattr(args, "out", None):
        _write(args.out, text)
    else:
        sys.stdout.write(text)


def _sample_codes(am: Amalgam, args) -> list:
    if args.codes:
        return [parse_code(am, s) for s in args.codes]
    return list(build_sample_space(am, args.p_max, args.q_max).points)


def cmd_tree(am: Amalgam, args) -> int:
    tree = build_tree(am, args.radius, args.vertex_cap)
    if args.dot:
        _write(args.dot, to_dot(am, tree))
    _emit({
        "command": "tree",
        "radius": args.radius,
        "vertices": len(tree.vertices),
        "edges": len(tree.vertices) - 1,
        "counts_by_distance": tree.counts_by_distance(),
    }, args)
    return 0


def cmd_check(am: Amalgam, args) -> int:
    _mode_flags(args)
    if args.what == "acylindrical":
        report = check_acylindricity(am, args.seg_length,
                                     vertex_cap=args.vertex_cap)
        ok = args.bound is None or report.max_order <= args.bound
        _emit({
            "command": "check",
            "what": "acylindrical",
            "seg_length": report.seg_length,
            "tree_radius": report.tree_radius,
            "segments": report.segments,
            "orders": [list(pair) for pair in report.orders_histogram],
            "max_order": report.max_order,
            "ok": ok,
        }, args)
        return 0 if ok else 1
    codes = _sample_codes(am, args)
    memo: dict = {}  # one per request: walked prefixes checked once
    if args.what == "stabilizers":
        rows = []
        for x in codes:
            words = ray_stabilizer(am, x, memo)
            rows.append({
                "code": format_code(am, x),
                "order": len(words),
                "elements": [word_to_str(am, w) for w in words],
            })
        _emit({"command": "check", "what": "stabilizers", "rows": rows}, args)
        return 0
    rows = []
    all_certified = True
    for x in codes:
        cert = check_theorem_A(am, x, args.max_len, memo)
        if cert is None:
            all_certified = False
            rows.append({"code": format_code(am, x), "certified": False})
        else:
            rows.append({
                "code": format_code(am, x),
                "certified": True,
                "sigma_length": cert.sigma_length,
                "order": cert.order,
                "ray_order": cert.order,
            })
    _emit({
        "command": "check",
        "what": "theorem-a",
        "rows": rows,
        "ok": all_certified,
    }, args)
    return 0 if all_certified else 1


def cmd_witness(am: Amalgam, args) -> int:
    sample = build_sample_space(am, args.p_max, args.q_max)
    wc = hyperfiniteness_witness(am, sample, args.n_max)
    if wc.stabilized_at is None:
        # every relation past the sample's longest even shift is the target
        enough = max(codes[-1][0] for codes in wc.shift_codes)
        raise RelationError(
            f"the chain up to --n-max {args.n_max} does not reach the orbit "
            f"relation on the sample; raise --n-max ({enough} is always "
            f"enough for this sample)")
    validate_witness_chain(wc)
    doc = witness_chain_to_json(am, wc, with_witnesses=not args.no_witnesses)
    doc["command"] = "witness"
    doc["p_max"] = args.p_max
    doc["q_max"] = args.q_max
    doc["class_counts"] = [len(classes) for classes in doc["chain"]]
    _emit(doc, args)
    return 0


def cmd_equiv(am: Amalgam, args) -> int:
    x = parse_code(am, args.x)
    y = parse_code(am, args.y)
    decision = orbit_equivalent(am, x, y)
    _emit({
        "command": "equiv",
        "x": format_code(am, x),
        "y": format_code(am, y),
        "equivalent": decision.equivalent,
        # the code comparison decides every pair: the report keeps its shape
        "conclusive": True,
        "method": "codes",
        "witness": None if decision.witness is None
        else word_to_str(am, decision.witness),
        "shifts": None if decision.shifts is None else list(decision.shifts),
    }, args)
    return 0 if decision.equivalent else 1


def _reiter_window(args):
    if args.window == "z":
        if args.support_size < 1:
            raise ConfigError(f"--support-size: need at least 1 support "
                              f"point, got {args.support_size}")
        radius = args.radius if args.radius is not None \
            else args.support_size + 2
        steps = (1, -1)
        if args.generators is not None:
            try:
                steps = tuple(int(s) for s in args.generators.split(","))
            except ValueError:
                raise ConfigError(
                    f"generators: need integers, got {args.generators!r}")
        # the integer line is the free group of rank 1
        check_window_size(1, radius, args.vertex_cap)
        window = integer_window(radius, steps)
        if args.support_size > len(window.vertices):
            raise ConfigError(
                f"--support-size: {args.support_size} support points do not "
                f"fit in the window of radius {radius}, which has "
                f"{len(window.vertices)} vertices")
        return window, list(range(args.support_size))
    # the free window, the only other kind argparse admits; the smallest
    # that holds every image of the support
    radius = args.radius if args.radius is not None \
        else args.support_radius + 1
    check_window_size(args.rank, radius, args.vertex_cap)
    if args.support_radius > radius:
        raise ConfigError("ball exceeds the window radius")
    return (free_tree_window(args.rank, radius),
            free_ball(args.rank, args.support_radius))


def _group_gens(group, spec: Optional[str]) -> list:
    if spec is None:
        return list(range(1, group.order))
    return [group.index_of_name(part.strip()) for part in spec.split(",")]


# flags that only some modes of a subcommand read, with their defaults and
# the (option, values) pairs that must all hold for a run to read them.
# They parse to None, so a flag given to a run that does not read it is
# refused, and a run that reads it gets the default when it is not given.
_READERS = ("theorem-a", "stabilizers")  # check modes that read sample points
_MODE_FLAGS = {
    "reiter": {
        "--radius": (None, (("window", ("z", "free")),)),
        "--support-size": (10, (("window", ("z",)),)),
        "--rank": (2, (("window", ("free",)),)),
        "--support-radius": (2, (("window", ("free",)),)),
        "--side": ("k", (("window", ("group",)),)),
        "--generators": (None, (("window", ("z", "group")),)),
        "--denominator": (20, (("window", ("z", "free")),
                               ("grid_check", (True,)))),
    },
    "check": {
        "--codes": (None, (("what", _READERS),)),
        "--p-max": (1, (("what", _READERS), ("codes", (None,)))),
        "--q-max": (4, (("what", _READERS), ("codes", (None,)))),
        "--max-len": (None, (("what", ("theorem-a",)),)),
        "--seg-length": (2, (("what", ("acylindrical",)),)),
        "--bound": (None, (("what", ("acylindrical",)),)),
    },
}

# how a refusal names a run that does not read a flag, and the runs that do
_MODE_NAMES = {
    "window": ("the {} window", "--window {}"),
    "what": ("--what {}", "--what {}"),
    "grid_check": ("a run without --grid-check", "--grid-check"),
    "codes": ("a run with --codes", "a run without --codes"),
}


def _mode_flags(args) -> None:
    """Refuse a flag the run does not read, and fill in the default of each
    one it does that was not given."""
    for flag, (default, readers) in _MODE_FLAGS[args.command].items():
        dest = flag[2:].replace("-", "_")
        if getattr(args, dest) is None:
            setattr(args, dest, default)
            continue
        for option, values in readers:
            value = getattr(args, option)
            if value not in values:
                refused, read = _MODE_NAMES[option]
                raise ConfigError(
                    f"{flag}: {refused.format(value)} does not use this "
                    f"flag; only {read.format(' or '.join(map(str, values)))}"
                    f" does")


def cmd_reiter(am: Amalgam, args) -> int:
    if args.window == "group" and args.grid_check:
        raise ConfigError("--grid-check: the group window has no LP "
                          "optimum to cross-check; use --window z or free")
    _mode_flags(args)
    if args.window == "group":
        side = 0 if args.side == "h" else 1
        group = am.groups[side]
        gens = _group_gens(group, args.generators)
        eps = args.target if args.target is not None else Fraction(1, 100)
        cert = check_uniform_coamenable(am, side, gens, eps)
        _emit({
            "command": "reiter",
            "window": "group",
            "side": args.side,
            "epsilon": format_fraction(cert.epsilon),
            "max_deviation": format_fraction(cert.max_deviation),
            "per_gen": [[group.names[s], format_fraction(d)]
                        for s, d in cert.per_gen],
            "ok": True,
        }, args)
        return 0
    if args.grid_check and args.denominator < 1:
        raise ConfigError(f"--denominator: need at least 1, got "
                          f"{args.denominator}")
    window, support = _reiter_window(args)
    if args.grid_check:
        check_grid_size(len(support), args.denominator)
    res = reiter_lp(window, support, target_eps=args.target)
    doc = {
        "command": "reiter",
        "window": args.window,
        "support_size": len(support),
        "optimum": format_fraction(res.optimum),
        "p": {str(v): format_fraction(q) for v, q in res.p.items()},
        "per_gen": [[str(g), format_fraction(d)] for g, d in res.per_gen],
    }
    if args.target is not None:
        doc["target"] = format_fraction(args.target)
        doc["ok"] = bool(res.meets_target)
    if args.grid_check:
        value, _ = grid_search_min_deviation(window, support, args.denominator)
        doc["grid"] = {
            "denominator": args.denominator,
            "value": format_fraction(value),
            "matches_lp": value == res.optimum,
        }
    _emit(doc, args)
    if args.target is not None and not res.meets_target:
        return 1
    return 0


def cmd_cfw(am: Optional[Amalgam], args) -> int:
    if args.tensor:
        try:
            text = Path(args.tensor).read_text()
        except OSError as err:
            raise ConfigError(
                f"tensor: cannot read {args.tensor}: {err.strerror}")
        try:
            tensor = tensor_from_json(json.loads(text))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"tensor: {err}")
    else:
        tensor = monotone_tensor()
    extraction = cfw_extract(tensor, args.m_max)
    verify_cfw(extraction)
    _emit({
        "command": "cfw",
        "m_max": extraction.m_max,
        "thresholds": list(extraction.thresholds),
        "rows": [{
            "i": row.i,
            "f": row.f,
            "late_mass": format_fraction(row.bad_mass),
            "bound": format_fraction(row.bound),
            "ok": row.ok,
        } for row in extraction.rows],
        "ok": True,
    }, args)
    return 0


def _fraction(text: str) -> Fraction:
    """--target as a rational; a zero denominator is a usage error too."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}")


def _mode_default(command: str, flag: str) -> str:
    return f"(default: {_MODE_FLAGS[command][flag][0]})"


def _add_sample_caps(p: argparse.ArgumentParser, parsed: bool) -> None:
    """--p-max and --q-max, with check's defaults parsed in when the
    subcommand always reads them."""
    for flag, text in (("--p-max", "sample prefix cap"),
                       ("--q-max", "sample cycle cap")):
        default = _MODE_FLAGS["check"][flag][0]
        p.add_argument(flag, type=int, default=default if parsed else None,
                       help=f"{text} (default: {default})")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default="sl2z",
                        help="built-in model name or a JSON config path "
                             "(default: %(default)s)")
    common.add_argument("--out", help="write the report here instead of stdout")
    common.add_argument("--timings", action="store_true",
                        help="include wall-clock timings in the report")

    parser = argparse.ArgumentParser(
        prog="arbor",
        description="Exact computations on trees of amalgams, their boundary "
                    "orbit relations, and almost-invariant vectors.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("tree", parents=[common],
                       help="build a truncated tree and report its profile")
    p.add_argument("--radius", type=int, default=4,
                   help="ball radius around the base (default: %(default)s)")
    p.add_argument("--dot", help="also write Graphviz source to this path")

    p = sub.add_parser("check", parents=[common],
                       help="certificates and stabilizer surveys")
    p.add_argument("--what", required=True,
                   choices=["theorem-a", "acylindrical", "stabilizers"])
    p.add_argument("--codes", action="append",
                   help="boundary code (repeatable); default is the sample space")
    _add_sample_caps(p, parsed=False)
    p.add_argument("--max-len", type=int,
                   help="segment length cap for theorem-a (default: none; "
                        "the walk stops after len(prefix) + "
                        "3*len(cycle)*|C| letters)")
    p.add_argument("--seg-length", type=int,
                   help="segment length for acylindrical "
                        + _mode_default("check", "--seg-length"))
    p.add_argument("--bound", type=int,
                   help="acylindrical verdict fails above this order")

    p = sub.add_parser("witness", parents=[common],
                       help="build and validate a finite witness chain")
    _add_sample_caps(p, parsed=True)
    p.add_argument("--n-max", type=int, default=8,
                   help="last relation of the chain (default: %(default)s)")
    p.add_argument("--no-witnesses", action="store_true",
                   help="omit per-point orbit witnesses from the report")

    p = sub.add_parser("equiv", parents=[common],
                       help="decide orbit equivalence of two boundary codes")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = sub.add_parser("reiter", parents=[common],
                       help="minimize worst-case deviation on a finite window")
    p.add_argument("--window", required=True, choices=["z", "free", "group"])
    p.add_argument("--radius", type=int,
                   help="window radius (default: derived from the support)")
    p.add_argument("--support-size", type=int,
                   help="interval length for the z window "
                        + _mode_default("reiter", "--support-size"))
    p.add_argument("--rank", type=int,
                   help="free window rank " + _mode_default("reiter", "--rank"))
    p.add_argument("--support-radius", type=int,
                   help="support ball radius for the free window "
                        + _mode_default("reiter", "--support-radius"))
    p.add_argument("--side", choices=["h", "k"],
                   help="finite factor for the group window "
                        + _mode_default("reiter", "--side"))
    p.add_argument("--generators",
                   help="comma-separated steps (z) or element names (group); "
                        "free-window generators are fixed")
    p.add_argument("--target", type=_fraction,
                   help="verdict epsilon, e.g. 1/3")
    p.add_argument("--grid-check", action="store_true",
                   help="cross-check the z or free window's optimum "
                        "against a denominator grid")
    p.add_argument("--denominator", type=int,
                   help="grid denominator cap for --grid-check "
                        + _mode_default("reiter", "--denominator"))

    p = sub.add_parser("cfw", parents=[common],
                       help="threshold extraction from a deviation tensor")
    p.add_argument("--tensor", help="tensor JSON path (default: built-in)")
    p.add_argument("--m-max", type=int, help="band count per group element")

    return parser


_HANDLERS = {
    "tree": cmd_tree,
    "check": cmd_check,
    "witness": cmd_witness,
    "equiv": cmd_equiv,
    "reiter": cmd_reiter,
    "cfw": cmd_cfw,
}


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 0
    args.started = time.perf_counter()
    try:
        am = None
        if args.command != "cfw":  # cfw reads only its tensor
            am, args.vertex_cap = load_config(args.config)
        return _HANDLERS[args.command](am, args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (VerificationError, LpError) as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
