"""Out-of-tree tracing of arbor's layers for the benchmark's traced runs.

Each traced function is replaced, in its defining module and in every arbor
module that imported the name (plus module-level dicts that hold it, such as
the CLI handler table), by a wrapper that records one span: name, start,
end and parent.  Spans live in memory and are written out at the end.
A few hot helpers are only counted: timing them would swamp the trace.
Nothing under src/ changes.
"""
from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from math import comb

# (module, function) pairs that get a span.  cli.cmd_* and cli._emit are
# traced so that cli.main's own time can be split from the handlers.
SPANNED = [
    ("cli", "main"), ("cli", "load_config"), ("cli", "_emit"),
    ("cli", "cmd_tree"), ("cli", "cmd_check"), ("cli", "cmd_witness"),
    ("cli", "cmd_equiv"), ("cli", "cmd_reiter"), ("cli", "cmd_cfw"),
    ("groups", "make_amalgam"), ("groups", "multiply"), ("groups", "invert"),
    ("codes", "compare_words"),
    ("tree", "build_tree"), ("tree", "act_on_vertex"), ("tree", "geodesic"),
    ("tree", "act_on_boundary"), ("tree", "stabilizer_of_segment"),
    ("tree", "ray_stabilizer"), ("tree", "check_theorem_A"),
    ("cber", "orbit_equivalent"), ("cber", "build_sample_space"),
    ("cber", "hyperfiniteness_witness"), ("cber", "validate_witness_chain"),
    ("cber", "orbit_witness_table"), ("cber", "witness_chain_to_json"),
    ("lp", "solve_lp"),
    ("reiter", "reiter_lp"), ("reiter", "grid_search_min_deviation"),
    ("reiter", "check_uniform_coamenable"), ("reiter", "cfw_extract"),
    ("reiter", "verify_cfw"),
]
# Called far more often than anything else: counted, never timed.
COUNTED = [("groups", "absorb"), ("groups", "word_of_subgroup_element")]

MODULES = ["cli", "groups", "codes", "tree", "cber", "lp", "reiter"]


def _arbor_modules() -> dict:
    return {name: sys.modules[f"arbor.{name}"] for name in MODULES}


class Tracer:
    """Span recorder plus the argument- and result-derived work counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.child: Counter = Counter()  # time covered by direct children
        self.work: Counter = Counter()
        self.boundary_args: set = set()
        self.geodesic_lengths: Counter = Counter()
        self.model = ""  # config of the request in flight
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        mods = _arbor_modules()
        for mod_name, fname in SPANNED + COUNTED:
            orig = getattr(mods[mod_name], fname)
            label = f"{mod_name}.{fname}"
            if (mod_name, fname) in COUNTED:
                wrapper = self._counting(label, orig)
            else:
                wrapper = self._spanning(label, orig, _HOOKS.get(label))
            for mod in mods.values():
                if getattr(mod, fname, None) is orig:
                    self._patched.append((mod, fname, orig))
                    setattr(mod, fname, wrapper)
                for value in list(vars(mod).values()):
                    if isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is orig:
                                self._patched.append((value, key, orig))
                                value[key] = wrapper

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._patched):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._patched.clear()

    def _counting(self, label: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)
        return counted

    def _spanning(self, label: str, fn, hook):
        name_id = len(self.names)
        self.names.append(label)
        stack = self._stack
        clock = time.perf_counter
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, total, child = self.calls, self.total, self.child

        def spanned(*args, **kwargs):
            outer = clock()
            index = len(names)
            parent = stack[-1] if stack else -1
            names.append(name_id)
            parents.append(parent)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[index] = start
                ends[index] = end
                calls[label] += 1
                total[label] += end - start
            if hook is not None:
                hook(self, args, kwargs, result)
            if parent >= 0:
                # the parent's self time excludes this wrapper's bookkeeping
                # and hook as well; that cost shows in trace.overhead_s
                child[names[parent]] += clock() - outer
            return result
        return spanned

    # -- results -----------------------------------------------------------
    def self_time(self, label: str) -> float:
        if label not in self.names:
            return 0.0
        return self.total[label] - self.child[self.names.index(label)]

    def write_spans(self, path: str) -> None:
        """All spans as parallel arrays: name index, parent span index (-1 for
        a root span), start and end in nanoseconds after the first span."""
        base = self.span_start[0] if self.span_start else 0.0
        doc = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start_ns": [round((t - base) * 1e9) for t in self.span_start],
            "end_ns": [round((t - base) * 1e9) for t in self.span_end],
            "counted": {k: self.calls[k] for k in
                        (f"{m}.{f}" for m, f in COUNTED)},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _boundary_hook(tr: Tracer, args, kwargs, result) -> None:
    tr.boundary_args.add((tr.model, _arg(args, kwargs, 1, "g"),
                          _arg(args, kwargs, 2, "x")))


def _geodesic_hook(tr: Tracer, args, kwargs, result) -> None:
    tr.geodesic_lengths[result.length] += 1


def _build_tree_hook(tr: Tracer, args, kwargs, result) -> None:
    tr.work["tree.build_tree.vertices"] += len(result.vertices)


def _sample_space_hook(tr: Tracer, args, kwargs, result) -> None:
    tr.work["cber.build_sample_space.points"] += len(result.points)


def _solve_lp_hook(tr: Tracer, args, kwargs, result) -> None:
    rows = list(_arg(args, kwargs, 1, "a_ub")) \
        + list(_arg(args, kwargs, 3, "a_eq"))
    tr.work["lp.solve_lp.rows"] += len(rows)
    tr.work["lp.solve_lp.cols"] += len(_arg(args, kwargs, 0, "c"))
    tr.work["lp.solve_lp.nnz"] += sum(1 for row in rows for v in row if v)


def _grid_hook(tr: Tracer, args, kwargs, result) -> None:
    # computed from the arguments, not counted: sum over d of C(d+k-1, k-1)
    k = len(_arg(args, kwargs, 1, "support"))
    max_den = _arg(args, kwargs, 2, "max_denominator")
    tr.work["reiter.grid_search_min_deviation.vectors"] += sum(
        comb(d + k - 1, k - 1) for d in range(1, max_den + 1))


_HOOKS = {
    "tree.act_on_boundary": _boundary_hook,
    "tree.geodesic": _geodesic_hook,
    "tree.build_tree": _build_tree_hook,
    "cber.build_sample_space": _sample_space_hook,
    "lp.solve_lp": _solve_lp_hook,
    "reiter.grid_search_min_deviation": _grid_hook,
}


def layer_metrics(tr: Tracer, seg_length) -> dict:
    """Per-layer metrics of one traced pass, named <module>.<function>.<stat>.

    seg_length is the segment length the pass's acylindricity request asked
    for (None when it has none); kept_ratio counts geodesics of that length.
    """
    out = {}
    for label, stats in LAYER_STATS.items():
        for stat in stats:
            key = f"{label}.{stat}"
            if stat == "calls":
                out[key] = tr.calls[label]
            elif stat == "self_s":
                out[key] = tr.self_time(label)
            elif stat == "total_s":
                out[key] = tr.total[label]
            elif stat in ("distinct_ratio", "kept_ratio"):
                calls = tr.calls[label]
                if stat == "distinct_ratio":
                    hits = len(tr.boundary_args)
                else:
                    hits = tr.geodesic_lengths.get(seg_length, 0)
                out[key] = hits / calls if calls else 0.0
            else:
                out[key] = tr.work[key]
    # argument parsing and JSON emission: main's own time plus _emit, which
    # runs inside the handlers but belongs to the CLI shell, not the layers
    out["cli.main.self_s"] = tr.self_time("cli.main") + tr.total["cli._emit"]
    return out


LAYER_STATS = {
    "tree.act_on_boundary": ("calls", "self_s", "distinct_ratio"),
    "cber.orbit_equivalent": ("calls", "self_s"),
    "cber.hyperfiniteness_witness": ("self_s",),
    "cber.orbit_witness_table": ("self_s",),
    "cber.validate_witness_chain": ("total_s",),
    "cber.witness_chain_to_json": ("self_s",),
    "cber.build_sample_space": ("total_s", "points"),
    "codes.compare_words": ("calls", "self_s"),
    "tree.geodesic": ("calls", "self_s", "kept_ratio"),
    "tree.stabilizer_of_segment": ("calls", "self_s"),
    "tree.act_on_vertex": ("calls", "self_s"),
    "tree.build_tree": ("total_s", "vertices"),
    "tree.ray_stabilizer": ("calls", "self_s"),
    "tree.check_theorem_A": ("total_s",),
    "groups.multiply": ("calls", "self_s"),
    "groups.invert": ("calls", "self_s"),
    "groups.word_of_subgroup_element": ("calls",),
    "groups.absorb": ("calls",),
    "lp.solve_lp": ("calls", "self_s", "rows", "cols", "nnz"),
    "reiter.reiter_lp": ("self_s",),
    "reiter.grid_search_min_deviation": ("total_s", "vectors"),
    "reiter.cfw_extract": ("total_s",),
    "reiter.verify_cfw": ("total_s",),
    "reiter.check_uniform_coamenable": ("total_s",),
    "cli.load_config": ("total_s",),
    "groups.make_amalgam": ("total_s",),
}
