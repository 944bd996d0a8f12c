"""Every run budget is refused by tree.refuse_over, and the README's caps
table names each cap with its value."""
import ast
import importlib
import re
from pathlib import Path

import pytest

from arbor import cber, reiter, tree
from arbor.codes import BoundaryCode
from arbor.groups import A_SIDE, B_SIDE, Letter
from arbor.tree import OverBudget

from bruteforce import builtin

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "arbor"
FIXTURES = ROOT / "perfbench" / "fixtures"

S, T, T2 = Letter(A_SIDE, 1), Letter(B_SIDE, 1), Letter(B_SIDE, 2)

# one library call per refusal, and its exact message
REFUSALS = {
    "VERTEX_CAP tree": (
        lambda: tree.build_tree(builtin("sl2z"), 6, vertex_cap=42),
        "the tree ball of radius 6 has 43 vertices, over the vertex cap of "
        "42"),
    "DOT_LETTER_CAP": (
        lambda: tree.to_dot(builtin("dihedral"),
                            tree.build_tree(builtin("dihedral"), 3162)),
        "the dot labels of a ball of radius 3162 hold 10001406 letters, "
        "over the cap of 10000000"),
    "SAMPLE_SPACE_CAP": (
        lambda: cber.build_sample_space(
            builtin(str(FIXTURES / "c12_c3_c15.json")), 1, 12),
        "a sample space with prefixes up to 1 and cycles up to 12 letters "
        "would enumerate 16287180 candidate codes, over the cap of 100000; "
        "lower the prefix or cycle cap"),
    "SAMPLE_LETTER_CAP": (
        lambda: cber.build_sample_space(builtin("dihedral"), 2048, 4),
        "a sample space with prefixes up to 2048 and cycles up to 4 letters "
        "would spell up to 16814088 letters in its candidate codes, over the "
        "cap of 10000000; lower the prefix or cycle cap"),
    "EQUIV_STEP_CAP": (
        lambda: cber.orbit_equivalent(
            builtin("psl2z"), BoundaryCode((), (S, T) * 399 + (S, T2)),
            BoundaryCode((), (S, T2) * 199 + (S, T))),
        "the orbit walks of two codes of 800 and 400 letters would take "
        "1204202 steps, over the cap of 1000000; shorten the codes"),
    "CHAIN_ENTRY_CAP": (
        lambda: cber.hyperfiniteness_witness(
            builtin("sl2z"), cber.build_sample_space(builtin("sl2z"), 1, 4),
            25000),
        "a witness chain of 25001 relations over 8 points has 200008 "
        "entries, over the cap of 200000; lower n_max"),
    "VERTEX_CAP window": (
        lambda: reiter.check_window_size(2, 10, tree.VERTEX_CAP),
        "the window of radius 10 has 118097 vertices, over the vertex cap of "
        "100000; lower the radius or the support"),
    "LP_ENTRY_CAP": (
        lambda: reiter.reiter_lp(reiter.integer_window(1002), range(1000)),
        "the program over 1000 support vertices and 2 generators has "
        "12033021 entries, over the cap of 1000000; shrink the support"),
    "GRID_VECTOR_CAP": (
        lambda: reiter.check_grid_size(10, 20),
        "grid check over 10 support vertices with denominators up to 20 "
        "would visit 30045014 vectors, over the cap of 1000000; lower the "
        "denominator or shrink the support"),
    "CFW_SLICE_CAP": (
        lambda: reiter.cfw_extract(reiter.monotone_tensor(), 2001),
        "the extraction weighs 2001 (group element, band) slices, over the "
        "cap of 2000; lower m_max"),
}


@pytest.mark.parametrize("call,message", REFUSALS.values(), ids=REFUSALS)
def test_every_run_budget_is_one_over_budget_refusal(call, message):
    with pytest.raises(OverBudget) as exc:
        call()
    assert str(exc.value) == message


def _cap_rows() -> dict:
    """(module, name) -> value for each row of the README's caps table."""
    rows = re.findall(r"^\| `arbor\.(\w+)\.(\w+)` \| ([\d,]+) \|",
                      (ROOT / "README.md").read_text(), re.MULTILINE)
    return {(module, name): int(value.replace(",", ""))
            for module, name, value in rows}


def test_only_refuse_over_compares_a_run_budget_or_raises_over_budget():
    # the group cap is a config check; every other cap is a run budget
    budgets = {name for _, name in _cap_rows()} - {"GROUP_ORDER_CAP"}
    raisers = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Raise) \
                        and "OverBudget" in ast.unparse(node):
                    raisers.append(fn.name)
                if isinstance(node, ast.Compare):
                    used = {n.id for n in ast.walk(node)
                            if isinstance(n, ast.Name)}
                    assert not used & budgets, f"{path.name}: {fn.name}"
    assert raisers == ["refuse_over"]


def test_readme_caps_table_matches_the_code():
    rows = _cap_rows()
    for (module, name), value in rows.items():
        assert getattr(importlib.import_module(f"arbor.{module}"), name) \
            == value, name
    defined = set()
    for path in SRC.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                defined |= {(path.stem, t.id) for t in node.targets
                            if getattr(t, "id", "").endswith("_CAP")}
    assert set(rows) == defined
    assert len(defined) == 10
