"""The pure parts of tests/lines.py, on a made-up module and hit set."""
from lines import problems, statements, unrun

SOURCE = '''\
"""Module docstring."""


def f(x):
    """Function docstring."""
    y = (x +
         1)
    if y:
        return y
    return 0


class C:
    """Class docstring."""
    a = 1
'''


def test_statements_leave_docstrings_out():
    assert statements(SOURCE) == [
        ("<module>", "def f(x):", {4}),
        ("f", "y = (x + 1)", {6, 7}),
        ("f", "if y:", {8}),
        ("f", "return y", {9}),
        ("f", "return 0", {10}),
        ("<module>", "class C:", {13}),
        ("C", "a = 1", {15}),
    ]
    assert len(unrun({"m.py": SOURCE}, {})) == 7


def test_a_simple_statement_runs_from_any_of_its_lines():
    # only the second line of the assignment was traced
    hits = {"m.py": {4, 7, 8, 9, 10, 13, 15}}
    assert unrun({"m.py": SOURCE}, hits) == []


def test_a_compound_statement_runs_from_its_header_line():
    # the header ran and its body did not; then the body without the header
    ran = {4, 6, 10, 13, 15}
    assert unrun({"m.py": SOURCE}, {"m.py": ran | {8}}) == [
        ("m.py", "f", "return y")]
    assert unrun({"m.py": SOURCE}, {"m.py": ran | {9}}) == [
        ("m.py", "f", "if y:")]


def test_the_allowlist_check_fails_both_ways():
    missed = [("m.py", "f", "return y")]
    assert problems(missed, {("m.py", "f", "return y"): "why"}) == []
    assert problems(missed, {}) == [
        "not run and not allowed: m.py: f: return y"]
    stale = {("m.py", "f", "return y"): "why", ("m.py", "f", "return 0"): "why"}
    assert problems(missed, stale) == [
        "allowed but run or gone: m.py: f: return 0"]
