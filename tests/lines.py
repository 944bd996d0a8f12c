"""Every statement under src/arbor is run by tier-1, or is listed in ALLOWED.

The line-level counterpart of test_reachable.py, which works on whole
definitions.  Run it from anywhere, with pytest installed:

    python tests/lines.py

It runs tier-1 once under a line tracer limited to files under src/arbor: in
process through sys.settrace and threading.settrace, and in child processes
through a sitecustomize.py that it writes to a temporary directory and puts
first on PYTHONPATH.  Each child writes its hits there when it exits.
Children started with -I ignore PYTHONPATH and are not traced.

A statement is an ast statement, counted by its first line, docstrings left
out.  A simple statement is run when any of its lines was traced; a compound
statement when its header line was.  Each unrun statement is printed as
`file: function: source text`.  The exit status is 1 when an unrun statement
is not in ALLOWED, when an ALLOWED statement was run or no longer exists, or
when the traced tier-1 run fails.  Line events differ between interpreter
versions, so ALLOWED is kept for the one that CI runs this on (3.11).

Nothing is written into the repository: no bytecode, no pytest cache, and
hypothesis's storage goes to the temporary directory.
"""
import ast
import atexit
import json
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "arbor"

# (file, function, source text) -> why no tier-1 test runs it
ALLOWED = {
    ("codes.py", "PeriodicWord.__repr__",
     'return f"{type(self).__name__}({self.prefix!r}, {self.cycle!r})"'):
        "no command prints a word's repr; pytest's assertion messages do",
    ("reiter.py", "ProbVector.__repr__",
     'inner = ", ".join(f"{k!r}: {v}" for k, v in self._w.items())'):
        "no command prints a vector's repr; pytest's assertion messages do",
    ("reiter.py", "ProbVector.__repr__",
     'return f"ProbVector({{{inner}}})"'):
        "no command prints a vector's repr; pytest's assertion messages do",
}

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_string(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
        and isinstance(node.value.value, str)


def statements(source: str) -> list[tuple[str, str, frozenset]]:
    """(function, source text, lines that show it ran) of every statement.

    The function is the dotted path of the enclosing definitions, or
    `<module>`.  A compound statement shows as its header line, a simple one
    as its whole source with runs of white space collapsed.
    """
    lines = source.splitlines()
    out = []

    def visit(body: list, scope: str, documented: bool) -> None:
        for i, node in enumerate(body):
            if documented and i == 0 and _is_string(node):
                continue  # a docstring
            if "body" in node._fields or "cases" in node._fields:  # compound
                out.append((scope, lines[node.lineno - 1].strip(),
                            frozenset([node.lineno])))
                inner = scope
                if isinstance(node, _SCOPES):
                    inner = node.name if scope == "<module>" \
                        else f"{scope}.{node.name}"
                for field in ("body", "orelse", "finalbody"):
                    visit(getattr(node, field, []), inner,
                          field == "body" and isinstance(node, _SCOPES))
                for handler in getattr(node, "handlers", []):
                    visit(handler.body, inner, False)
                for case in getattr(node, "cases", []):
                    visit(case.body, inner, False)
            else:
                text = " ".join(ast.get_source_segment(source, node).split())
                out.append((scope, text, frozenset(
                    range(node.lineno, node.end_lineno + 1))))

    visit(ast.parse(source).body, "<module>", True)
    return out


def unrun(sources: dict, hits: dict) -> list[tuple[str, str, str]]:
    """(file, function, source text) of each statement none of whose lines
    is in hits[file]; sources maps each file name to its source."""
    return [(name, scope, text)
            for name, source in sorted(sources.items())
            for scope, text, lines in statements(source)
            if not lines & hits.get(name, set())]


def problems(missed: list, allowed: dict) -> list[str]:
    """Why the unrun statements do not match the allowlist, one line each."""
    out = [f"not run and not allowed: {f}: {s}: {t}"
           for f, s, t in missed if (f, s, t) not in allowed]
    missed = set(missed)
    out += [f"allowed but run or gone: {f}: {s}: {t}"
            for f, s, t in allowed if (f, s, t) not in missed]
    return out


_SITECUSTOMIZE = """\
import atexit, json, os, sys, tempfile, threading

_PREFIX, _OUT = {prefix!r}, {out!r}
_hits, _ours = set(), {{}}


def _line(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    code = frame.f_code
    if code not in _ours:
        _ours[code] = os.path.abspath(code.co_filename).startswith(_PREFIX)
    return _line if _ours[code] else None


@atexit.register
def _dump():
    sys.settrace(None)
    threading.settrace(None)
    fd, _ = tempfile.mkstemp(suffix=".hits", dir=_OUT)
    with os.fdopen(fd, "w") as f:
        json.dump(sorted(_hits), f)


sys.settrace(_call)
threading.settrace(_call)
"""


def traced_tier1(out: str) -> tuple[int, set]:
    """Run tier-1 under the line tracer, with out as the tracer's directory.

    Returns pytest's exit code and the (absolute file, line) pairs that the
    run and its children traced under src/arbor.
    """
    site = Path(out, "sitecustomize.py")
    site.write_text(_SITECUSTOMIZE.format(prefix=str(PKG) + os.sep, out=out))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (out, str(PKG.parent), os.environ.get("PYTHONPATH")) if p)
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = str(Path(out, "hypothesis"))
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(PKG.parent))

    import pytest
    # the same tracer in this process; its hits are written once pytest ends
    dump = runpy.run_path(str(site))["_dump"]
    atexit.unregister(dump)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            "--rootdir", str(ROOT), "-c",
                            str(ROOT / "pyproject.toml"), str(ROOT / "tests")])
    finally:
        dump()
    hits = set()
    for path in Path(out).glob("*.hits"):
        hits.update((os.path.abspath(f), n)
                    for f, n in json.loads(path.read_text()))
    return int(code), hits


def main() -> int:
    with tempfile.TemporaryDirectory() as out:
        code, traced = traced_tier1(out)
    sources = {p.name: p.read_text() for p in sorted(PKG.glob("*.py"))}
    hits: dict = {}
    for path, line in traced:
        if Path(path).parent == PKG:
            hits.setdefault(Path(path).name, set()).add(line)
    missed = unrun(sources, hits)
    total = sum(len(statements(s)) for s in sources.values())
    print(f"\n{total - len(missed)} of {total} statements under src/arbor "
          f"run by tier-1; {len(missed)} not run:")
    for f, s, t in missed:
        print(f"{f}: {s}: {t}")
    found = problems(missed, ALLOWED)
    for p in found:
        print(p)
    if code != 0:
        print(f"the traced tier-1 run failed (pytest exit {code})")
    return 1 if found or code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
