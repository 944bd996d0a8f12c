"""What `import arbor.cli` loads, the tuple behaviour of value records, and
the functions, parameters and result attributes perfbench/tracing.py reads
by name.

Every report comes from a fresh process, so the import is paid per run.
Value records are NamedTuples: importing `dataclasses` would also pull in
`inspect`, `ast`, `dis` and `tokenize`.
"""
import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

from arbor.cli import load_config
from arbor.groups import Letter

ROOT = Path(__file__).resolve().parent.parent
TRACING = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())


def _tracing_value(name: str) -> ast.expr:
    """The expression perfbench/tracing.py assigns to a module-level name."""
    for node in TRACING.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and getattr(node.targets[0], "id", None) == name:
            return node.value
    raise AssertionError(f"perfbench/tracing.py defines no {name}")


def _traced_modules() -> list:
    """The arbor modules perfbench/tracing.py reads from sys.modules."""
    return ast.literal_eval(_tracing_value("MODULES"))


def test_cli_import_loads_no_dataclasses_and_every_traced_module():
    # -I ignores PYTHONPATH, so the source directory goes on sys.path here
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            f"import arbor.cli; print(*sorted(sys.modules), sep='\\n')")
    proc = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded
    modules = {f"arbor.{name}" for name in _traced_modules()}
    assert "arbor.reiter" in modules and "arbor.lp" in modules
    assert modules <= loaded


def test_letter_is_a_tuple_in_repr_hash_and_order():
    assert repr(Letter(0, 1)) == "Letter(side=0, rep=1)"
    assert hash(Letter(0, 1)) == hash((0, 1))
    assert Letter(0, 2) < Letter(1, 0) < Letter(1, 1)


def _traced(label: str):
    module, name = label.split(".")
    return getattr(importlib.import_module(f"arbor.{module}"), name, None)


def _hooks() -> list:
    """(traced label, hook function node) for each entry of _HOOKS."""
    hooks = _tracing_value("_HOOKS")
    labels = {fn.id: ast.literal_eval(key)
              for key, fn in zip(hooks.keys, hooks.values)}
    return [(labels[node.name], node) for node in TRACING.body
            if isinstance(node, ast.FunctionDef) and node.name in labels]


def test_every_traced_function_and_hooked_argument_exists():
    # the tracer wraps functions by name and its hooks read arguments by
    # position, so a renamed function or parameter breaks a traced run
    wrapped = [f"{module}.{name}" for module, name in
               ast.literal_eval(_tracing_value("SPANNED"))
               + ast.literal_eval(_tracing_value("COUNTED"))]
    for label in wrapped:
        assert callable(_traced(label)), label
    hooks = _hooks()
    assert len(hooks) == len(_tracing_value("_HOOKS").keys)
    assert {label for label, _ in hooks} <= set(wrapped)
    read = 0
    for label, node in hooks:
        params = list(inspect.signature(_traced(label)).parameters)
        for call in ast.walk(node):
            if getattr(getattr(call, "func", None), "id", None) == "_arg":
                i, name = map(ast.literal_eval, call.args[2:])
                assert params[i] == name, (label, i, name)
                read += 1
    assert read == 7


def test_every_result_attribute_a_hook_reads_exists():
    # the hooks read attributes of the traced call's result; each is looked
    # up on a real result on sl2z, and a hook that reads one of a result
    # with no call below fails here rather than in a traced run
    reads = {(label, node.attr) for label, hook in _hooks()
             for node in ast.walk(hook) if isinstance(node, ast.Attribute)
             and getattr(node.value, "id", None) == "result"}
    am = load_config("sl2z")[0]
    ball = _traced("tree.build_tree")(am, 2)
    results = {
        "tree.build_tree": ball,
        "tree.geodesic": _traced("tree.geodesic")(ball, 1, 2),
        "cber.build_sample_space":
            _traced("cber.build_sample_space")(am, 1, 2),
    }
    assert {label for label, _ in reads} <= set(results), reads
    for label, attr in reads:
        assert hasattr(results[label], attr), (label, attr)
    assert len(reads) == 3
