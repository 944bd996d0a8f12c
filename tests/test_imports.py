"""What `import arbor.cli` loads, and the tuple behaviour of value records.

Every report comes from a fresh process, so the import is paid per run.
Value records are NamedTuples: importing `dataclasses` would also pull in
`inspect`, `ast`, `dis` and `tokenize`.
"""
import ast
import subprocess
import sys
from pathlib import Path

from arbor.groups import Letter

ROOT = Path(__file__).resolve().parent.parent


def _traced_modules() -> list:
    """The arbor modules perfbench/tracing.py reads from sys.modules."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and getattr(node.targets[0], "id", None) == "MODULES":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no MODULES")


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
