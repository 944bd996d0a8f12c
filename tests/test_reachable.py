"""Every function and class under src/arbor is reached from a command.

The walk parses the sources with ast and starts from the command-line entry
point (cli.main and cli.py's module-level statements) plus every arbor name
the benchmark imports or wraps.  It follows name references through the
bodies of the definitions it reaches, across the package's relative
imports.  A method counts as reached when its class is reached and its name
is used as an attribute somewhere along the walk (dunder methods always
are).  Code that only the tests call belongs in the tests.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "arbor"
BENCH = ROOT / "perfbench"

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


class _Package:
    """Top-level definitions and relative imports of every arbor module."""

    def __init__(self) -> None:
        self.defs: dict = {}     # (module, name) -> node
        self.imports: dict = {}  # (module, name) -> (module, name)
        self.modules = {p.stem: _parse(p) for p in sorted(PKG.glob("*.py"))}
        for mod, tree in self.modules.items():
            for node in tree.body:
                if isinstance(node, _DEFS):
                    self.defs[(mod, node.name)] = node
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) \
                        else [node.target]
                    for target in targets:
                        if isinstance(target, ast.Name):
                            self.defs[(mod, target.id)] = node
                elif isinstance(node, ast.ImportFrom) and node.level == 1:
                    for alias in node.names:
                        self.imports[(mod, alias.asname or alias.name)] = \
                            _imported(node, alias)

    def resolve(self, mod: str, name: str):
        key = (mod, name)
        while key not in self.defs:
            if key not in self.imports:
                return None
            key = self.imports[key]
        return key


def _imported(node: ast.ImportFrom, alias: ast.alias) -> tuple:
    if node.module is None:  # from . import name
        return ("__init__", alias.name)
    return (node.module.split(".")[-1], alias.name)


def _bench_uses() -> tuple[set, set]:
    """(module, name) pairs that perfbench imports or wraps, and the
    attribute names it reads, which may be arbor methods and properties."""
    roots, attrs = set(), set()
    for path in sorted(BENCH.glob("*.py")):
        tree = _parse(path)
        modules = {a.asname or a.name.split(".")[0] for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for a in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and (node.module or "").startswith("arbor."):
                roots.update((node.module.split(".")[-1], a.name)
                             for a in node.names)
            elif isinstance(node, ast.Attribute):
                if not (isinstance(node.value, ast.Name)
                        and node.value.id in modules):  # not shutil.copy
                    attrs.add(node.attr)
                if isinstance(node.value, ast.Attribute) \
                        and isinstance(node.value.value, ast.Name) \
                        and node.value.value.id == "arbor":
                    roots.add((node.value.attr, node.attr))  # arbor.cli.main
            elif isinstance(node, ast.Tuple) and len(node.elts) == 2 \
                    and all(isinstance(e, ast.Constant)
                            and isinstance(e.value, str) for e in node.elts):
                roots.add((node.elts[0].value, node.elts[1].value))
    return roots, attrs


def unreached() -> list[str]:
    """Dotted names of the functions, classes and methods no command reaches."""
    pkg = _Package()
    bench_roots, attrs = _bench_uses()
    reached: set = set()
    walked: set = set()  # ids of the methods whose bodies were walked
    pending: list = []

    def reach(key) -> None:
        if key is not None and key not in reached:
            reached.add(key)
            pending.append((key[0], pkg.defs[key]))

    def walk(mod: str, node: ast.AST) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                reach(pkg.resolve(mod, sub.id))
            elif isinstance(sub, ast.Attribute):
                attrs.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom) and sub.level == 1:
                for alias in sub.names:
                    reach(pkg.resolve(*_imported(sub, alias)))

    def methods(cls: ast.ClassDef) -> list:
        return [n for n in cls.body if isinstance(n, _DEFS)]

    for node in pkg.modules["cli"].body:
        if not isinstance(node, _DEFS):
            walk("cli", node)
    reach(("cli", "main"))  # the console script and python -m arbor.cli
    for mod, name in bench_roots:
        if mod in pkg.modules:
            reach(pkg.resolve(mod, name))
    while True:
        while pending:
            mod, node = pending.pop()
            if not isinstance(node, ast.ClassDef):
                walk(mod, node)
                continue
            for part in node.bases + node.keywords + node.decorator_list:
                walk(mod, part)
            for stmt in node.body:
                if not isinstance(stmt, _DEFS):
                    walk(mod, stmt)
        grew = False
        for (mod, name), node in pkg.defs.items():
            if (mod, name) in reached and isinstance(node, ast.ClassDef):
                for meth in methods(node):
                    dunder = meth.name.startswith("__")
                    if id(meth) not in walked and (dunder or meth.name in attrs):
                        walked.add(id(meth))
                        pending.append((mod, meth))
                        grew = True
        if not grew:
            break

    out = []
    for (mod, name), node in pkg.defs.items():
        if not isinstance(node, _DEFS):
            continue
        if (mod, name) not in reached:
            out.append(f"{mod}.{name}")
        elif isinstance(node, ast.ClassDef):
            out.extend(f"{mod}.{name}.{meth.name}" for meth in methods(node)
                       if id(meth) not in walked)
    return sorted(out)


def test_every_definition_is_reached_from_a_command():
    assert unreached() == []


def test_the_walk_finds_an_unused_definition(tmp_path, monkeypatch):
    # a copy of the package with one dead function and one dead method
    pkg = tmp_path / "src" / "arbor"
    pkg.mkdir(parents=True)
    for path in PKG.glob("*.py"):
        (pkg / path.name).write_text(path.read_text())
    before = set(unreached())
    groups = pkg / "groups.py"
    groups.write_text(groups.read_text().replace(
        "    def index_of_name(self, name: str) -> int:",
        "    def square(self, a: int) -> int:\n"
        "        return self.mul_table[a][a]\n\n"
        "    def index_of_name(self, name: str) -> int:")
        + "\n\ndef unused_helper(group):\n    return group.order\n")
    monkeypatch.setitem(globals(), "PKG", pkg)
    assert set(unreached()) - before == {"groups.FiniteGroup.square",
                                         "groups.unused_helper"}
