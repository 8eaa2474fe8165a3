"""Source hygiene: every module-level import in the package is used,
every module-level private name is read somewhere in the package, no
CLI stage catches the errors that `cli.main` turns into exit codes,
every .npz goes through `store.write_npz`, every rolling window is
summed in `signals._window_sums`, every CSV table goes through
`store.write_csv`, the package imports only the standard library and
numpy, the count of settable values is pinned, and the count of source
lines has a ceiling."""

import ast
import builtins
import re
import sys
from pathlib import Path

import pytest

import hfrtrend

PACKAGE = Path(hfrtrend.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module body's import statements that no Name
    node in the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == ["os", "b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def foreign_imports(source: str) -> list[str]:
    """Top-level names of the modules that any import statement in the
    source, at module level or inside a function, loads from outside the
    standard library, numpy and the package itself."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "hfrtrend"}
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [top for top in (n.split(".")[0] for n in names) if top not in allowed]


def test_detects_a_foreign_import():
    source = ("import os, numpy.linalg\nfrom . import store\n"
              "from hfrtrend.trend import fit\n"
              "def f():\n    import yaml\n    from scipy import linalg\n")
    assert foreign_imports(source) == ["yaml", "scipy"]


def test_package_imports_only_stdlib_and_numpy():
    assert [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py"))
            for name in foreign_imports(path.read_text(encoding="utf-8"))] == []


def test_numpy_is_the_only_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    assert [re.split(r"[\s<>=!~;\[]", d, maxsplit=1)[0] for d in dependencies] == [
        "numpy"]


def unread_private_names(sources: list[str]) -> list[str]:
    """Module-level `_name`s (not dunders) bound in any of the sources
    that no Name load or attribute access in any of them reads."""
    trees = [ast.parse(source) for source in sources]
    bound = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.append(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                bound += [n.id for n in ast.walk(node)
                          if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    read = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return [name for name in bound if name.startswith("_")
            and not name.startswith("__") and name not in read]


def test_detects_an_unread_private_name():
    sources = ["_a = 1\n_b, c = 2, 3\ndef _f(): return _a\n", "m._f()\n"]
    assert unread_private_names(sources) == ["_b"]


def test_private_names_are_used():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_names(sources) == []


# What only `cli.main` may catch: it turns each into exit code 2.
BOUNDARY_ERRORS = {name for name, obj in vars(builtins).items()
                   if isinstance(obj, type) and issubclass(obj, OSError)} | {
    "SchemaError", "DATA_ERRORS", "DECODE_ERRORS", "EOFError", "error",
    "UnicodeError", "UnicodeDecodeError", "JSONDecodeError", "BadGzipFile",
    "BadZipFile", "Error"}


def stage_boundary_handlers(source: str) -> list[str]:
    """`function: exception` for each except clause in a top-level
    `cmd_*` function that names a boundary error (`zlib.error` and
    `csv.Error` by their last part)."""
    found = []
    for node in ast.parse(source).body:
        if not (isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")):
            continue
        for handler in ast.walk(node):
            if not (isinstance(handler, ast.ExceptHandler) and handler.type):
                continue
            for n in ast.walk(handler.type):
                name = n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)
                if name in BOUNDARY_ERRORS:
                    found.append(f"{node.name}: {name}")
    return found


def test_detects_a_boundary_handler_in_a_stage():
    source = ("def cmd_a():\n"
              "    try: f()\n"
              "    except ValueError: pass\n"
              "    except (FileNotFoundError, m.DECODE_ERRORS): pass\n"
              "def cmd_b():\n"
              "    try: f()\n"
              "    except zlib.error: pass\n"
              "def main():\n"
              "    try: f()\n"
              "    except OSError: pass\n")
    assert stage_boundary_handlers(source) == [
        "cmd_a: FileNotFoundError", "cmd_a: DECODE_ERRORS", "cmd_b: error"]


def test_main_is_the_only_error_boundary():
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert stage_boundary_handlers(source) == []


def test_store_writes_every_npz():
    """`store.write_npz` is the one .npz writer: no module calls numpy's
    savez functions, whose level-6 deflate costs ingest and analyze time."""
    calls = [f"{path.name}: {node.func.attr}"
             for path in MODULES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("savez", "savez_compressed")]
    assert calls == []


def sliding_window_users(path: Path) -> list[str]:
    """`module.name` of each top-level statement in `path` that names
    `sliding_window_view`."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        names = {getattr(n, "attr", None) or getattr(n, "id", None)
                 for n in ast.walk(node)}
        names |= {a.name for n in ast.walk(node) if isinstance(n, ast.ImportFrom)
                  for a in n.names}
        if "sliding_window_view" in names:
            found.append(f"{path.stem}.{getattr(node, 'name', '<module>')}")
    return found


def test_one_rolling_window():
    """Every 7-day rate, share and fraction is smoothed through
    `signals._window_sums`; no module slides a second window."""
    assert [user for path in MODULES for user in sliding_window_users(path)] == [
        "signals._window_sums"]


def csv_writer_users(path: Path) -> list[str]:
    """`module.name` of each top-level statement in `path` that constructs
    a `csv.writer`."""
    return [f"{path.stem}.{getattr(node, 'name', '<module>')}"
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                   and n.func.attr == "writer"
                   and getattr(n.func.value, "id", None) == "csv"
                   for n in ast.walk(node))]


def test_one_csv_writer():
    """Every CSV table is written by `store.write_csv`, in one dialect; the
    only other writer is ingest's quarantine, which streams rejected rows
    into a file that stays open while the parse runs."""
    assert [user for path in MODULES for user in csv_writer_users(path)] == [
        "ingest._decode_blocks", "store.write_csv"]


def settable_values(source: str) -> list[str]:
    """Each value a caller can set: a defaulted parameter of a public
    function or of a public method of a public class, a field of a public
    dataclass, and an `add_argument` call (as `add_argument:<line>`)."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
            continue
        functions = [node] if isinstance(node, ast.FunctionDef) else [
            m for m in node.body if isinstance(m, ast.FunctionDef) and m.name[0] != "_"]
        for fn in functions:
            params = fn.args.posonlyargs + fn.args.args
            defaulted = params[len(params) - len(fn.args.defaults):] + [
                p for p, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d]
            found += [f"{fn.name}({p.arg})" for p in defaulted]
        decorators = {getattr(d, "id", None) or getattr(d, "attr", None) for d in
                      (getattr(d, "func", d) for d in node.decorator_list)}
        if isinstance(node, ast.ClassDef) and "dataclass" in decorators:
            found += [f"{node.name}.{m.target.id}" for m in node.body
                      if isinstance(m, ast.AnnAssign)]
    found += [f"add_argument:{n.lineno}" for n in ast.walk(ast.parse(source))
              if isinstance(n, ast.Call)
              and getattr(n.func, "attr", None) == "add_argument"]
    return found


def test_detects_settable_values():
    source = ("import dataclasses\n"
              "def f(a, b=1, *, c, d=2): p.add_argument('--x')\n"
              "def _g(a=1): pass\n"
              "class C:\n"
              "    def m(self, a=1): pass\n"
              "    def _n(self, a=1): pass\n"
              "@dataclasses.dataclass(frozen=True)\n"
              "class D:\n"
              "    x: int\n"
              "    y: int = 0\n"
              "@dataclass\n"
              "class E:\n"
              "    z: int\n")
    assert settable_values(source) == ["f(b)", "f(d)", "m(a)", "D.x", "D.y", "E.z",
                                       "add_argument:2"]


def test_settable_values():
    """Every value in the package that a caller can set. Each one adds
    configurations that tests must cover, so a change that moves this
    count says why."""
    assert sum(len(settable_values(path.read_text(encoding="utf-8")))
               for path in MODULES) == 124


def test_source_lines():
    """The package's lines, at most. A change that raises this ceiling
    says in CHANGES.md what the new lines pay for."""
    assert sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in PACKAGE.glob("*.py")) <= 2590
