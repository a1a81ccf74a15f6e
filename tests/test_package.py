"""Rules over the package source itself."""

import ast
import importlib
import re
from pathlib import Path
from types import ModuleType

import densek
from densek.algorithms import ALGORITHMS
from test_algorithms import TestTraceEvents as TraceEvents

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "densek"
TESTS = Path(__file__).resolve().parent
TRACER = ROOT / "perfbench" / "tracer.py"
README = ROOT / "README.md"


def test_no_assert_statements():
    # assert vanishes under python -O, so no check in the package may use it
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_cli_prints_to_stderr_only():
    # stdout is written only through cli._emit, which keeps a file name's
    # bytes on a stdout whose encoding refuses them; print() is for errors
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    found = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
        and not any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr"
                    for kw in node.keywords)
    ]
    assert found == []


def test_text_io_names_its_encoding():
    # the locale's encoding varies (ASCII under LC_ALL=C), so every
    # text-mode open(), read_text() and write_text() in the package names one
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call) or any(
                kw.arg == "encoding" for kw in node.keywords
            ):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            if name == "open":
                # open(file, mode) or Path.open(mode); binary modes need none
                modes = node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
                modes += [kw.value for kw in node.keywords if kw.arg == "mode"]
                if any(isinstance(m, ast.Constant) and "b" in str(m.value) for m in modes):
                    continue
            elif name not in ("read_text", "write_text"):
                continue
            found.append(f"{path.name}:{node.lineno}")
    assert found == []


def unread_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name an import binds that the module never reads.

    A name listed in a module-level __all__ counts as read, and so does a
    __future__ import. ``import a.b`` binds, and is read as, ``a``.
    """
    tree = ast.parse(source)
    bound = []
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [(line, name) for line, name in bound
            if name not in read and name not in exported]


def test_unread_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from a import b, c as d, e\n"
        "__all__ = ['e']\n"
        "d()\n"
    )
    assert unread_imports(source) == [(2, "os"), (3, "b")]


def test_every_import_is_read():
    # no linter runs here, so the package and the tests check themselves
    files = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert len(files) > 10
    found = [
        f"{path.parent.name}/{path.name}:{line} {name}"
        for path in files
        for line, name in unread_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_tracer_targets_resolve():
    # the benchmark's tracer patches these by name; read them from its
    # source, without importing it, so a renamed function fails here
    [targets] = [
        ast.literal_eval(node.value)
        for node in ast.parse(TRACER.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    ]
    assert len(targets) > 10
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_readme_algorithm_table_matches_the_registry():
    # the README and the code must agree: the table under "Approximation
    # algorithms" lists function | CLI name | tag, in registry order, and a
    # tag is its CLI name in capitals
    text = README.read_text(encoding="utf-8")
    section = text.split("### Approximation algorithms\n", 1)[1].split("\n#", 1)[0]
    rows = [
        tuple(cell.strip().strip("`") for cell in line.split("|")[1:4])
        for line in section.splitlines()
        if line.startswith("| `")
    ]
    assert rows == [(fn, name, name.upper()) for name, (_, fn) in ALGORITHMS.items()]


def test_readme_trace_event_table_matches_the_schema():
    # the table under "Observing a run" lists event | emitted by | fields,
    # and names each field in backticks, lowercase; TestTraceEvents holds
    # the solvers' events to the same schema
    text = README.read_text(encoding="utf-8")
    section = text.split("### Observing a run\n", 1)[1].split("\n#", 1)[0]
    table = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            event, _, fields = (cell.strip() for cell in line.split("|")[1:4])
            table[event.strip("`")] = set(re.findall(r"`([a-z_]+)`", fields))
    assert table == {event: set(fields) for event, fields in TraceEvents.SCHEMA.items()}


def test_top_level_exports_the_readme_public_names():
    # the README's "Public names" list is the one record of the top level:
    # __all__ and every public attribute of densek but its submodules match it
    text = README.read_text(encoding="utf-8")
    section = text.split("### Public names\n", 1)[1].split("\n#", 1)[0]
    bullets = section.split("\n* ", 1)[1].split("\n\n", 1)[0]
    listed = set(re.findall(r"`(\w+)`", bullets))
    public = {name for name, value in vars(densek).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert set(densek.__all__) == listed == public
    assert len(densek.__all__) == len(listed)
