"""Rules over the package source itself."""

import ast
import importlib
import io
import re
import tokenize
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import densek
import densek.algorithms
import densek.cli
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


def tracer_targets() -> list[tuple[str, str, str]]:
    # the benchmark's tracer patches these by name; read them from its
    # source, without importing it
    [targets] = [
        ast.literal_eval(node.value)
        for node in ast.parse(TRACER.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    ]
    return targets


def test_tracer_targets_resolve():
    # a renamed function fails here, not in the benchmark
    targets = tracer_targets()
    assert len(targets) > 10
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def unloaded_definitions(sources: dict[str, str]) -> list[str]:
    """module.name of each module-level function or class of the sources
    that no other statement of theirs reads, as a name or an attribute, or
    imports by name (test_every_import_is_read holds each import to a read).

    Only top-level statements other than the definition itself count, so a
    recursive call keeps nothing alive.
    """
    defs, reads = [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((module, node))
            names = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
                elif isinstance(sub, ast.ImportFrom):
                    names.update(alias.name for alias in sub.names)
            reads.append((node, names))
    return [f"{module}.{node.name}" for module, node in defs
            if not any(node.name in names for other, names in reads if other is not node)]


def test_unloaded_definitions_are_found():
    sources = {
        "a": "def used():\n    return 1\n\ndef orphan():\n    return orphan()\n",
        "b": "from a import used\n\nclass Lone:\n    pass\n\ndef f():\n    return x.g\n\ndef g():\n    pass\n",
    }
    assert unloaded_definitions(sources) == ["a.orphan", "b.Lone", "b.f"]


def test_every_definition_has_a_reader():
    # code with no caller goes: each module-level function or class of the
    # package is read elsewhere in it, is a README public name, or is a
    # function the benchmark's tracer patches by name
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    public = {f"{getattr(densek, name).__module__.split('.')[-1]}.{name}"
              for name in densek.__all__}
    traced = {f"{module.split('.')[-1]}.{attr}" for module, attr, _ in tracer_targets()}
    unread = [name for name in unloaded_definitions(sources) if name not in public]
    assert [name for name in unread if name not in traced] == []
    # the tracer's targets have readers in the package but this one
    assert unread == ["graph.cut_vertices"]


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


def claimed_value(comment: str) -> str | None:
    """The value a README comment states for the line's expression: the
    shortest start of the comment that is an expression and ends at a ","
    or ":" or at its end, as "Fraction(2, 1)" in "# Fraction(2, 1), exact
    optimum"; None for prose, as "# g from the example above"."""
    for cut in [m.start() for m in re.finditer("[,:]", comment)] + [len(comment)]:
        try:
            ast.parse(comment[:cut], mode="eval")
        except SyntaxError:
            continue
        return comment[:cut]
    return None


def test_claimed_value():
    assert claimed_value("(0, 1, 2, 3)") == "(0, 1, 2, 3)"
    assert claimed_value("Fraction(7, 3), no size constraint") == "Fraction(7, 3)"
    assert claimed_value("[('a', {'b': 1})]: prose") == "[('a', {'b': 1})]"
    assert claimed_value("g from the example above") is None


def test_readme_python_results_hold():
    # the README's Python blocks from "## Library" to "## CLI", run as the
    # CI step runs them, as one script; an expression whose comment states
    # a value must give that value, as its repr
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## CLI\n", 1)[0]
    script = "".join(re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S))
    comments = {
        tok.start[0]: tok.string.lstrip("#").strip()
        for tok in tokenize.generate_tokens(io.StringIO(script).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace = {}
    checked, wrong = [], []
    try:
        for stmt in ast.parse(script).body:
            comment = comments.get(stmt.end_lineno, "")
            value = claimed_value(comment) if isinstance(stmt, ast.Expr) else None
            if value is None:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
                continue
            got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            checked.append(ast.unparse(stmt))
            if repr(got) != repr(eval(value, {"Fraction": Fraction})):
                wrong.append((ast.unparse(stmt), value, got))
    finally:
        densek.algorithms.trace = None
    assert wrong == []
    assert len(checked) >= 5


def test_readme_exit_code_table_matches_the_cli():
    # the table after "Exit codes:" has one row per EXIT_* constant of
    # densek.cli, so every code an error class exits with has its row
    text = README.read_text(encoding="utf-8")
    table = text.split("\nExit codes:\n", 1)[1].strip().split("\n\n", 1)[0]
    codes = [int(code) for code in re.findall(r"^\| (\d+) \|", table, re.M)]
    constants = [value for name, value in vars(densek.cli).items()
                 if name.startswith("EXIT_")]
    assert codes == sorted(constants)
    assert {code for _, code in densek.cli._EXIT_CODES} <= set(codes)
