"""Every module-level function, class and constant of the package is named
somewhere besides its own definition line: in the package, the tests, the
benchmark or the README.  A name nothing refers to is dead code.

A private ``_name`` counts as used only inside its own module, or where
another file writes it as ``module._name`` or imports it by name, so a
same-named helper elsewhere (an oracle's own ``_Encoded``, say) cannot keep
a dead one alive."""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "corefrank"
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_ATTRIBUTE = re.compile(r"\b([A-Za-z_][A-Za-z0-9_]*)\.(_[A-Za-z0-9_]*)")


def _definitions():
    """(path, name, line) of every module-level def, class and assignment."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if not (name.startswith("__") and name.endswith("__")):
                    yield path, name, node.lineno


def _occurrences() -> tuple[dict[str, set[tuple[Path, int]]], dict[str, set[tuple[Path, int]]]]:
    """Identifier -> the (file, line) pairs it appears on, and
    ``module._name`` -> the (file, line) pairs that write it so or import
    ``_name`` from ``module``."""
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py"),
             *(ROOT / "perfbench").rglob("*.py"), ROOT / "README.md"]
    seen = defaultdict(set)
    qualified = defaultdict(set)
    for path in files:
        text = path.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), start=1):
            for word in _IDENTIFIER.findall(line):
                seen[word].add((path, lineno))
            for module, name in _ATTRIBUTE.findall(line):
                qualified[f"{module}.{name}"].add((path, lineno))
        if path.suffix == ".py":
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, ast.ImportFrom) and node.module:
                    module = node.module.rsplit(".", 1)[-1]
                    for alias in node.names:
                        qualified[f"{module}.{alias.name}"].add((path, node.lineno))
    return seen, qualified


def test_every_module_level_name_is_used():
    seen, qualified = _occurrences()
    dead = []
    for path, name, lineno in _definitions():
        uses = seen[name] - {(path, lineno)}
        if name.startswith("_"):
            uses = {use for use in uses if use[0] == path} | qualified[f"{path.stem}.{name}"]
        if not uses:
            dead.append(f"{path.relative_to(ROOT)}:{lineno} {name}")
    assert not dead, "named only on their definition line:\n" + "\n".join(dead)
