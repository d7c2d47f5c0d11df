"""Every module-level function, class and constant of the package is named
somewhere besides its own definition line: in the package, the tests, the
benchmark or the README.  A name nothing refers to is dead code."""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "corefrank"
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


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


def _occurrences() -> dict[str, set[tuple[Path, int]]]:
    """Identifier -> the (file, line) pairs it appears on."""
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py"),
             *(ROOT / "perfbench").rglob("*.py"), ROOT / "README.md"]
    seen = defaultdict(set)
    for path in files:
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            for word in _IDENTIFIER.findall(line):
                seen[word].add((path, lineno))
    return seen


def test_every_module_level_name_is_used():
    seen = _occurrences()
    dead = [
        f"{path.relative_to(ROOT)}:{lineno} {name}"
        for path, name, lineno in _definitions()
        if not seen[name] - {(path, lineno)}
    ]
    assert not dead, "named only on their definition line:\n" + "\n".join(dead)
