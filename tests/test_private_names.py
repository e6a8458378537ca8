"""Every private name that ``src/tdlf`` defines is read in ``src/tdlf``.

A private name starts with one underscore and is not a dunder.  The check
collects the private module-level functions, classes and assignments of
each module and the private methods of its classes, then looks for a read
of each anywhere in the package: a loaded name, or a loaded attribute of
that name.  A helper that only the tests call belongs in the tests, not in
the library.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tdlf"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(tree: ast.Module) -> set[str]:
    """The private module-level names and private method names of ``tree``."""
    out = set()
    for node in tree.body:
        if isinstance(node, DEFS):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        if isinstance(node, ast.ClassDef):
            out |= {m.name for m in node.body if isinstance(m, DEFS[:2])}
    return {name for name in out if _private(name)}


def _read(tree: ast.Module) -> set[str]:
    """The names and attribute names that ``tree`` loads."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def _unread(sources: dict[str, str]) -> dict[str, set[str]]:
    trees = {name: ast.parse(text, filename=name) for name, text in sources.items()}
    read = set().union(*(_read(tree) for tree in trees.values()))
    unread = {name: _defined(tree) - read for name, tree in trees.items()}
    return {name: names for name, names in unread.items() if names}


def test_every_private_name_is_read_in_the_package():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert len(sources) > 5
    unread = _unread(sources)
    assert not unread, f"private names that src/tdlf defines and never reads: {unread}"


def test_the_check_sees_an_unread_name():
    sources = {
        "a.py": (
            "_USED = 1\n"
            "_UNUSED: int = 2\n"
            "def _helper():\n"
            "    return _USED\n"
            "class _Kept:\n"
            "    def _method(self):\n"
            "        return self._other()\n"
            "    def _other(self):\n"
            "        return 0\n"
            "    def __len__(self):\n"
            "        return 0\n"
            "def public():\n"
            "    return _Kept()._method()\n"
        ),
        "b.py": "from a import _helper\n_helper()\n",
    }
    assert _unread(sources) == {"a.py": {"_UNUSED"}}
