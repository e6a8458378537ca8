"""``tests/helpers.py`` reads no private name of ``tdlf``.

The differential tests compare the library with the ``reference_*``
functions of ``tests/helpers.py``.  A reference that imports a private name
of the package runs the code it is meant to check, so a fault there is
shared by both sides and no test sees it.  The check walks the whole file,
the references and the helpers they call: an ``import`` or ``from``
import of a name that starts with one underscore from a ``tdlf`` module, or
such an attribute read from a ``tdlf`` module bound by an import.
"""

import ast
from pathlib import Path

HELPERS = Path(__file__).resolve().parent / "helpers.py"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_reads(text: str) -> list[tuple[int, str]]:
    """``(line, name)`` for each private name of ``tdlf`` that ``text`` reads."""
    tree = ast.parse(text)
    modules = set()  # local names bound to tdlf modules
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tdlf":
            for alias in node.names:
                if _private(alias.name):
                    out.append((node.lineno, f"{node.module}.{alias.name}"))
                else:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "tdlf":
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in modules:
                out.append((node.lineno, ast.unparse(node)))
    return sorted(out)


def test_helpers_read_no_private_name():
    found = _private_reads(HELPERS.read_text())
    assert not found, f"tests/helpers.py reads private names of tdlf: {found}"


def test_the_check_sees_a_private_read():
    text = (
        "from tdlf import ExtInt, seqspec\n"
        "from tdlf.seqspec import SeqSpec, _form\n"
        "import tdlf.series as series\n"
        "import tdlf\n"
        "def reference_x(t):\n"
        "    from tdlf.seqspec import _sup_on as sup\n"
        "    return seqspec._tail(t), series._mul(1, 2), tdlf.seqspec._at(0, 0, 0)\n"
        "def reference_y(s):\n"
        "    return s._sign, ExtInt(0), SeqSpec.__init__\n"
    )
    assert _private_reads(text) == [
        (2, "tdlf.seqspec._form"),
        (6, "tdlf.seqspec._sup_on"),
        (7, "seqspec._tail"),
        (7, "series._mul"),
        (7, "tdlf.seqspec._at"),
    ]
