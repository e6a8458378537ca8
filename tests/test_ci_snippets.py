"""The ``python -c "..."`` snippets of the CI workflow stay runnable.

Every snippet in ``.github/workflows/tests.yml`` must compile, and every
name it imports from a ``tdlf`` module, and every private name it reads as
an attribute of one (``_gmp._lib``), must exist.  A fold that
deletes or renames such a name then fails here, not only in CI.  The
workflow is read with a regex, as CI installs only pytest and hypothesis.
"""

import ast
import importlib
import re
import textwrap
from pathlib import Path
from types import ModuleType

import tdlf

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"
SNIPPET = re.compile(r'python3? (?:-\w+ )*-c "([^"]*)"')


def snippets() -> list[str]:
    return [textwrap.dedent(s) for s in SNIPPET.findall(WORKFLOW.read_text())]


def tdlf_reads(tree: ast.Module) -> list[tuple[ModuleType, str]]:
    """``(module, name)`` for every name imported from a ``tdlf`` module and
    every private attribute read from one."""
    modules: dict[str, ModuleType] = {}
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "tdlf":
                    module = importlib.import_module(alias.name)
                    modules[alias.asname or "tdlf"] = module if alias.asname else tdlf
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tdlf":
            module = importlib.import_module(node.module)
            for alias in node.names:
                reads.append((module, alias.name))
                value = getattr(module, alias.name, None)
                if isinstance(value, ModuleType):
                    modules[alias.asname or alias.name] = value

    def resolve(node):
        if isinstance(node, ast.Name):
            return modules.get(node.id)
        if isinstance(node, ast.Attribute):
            value = getattr(resolve(node.value), node.attr, None)
            return value if isinstance(value, ModuleType) else None
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            module = resolve(node.value)
            if module is not None:
                reads.append((module, node.attr))
    return reads


def test_ci_snippets_compile_and_read_existing_names():
    found = snippets()
    assert len(found) >= 8, found
    private = set()
    for text in found:
        compile(text, "<ci snippet>", "exec")
        for module, name in tdlf_reads(ast.parse(text)):
            assert hasattr(module, name), f"{module.__name__}.{name} is read in CI: {text}"
            if name.startswith("_"):
                private.add(f"{module.__name__}.{name}")
    assert private, "no private name found: the reads are no longer recognised"
