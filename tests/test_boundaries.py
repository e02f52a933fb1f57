"""Import boundaries between layers, read from the source without running it.

The closed forms predict from n alone, so ``closedform`` imports ``arith``
and nothing else: neither the graph nor the matrix modules whose results it
is compared with, nor ``critical``.  ``cli`` reaches the closed forms and the
per-prime comparison only through ``reports.build_report``.  The Howell
route in ``modring`` takes only the matrix type from ``intmat``, never the
Smith engine it witnesses.  ``intmat`` sits on ``arith`` alone, from which
it takes the error its self-checks raise.  Whether p is prime is decided
where p enters, in ``cli``, ``closedform`` and ``critical``; the Howell
route in ``modring`` trusts it.  No module but ``__init__``, which
re-exports, imports a name it does not use.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import critgroup

SRC = Path(critgroup.__file__).parent


def package_imports(path: Path) -> dict[str, set[str]]:
    """{package module: names imported from it} over every import in the file at ``path``.

    A whole module, as in ``from . import graphs`` or ``import critgroup.mmio``, maps to {"*"}.
    """
    found: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if node.level == 0:
                if mod != "critgroup" and not mod.startswith("critgroup."):
                    continue
                mod = mod.removeprefix("critgroup").removeprefix(".")
            if mod:
                found.setdefault(mod, set()).update(alias.name for alias in node.names)
            else:
                for alias in node.names:
                    found.setdefault(alias.name, set()).add("*")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("critgroup."):
                    found.setdefault(alias.name.removeprefix("critgroup."), set()).add("*")
    return found


@pytest.mark.parametrize(
    "module, allowed",
    [
        ("closedform", {"arith"}),
        ("graphs", {"intmat"}),
        ("intmat", {"arith"}),
        ("modring", {"arith", "intmat"}),
    ],
    ids=["closedform", "graphs", "intmat", "modring"],
)
def test_module_imports_only_its_layers(module, allowed):
    assert set(package_imports(SRC / f"{module}.py")) <= allowed


def test_modring_sees_only_the_matrix_type():
    assert package_imports(SRC / "modring.py")["intmat"] == {"BigIntMatrix"}


def test_modring_trusts_its_prime():
    assert package_imports(SRC / "modring.py")["arith"] == {"valuation", "xgcd"}


def test_primality_is_tested_only_at_the_entry_layers():
    importers = {path.stem for path in SRC.glob("*.py") if "is_prime" in package_imports(path).get("arith", ())}
    assert importers == {"cli", "closedform", "critical"}


def test_cli_compares_primes_only_through_build_report():
    imports = package_imports(SRC / "cli.py")
    assert "closedform" not in imports
    assert "prime_reports" not in imports["reports"]


def unused_imports(source: str) -> set[str]:
    """Names an import in ``source`` binds that no expression reads; ``__future__`` imports excepted."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            bound.update((alias.asname or alias.name).partition(".")[0] for alias in node.names)
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize(
    "path", sorted(path for path in SRC.glob("*.py") if path.stem != "__init__"), ids=lambda path: path.stem
)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == set()


def test_unused_import_reader():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys as system\n"
        "from math import comb, prod\n"
        "from .arith import valuation\n"
        "def f(x: valuation) -> int:\n"
        "    return comb(x, 2) + system.maxsize\n"
    )
    assert unused_imports(source) == {"os", "prod"}


def test_reader_sees_relative_absolute_and_module_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .arith import valuation\n"
        "from critgroup.intmat import BigIntMatrix, determinant\n"
        "from . import graphs\n"
        "from critgroup import cli\n"
        "import critgroup.mmio\n"
        "import math\n"
        "def f():\n"
        "    from .reports import build_report\n"
    )
    assert package_imports(probe) == {
        "arith": {"valuation"},
        "intmat": {"BigIntMatrix", "determinant"},
        "graphs": {"*"},
        "cli": {"*"},
        "mmio": {"*"},
        "reports": {"build_report"},
    }
