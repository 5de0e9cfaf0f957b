"""Package layout: modules read each other only through public names."""

import ast
from pathlib import Path

import se3diffuse

PACKAGE = Path(se3diffuse.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reads(path: Path) -> list[str]:
    """``file:line module.name`` for each private name of a sibling module read in ``path``.

    Siblings are the modules bound by ``from . import ...``; a
    ``from .module import _name`` is a read too.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    relative = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level == 1]
    siblings = {a.asname or a.name for n in relative if n.module is None for a in n.names}
    found = [
        (n.lineno, f"{n.module}.{a.name}")
        for n in relative
        if n.module is not None
        for a in n.names
        if _private(a.name)
    ]
    found += [
        (n.lineno, f"{n.value.id}.{n.attr}")
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute)
        and isinstance(n.value, ast.Name)
        and n.value.id in siblings
        and _private(n.attr)
    ]
    return [f"{path.name}:{line} {name}" for line, name in sorted(found)]


def test_modules_read_no_private_name_of_another_module():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in private_reads(path)]
    assert found == []


def test_scan_finds_private_reads(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from . import igso3\nfrom .so3 import _hidden\nx = igso3._log_coeff\ny = igso3.__name__\n"
    )
    assert private_reads(module) == ["mod.py:2 so3._hidden", "mod.py:3 igso3._log_coeff"]
