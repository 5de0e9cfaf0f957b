"""Package layout: modules read each other only through public names."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

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


def test_lazy_names_are_their_home_modules_objects():
    for name in se3diffuse.__all__:
        value = getattr(se3diffuse, name)
        if isinstance(value, type):
            assert value.__module__.startswith("se3diffuse.")
            assert vars(importlib.import_module(value.__module__))[name] is value
        else:
            assert value is importlib.import_module(f"se3diffuse.{name}")


def test_lazy_names_listed_and_star_imported():
    assert set(se3diffuse.__all__) <= set(dir(se3diffuse))
    namespace = {}
    exec("from se3diffuse import *", namespace)
    assert all(namespace[name] is getattr(se3diffuse, name) for name in se3diffuse.__all__)


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        se3diffuse.no_such_name  # noqa: B018


def test_modules_read_no_private_name_of_another_module():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in private_reads(path)]
    assert found == []


def test_scan_finds_private_reads(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "from . import igso3\nfrom .so3 import _hidden\nx = igso3._image_sum\ny = igso3.__name__\n"
    )
    assert private_reads(module) == ["mod.py:2 so3._hidden", "mod.py:3 igso3._image_sum"]


def test_only_igso3_commands_and_init_name_the_truncation_config():
    # The IGSO3 functions take a config; every other caller uses the default.
    # commands.py builds one for --grid, __init__.py re-exports the class.
    naming = re.compile(r"\b(TruncationConfig|DEFAULT_CONFIG)\b")
    found = sorted(path.name for path in PACKAGE.glob("*.py")
                   if naming.search(path.read_text()))
    assert found == ["__init__.py", "commands.py", "igso3.py"]


README = Path(__file__).resolve().parents[1] / "README.md"
_SPAN = re.compile(r"`([^`]+)`")
_IDENTIFIER = re.compile(r"([A-Za-z_]\w*)(\(.*\))?", re.S)


def unresolved_readme_names(text: str) -> list[str]:
    """Names in the library section of ``text`` that no module defines.

    The section is everything before ``## Install and test``. A backticked
    span counts when it is a bare identifier that contains ``_`` or is
    followed by ``(``; it resolves to a public name of a ``se3diffuse``
    module or to a numpy function.
    """
    public = {
        name
        for info in pkgutil.iter_modules([str(PACKAGE)])
        for name in vars(importlib.import_module(f"se3diffuse.{info.name}"))
        if not _private(name)
    }
    missing = []
    for span in _SPAN.findall(text.split("## Install and test")[0]):
        match = _IDENTIFIER.fullmatch(span)
        if match is None or ("_" not in match[1] and match[2] is None):
            continue
        if match[1] not in public and not callable(getattr(np, match[1], None)):
            missing.append(match[1])
    return missing


def test_readme_library_section_names_exist():
    assert unresolved_readme_names(README.read_text()) == []


def test_readme_scan_finds_missing_names():
    text = (
        "`mixture_score(centers)`, `linspace(0, 1)`, `ATOM_NAMES`, `no_such_name(x)`,\n"
        "`zeta`, `se3diffuse.toy`, `(N, 3)` and `igso3_density(r0,\nrt)`.\n"
        "## Install and test\n`not_a_name`\n"
    )
    assert unresolved_readme_names(text) == ["no_such_name"]


def readme_option_rows(text: str) -> list[tuple[str, ...]]:
    """Cells of the README's option table, one tuple per flag row."""
    return [tuple(cell.strip() for cell in line.strip("|").split("|"))
            for line in text.splitlines() if line.startswith("| `")]


def test_readme_option_rows_are_the_flag_rows():
    text = ("| command | flag | type | default | lowest value or choices |\n|---|---|---|---|---|\n"
            "| `igso3` | `--t` | float | required |  |\n"
            "| `toy compare` | `--out` | str | required |  |\n\n`igso3` takes `--grid`.\n")
    assert readme_option_rows(text) == [("`igso3`", "`--t`", "float", "required", ""),
                                        ("`toy compare`", "`--out`", "str", "required", "")]


def test_readme_option_table_matches_cli_options():
    from se3diffuse import cli

    # Command lines that share one table share its rows.
    groups = {}
    for line, options in cli.OPTIONS.items():
        groups.setdefault(id(options), (options, []))[1].append(f"`{line}`")
    expected = []
    for options, lines in groups.values():
        command = ", ".join(lines)
        for key, (kind, default, *bound) in options.items():
            if default is None:
                shown = "required"
            elif kind is bool:
                shown = "on" if default else "off"
            else:
                shown = f"`{default}`"
            if not bound:
                lowest = ""
            elif isinstance(bound[0], tuple):
                lowest = " or ".join(f"`{choice}`" for choice in bound[0])
            else:
                lowest = str(bound[0])
            flag = "`--" + key.replace("_", "-") + "`"
            expected.append((command, flag, kind.__name__, shown, lowest))
    assert readme_option_rows(README.read_text()) == expected
