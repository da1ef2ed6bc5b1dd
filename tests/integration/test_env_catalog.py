"""Every environment variable the package reads is listed in one table.

The catalog is the "Environment variables" section of
docs/PERFORMANCE.md.  A quoted ``REPRO_*`` literal under ``src/repro``
that the table lacks fails here, and so does a table row naming a
variable the package no longer reads.
"""

from __future__ import annotations

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[2]
NAME = re.compile(r"REPRO_[A-Z0-9_]+")


def names_read() -> set:
    """String literals under ``src/repro`` that are exactly a REPRO_* name."""
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and \
                    isinstance(node.value, str) and \
                    NAME.fullmatch(node.value):
                names.add(node.value)
    return names


def names_catalogued() -> set:
    text = (ROOT / "docs" / "PERFORMANCE.md").read_text(encoding="utf-8")
    section = text.split("## Environment variables", 1)[1]
    section = section.split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(REPRO_[A-Z0-9_]+)`", section, re.M))


def test_every_variable_read_is_catalogued():
    missing = names_read() - names_catalogued()
    assert not missing, (
        f"add {sorted(missing)} to the table in docs/PERFORMANCE.md"
    )


def test_every_catalogued_variable_is_read():
    stale = names_catalogued() - names_read()
    assert not stale, (
        f"{sorted(stale)} are listed in docs/PERFORMANCE.md but no "
        f"longer read under src/repro"
    )
