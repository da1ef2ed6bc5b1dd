"""perfbench's per-layer hook names functions of this package.

``perfbench/hook/layertrace.py`` wraps each of its ``TARGETS`` by module
and attribute path, and some of its post-hooks read one positional
argument of the wrapped call: the first is a trace (``size0``), a list
of traces (``sizes0``) or a segment batch (``levelloop``); ``size1`` and
``size2`` read the accesses of a push and the chunk of a carry update.
A rename or an argument reorder here silently drops a layer from the
per-layer table, so this test pins that contract from the package side
without running the benchmark.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

HOOK = (Path(__file__).resolve().parents[2] / "perfbench" / "hook"
        / "layertrace.py")

#: Targets perfbench names that no longer exist.  ``ChunkedIAF.preview``
#: went with the chunked engine's preview path; CHANGES.md records it as
#: a FOUND line (the hook's uninstall test fails on it with an
#: AttributeError), to be dropped at the next benchmark change.
KNOWN_MISSING = {("repro.core.chunked", "ChunkedIAF.preview")}

#: Post-hook kind -> (index, name) of the positional parameter it reads
#: (methods count ``self`` as parameter 0, as the hook's ``args`` do).
READS = {
    "size0": (0, "trace"),
    "sizes0": (0, "traces"),
    "levelloop": (0, "seg"),
    "size1": (1, "accesses"),
    "size2": (2, "chunk"),
}


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_layertrace",
                                                  HOOK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner


TARGETS = _targets()


@pytest.mark.parametrize("module_name,path,label,kind", TARGETS,
                         ids=[f"{m}:{p}" for m, p, _l, _k in TARGETS])
def test_target_resolves(module_name, path, label, kind):
    target = _resolve(module_name, path)
    if (module_name, path) in KNOWN_MISSING:
        assert target is None, "a known miss resolves again: drop it"
        return
    assert callable(target), f"{module_name}.{path} is gone"
    if kind in READS:
        index, name = READS[kind]
        params = list(inspect.signature(target).parameters.values())
        assert len(params) > index, f"{module_name}.{path}: too few"
        param = params[index]
        assert param.kind in (param.POSITIONAL_ONLY,
                              param.POSITIONAL_OR_KEYWORD)
        assert param.name == name, (
            f"{module_name}.{path}'s argument {index} is {param.name!r}; "
            f"perfbench's {kind!r} hook reads it as {name!r}"
        )


def test_every_known_miss_is_a_target():
    named = {(m, p) for m, p, _l, _k in TARGETS}
    assert KNOWN_MISSING <= named
