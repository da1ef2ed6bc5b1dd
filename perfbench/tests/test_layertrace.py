"""The span hook patches every lookup name and puts every one back."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from layertrace import TARGETS, LayerTracer

HOOK = Path(__file__).resolve().parents[1] / "hook"
SRC = Path(__file__).resolve().parents[2] / "src"


def _repro_names():
    """Every (owner, attribute) -> object binding a target can occupy."""
    for module_name, _path, _label, _kind in TARGETS:
        importlib.import_module(module_name)
    originals = {}
    for module_name, path, _label, _kind in TARGETS:
        owner = sys.modules[module_name]
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        originals[id(getattr(owner, attr))] = getattr(owner, attr)
    bindings = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or
                                  name.startswith("repro.")):
            continue
        for attr, value in vars(module).items():
            if id(value) in originals:
                bindings[(name, attr)] = value
            if isinstance(value, type):
                for meth, fn in vars(value).items():
                    if id(fn) in originals:
                        bindings[(name, f"{attr}.{meth}")] = fn
    return bindings


def _lookup(name, path):
    owner = sys.modules[name]
    for part in path.split("."):
        owner = getattr(owner, part) if not isinstance(owner, type) \
            else vars(owner)[part]
    return owner


def test_uninstall_restores_identical_objects():
    before = _repro_names()
    # Names bound under more than one module, e.g. iaf_distances in
    # engine, api and chunked, must all be covered.
    assert ("repro.core.api", "iaf_distances") in before
    assert ("repro.core.chunked", "iaf_distances") in before
    assert ("repro.core.ops", "prev_next_arrays") in before
    tracer = LayerTracer("server")
    tracer.install()
    try:
        for (name, path), orig in before.items():
            assert _lookup(name, path) is not orig, (name, path)
        import repro

        repro.solve(np.array([1, 2, 1, 3, 2, 1]))
        labels = [s[0] for s in tracer.spans]
        assert labels.count("prevnext") == 2
        assert "engine.levelloop" in labels and "api.solve" in labels
    finally:
        tracer.uninstall()
    for (name, path), orig in before.items():
        assert _lookup(name, path) is orig, (name, path)


def test_hook_loads_at_start_up_and_writes_spans_at_exit(tmp_path):
    env = dict(os.environ, PERFBENCH_TRACE_DIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join([str(SRC), str(HOOK)]))
    subprocess.run(
        [sys.executable, "-c",
         "import repro; repro.solve([1, 2, 1, 3, 1])"],
        env=env, check=True, timeout=120,
    )
    (dump_file,) = tmp_path.glob("spans-*.json")
    dump = json.loads(dump_file.read_text())
    assert dump["role"] == "server"
    labels = [s[0] for s in dump["spans"]]
    assert labels.count("prevnext") == 2
    assert "api.solve" in labels
