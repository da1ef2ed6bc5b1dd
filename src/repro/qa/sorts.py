"""Count the sorts a computation runs.

Every sort of a trace in the engine is one :func:`repro.core.prevnext.
prev_next_arrays` call (the paper's pre-processing, Section 3), so
counting those calls counts sorts.  :func:`count_sorts` replaces the
function under every name a loaded ``repro`` module binds it to — its
home module and each module that imported it by name — for the length
of a ``with`` block, and records the length of every trace sorted::

    with count_sorts() as sorted_sizes:
        repro.solve(trace)
    assert sorted_sizes == [trace.size]     # one sort per solve

The sort-count tests and ``benchmarks/bench_chunked.py`` (accesses
sorted per access pushed) both read it.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Any, Iterator, List, Tuple

import numpy as np


@contextmanager
def count_sorts() -> Iterator[List[int]]:
    """Record the length of every trace ``prev_next_arrays`` sorts."""
    from ..core import prevnext

    original = prevnext.prev_next_arrays
    sizes: List[int] = []

    def spy(trace: Any, *args: Any, **kwargs: Any):
        sizes.append(int(np.size(trace)))
        return original(trace, *args, **kwargs)

    patched: List[Tuple[Any, str]] = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, spy)
                patched.append((module, attr))
    try:
        yield sizes
    finally:
        for module, attr in patched:
            setattr(module, attr, original)
