"""Shared type aliases and dtype policy.

The paper (Section 9.5) evaluates 32-bit versus 64-bit address/counter
widths.  Every algorithm in this package therefore takes a ``dtype``
parameter; this module centralizes validation and the conversion of traces
into canonical contiguous integer arrays.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import TraceError

#: Types accepted wherever a trace is expected.
TraceLike = Union[np.ndarray, Sequence[int], Iterable[int]]

#: dtypes supported for addresses and distance counters (Section 9.5).
SUPPORTED_DTYPES = (np.dtype(np.int32), np.dtype(np.int64))

#: Default counter/address width.  int64 is the safe default; int32 is the
#: paper's fast path when ``n`` and ``u`` fit in 32 bits.
DEFAULT_DTYPE = np.dtype(np.int64)


def validate_dtype(dtype: Optional["np.typing.DTypeLike"]) -> np.dtype:
    """Return the canonical :class:`numpy.dtype`, rejecting unsupported ones.

    ``None`` is an unpinned width: addresses take :data:`DEFAULT_DTYPE`
    (the engine then certifies its own counter width).

    >>> validate_dtype("int32")
    dtype('int32')
    """
    dt = DEFAULT_DTYPE if dtype is None else np.dtype(dtype)
    if dt not in SUPPORTED_DTYPES:
        raise TraceError(
            f"unsupported dtype {dt!r}; supported: "
            + ", ".join(str(d) for d in SUPPORTED_DTYPES)
        )
    return dt


def as_trace(trace: TraceLike, dtype: Optional["np.typing.DTypeLike"] = DEFAULT_DTYPE) -> np.ndarray:
    """Convert ``trace`` to a contiguous 1-D integer array of ``dtype``
    (``None``: :data:`DEFAULT_DTYPE`, see :func:`validate_dtype`).

    Addresses must be non-negative integers.  Raises :class:`TraceError`
    on malformed input (floats, negative addresses, multi-dimensional
    arrays, or values that do not fit in ``dtype``).
    """
    dt = validate_dtype(dtype)
    arr = np.asarray(trace)
    if arr.ndim != 1:
        raise TraceError(f"trace must be 1-D, got shape {arr.shape}")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise TraceError(f"trace must contain integers, got dtype {arr.dtype}")
    if arr.size and int(arr.min()) < 0:
        raise TraceError("trace addresses must be non-negative")
    if arr.size and int(arr.max()) > np.iinfo(dt).max:
        raise TraceError(
            f"trace address {int(arr.max())} does not fit in {dt}"
        )
    return np.ascontiguousarray(arr, dtype=dt)
