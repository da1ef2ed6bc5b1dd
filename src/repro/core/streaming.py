"""Online hit-rate-curve analysis: feed accesses as they happen.

The deployment the paper argues is finally practical: a monitor attached
to a production cache that ingests the request stream and, at any
moment, can answer "what is the hit-rate curve so far / this window?" —
in O(k) memory and O(log k) amortized work per access.

:class:`OnlineCurveAnalyzer` is the k-truncated push façade over the
chunked incremental engine (:class:`repro.core.chunked.ChunkedIAF`),
which solves each window against the carried living-request suffix (the
``Q̄`` of Section 7).  ``flush()`` closes a window early (say, at a
period boundary).  A mid-stream ``curve()`` commits the pending
accesses, and their piece joins the open window; truncated distances do
not depend on where a solve is cut (Lemma 7.1), so windows stay
bit-identical to :func:`repro.core.bounded.bounded_iaf`'s with the same
boundaries.  See docs/STREAMING.md for the architecture.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from .._typing import TraceLike, as_trace, validate_dtype
from ..errors import CapacityError
from .chunked import ChunkedIAF, add_curves
from .hitrate import HitRateCurve


class OnlineCurveAnalyzer:
    """Streaming LRU hit-rate curves, bounded at cache size ``k``.

    Parameters mirror :func:`repro.core.bounded.bounded_iaf`; unlike the
    offline form, ``max_cache_size`` is mandatory (an online monitor
    cannot know the final universe size up front — the paper notes ``k``
    can also be grown adaptively, which ``expand_k`` supports).
    """

    def __init__(
        self,
        max_cache_size: int,
        *,
        chunk_multiplier: int = 4,
        dtype: Optional["np.typing.DTypeLike"] = None,
        engine_backend: Optional[str] = None,
    ) -> None:
        if max_cache_size < 1:
            raise CapacityError(
                f"max_cache_size must be >= 1, got {max_cache_size}"
            )
        if chunk_multiplier < 1:
            raise CapacityError(
                f"chunk_multiplier must be >= 1, got {chunk_multiplier}"
            )
        self._k = int(max_cache_size)
        self._chunk_multiplier = int(chunk_multiplier)
        self._dtype = validate_dtype(dtype)
        self._engine = ChunkedIAF(
            self._chunk_multiplier * self._k,
            max_cache_size=self._k,
            dtype=dtype,
            engine_backend=engine_backend,
            span_name="streaming.chunk",
        )
        self._closed: List[HitRateCurve] = []
        # The open window's accesses, and the sum of its solved pieces.
        self._open_len = 0
        self._open: Optional[HitRateCurve] = None

    # -- ingestion ----------------------------------------------------------

    @property
    def max_cache_size(self) -> int:
        return self._k

    @property
    def chunk_multiplier(self) -> int:
        return self._chunk_multiplier

    @property
    def chunk_length(self) -> int:
        """Accesses per window: always ``chunk_multiplier * k``."""
        return self._engine.chunk_size

    @property
    def accesses_ingested(self) -> int:
        """Total accesses pushed so far (including unprocessed buffer)."""
        return self._engine.accesses_ingested

    def push(self, accesses: TraceLike) -> int:
        """Ingest a batch of accesses; returns windows completed by it.

        Input is validated exactly like the offline entry points (via
        :func:`repro._typing.as_trace`): floats, negative addresses, and
        values that do not fit in the analyzer's dtype raise
        :class:`~repro.errors.TraceError` instead of being silently cast.
        """
        arr = as_trace(np.atleast_1d(np.asarray(accesses)), dtype=self._dtype)
        closed = len(self._closed)
        while arr.size:
            room = self.chunk_length - self._open_len
            self._add(self._engine.push(arr[:room]))
            self._open_len += min(room, int(arr.size))
            arr = arr[room:]
            if self._open_len == self.chunk_length:
                self.flush()
        return len(self._closed) - closed

    def flush(self) -> bool:
        """Close a partial window now (window boundary); True if any."""
        if self._open_len == 0:
            return False
        self._add([self._engine.flush()])
        self._closed.append(self._open)
        self._open, self._open_len = None, 0
        return True

    def _add(self, pieces: List[Optional[HitRateCurve]]) -> None:
        """Sum solved pieces into the open window."""
        for piece in pieces:
            if piece is not None:
                self._open = add_curves(self._open, piece)

    def expand_k(self, new_k: int) -> None:
        """Grow the tracked maximum cache size (Section 7 footnote: with
        ``k = u``, k grows as new addresses appear).

        Growing is sound mid-stream only up to the information already
        discarded: past windows stay truncated at their old ``k``, so the
        merged curve keeps the smallest truncation.  The carried living
        suffix is already the most-recent-k ordering and simply stops
        truncating as hard.

        The window length becomes ``chunk_multiplier * new_k``, keeping
        the bounded-IAF amortization; the open window just has more room.
        A window that spans both a :meth:`curve` query and an
        ``expand_k`` is truncated at the smaller ``k``: the accesses the
        query solved cannot be solved again at the new one.
        """
        if new_k < self._k:
            raise CapacityError("k can only grow, never shrink")
        self._k = int(new_k)
        self._engine.reconfigure(
            chunk_size=self._chunk_multiplier * self._k,
            max_cache_size=self._k,
        )

    # -- queries ------------------------------------------------------------

    @property
    def windows(self) -> List[HitRateCurve]:
        """Curves of completed windows, in stream order."""
        return list(self._closed)

    def curve(self) -> HitRateCurve:
        """The curve over everything ingested so far; commits the
        pending accesses (see the module docstring)."""
        self._add([self._engine.flush()])
        return self._engine.curve()

    def window_curve(self, index: int) -> HitRateCurve:
        """Curve of one completed window."""
        return self._closed[index]


def analyze_stream(
    batches: Iterable[TraceLike],
    max_cache_size: int,
    *,
    chunk_multiplier: int = 4,
    dtype: Optional["np.typing.DTypeLike"] = None,
    engine_backend: Optional[str] = None,
) -> Tuple[HitRateCurve, List[HitRateCurve]]:
    """One-shot helper: run the analyzer over an iterable of batches.

    Composes directly with :func:`repro.workloads.traceio.stream_trace`::

        curve, windows = analyze_stream(stream_trace(path, 1 << 16), k)
    """
    analyzer = OnlineCurveAnalyzer(
        max_cache_size, chunk_multiplier=chunk_multiplier, dtype=dtype,
        engine_backend=engine_backend,
    )
    for batch in batches:
        analyzer.push(batch)
    analyzer.flush()
    return analyzer.curve(), analyzer.windows
