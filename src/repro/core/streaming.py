"""Online hit-rate-curve analysis: feed accesses as they happen.

The deployment the paper argues is finally practical: a monitor attached
to a production cache that ingests the request stream and, at any
moment, can answer "what is the hit-rate curve so far / this window?" —
in O(k) memory and O(log k) amortized work per access.

:class:`OnlineCurveAnalyzer` is the k-truncated push façade over the
chunked incremental engine (:class:`repro.core.chunked.ChunkedIAF`):
accesses accumulate in the current chunk buffer; when the chunk fills,
it is solved against the carried living-request suffix (the ``Q̄`` of
Section 7 — the k-truncated special case of the engine's carry) and
folded into the global (and per-window) curves.  ``flush()`` processes a
partial chunk early (say, at a period boundary); results are identical
to an offline :func:`repro.core.bounded.bounded_iaf` run over the same
concatenated stream with the same chunk boundaries.

Mid-stream queries are cheap: ``curve(include_pending=True)`` analyzes
the pending partial chunk **on the fly** — side-effect free (no window
is committed, no stats are charged) and cached, so back-to-back calls
between pushes never re-solve the same accesses.  See
docs/STREAMING.md for the architecture.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from .._typing import DEFAULT_DTYPE, TraceLike, validate_dtype
from ..errors import CapacityError
from .chunked import ChunkedIAF
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
        dtype: "np.typing.DTypeLike" = DEFAULT_DTYPE,
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
            dtype=self._dtype,
            engine_backend=engine_backend,
            span_name="streaming.chunk",
        )

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
        return self._engine.push(accesses)

    def flush(self) -> bool:
        """Process a partial chunk now (window boundary); True if any."""
        return self._engine.flush()

    def expand_k(self, new_k: int) -> None:
        """Grow the tracked maximum cache size (Section 7 footnote: with
        ``k = u``, k grows as new addresses appear).

        Growing is sound mid-stream only up to the information already
        discarded: past windows stay truncated at their old ``k``, so the
        merged curve keeps the smallest truncation.  The carried living
        suffix is already the most-recent-k ordering and simply stops
        truncating as hard.

        The chunk length is recomputed as ``chunk_multiplier * new_k``,
        preserving the bounded-IAF amortization (each O(multiplier·k)
        chunk solve is charged to multiplier·k accesses — an earlier
        version clamped to ``max(chunk_len, k)``, silently discarding
        the multiplier).  The pending buffer is untouched: it simply has
        more room before the next window boundary.
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
        return self._engine.windows

    def curve(self, *, include_pending: bool = True) -> HitRateCurve:
        """The curve over everything ingested so far.

        With ``include_pending`` the partial chunk is analyzed on the fly
        (without committing a window), so the answer is always exact for
        the full prefix of the stream.  The on-the-fly solve is
        side-effect free and cached by the underlying engine: repeated
        calls between pushes reuse it instead of re-solving — an earlier
        version re-ran the engine (and re-charged its instrumentation)
        on every call.
        """
        return self._engine.curve(include_pending=include_pending)

    def window_curve(self, index: int) -> HitRateCurve:
        """Curve of one completed window."""
        return self._engine.windows[index]


def analyze_stream(
    batches: Iterable[TraceLike],
    max_cache_size: int,
    *,
    chunk_multiplier: int = 4,
    dtype: "np.typing.DTypeLike" = DEFAULT_DTYPE,
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
