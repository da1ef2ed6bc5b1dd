"""Per-layer spans recorded around the program's public calls, from outside.

A :class:`LayerTracer` replaces each function in :data:`TARGETS` with a
timing wrapper under *every* name it is looked up by: the home module,
every ``repro`` module that imported it by name (``from .engine import
iaf_distances``), and the class for methods.  Modules imported later
are patched as they load, through a meta-path hook, so the wrappers
also reach processes the program starts itself (the ring's shards):
``sitecustomize.py`` beside this file activates a tracer when
``PERFBENCH_TRACE_DIR`` is set.

Spans stay in memory as ``[label, start, end, depth, tid, rid, attrs]``
lists (``time.monotonic`` seconds, the clock ``CurveService`` stamps
requests with; system-wide on Linux, so spans of different processes
share one time line).  Each process writes its spans to
``$PERFBENCH_TRACE_DIR/spans-<pid>.json`` when it exits, including on
SIGTERM.  :meth:`LayerTracer.uninstall` puts every original function
object back.
"""

from __future__ import annotations

import atexit
import functools
import importlib.abc
import importlib.machinery
import inspect
import json
import os
import signal
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

now = time.monotonic

#: ``(module, attribute path, span label, post-hook kind)``.  A label of
#: ``None`` records no span; the hook only counts into the enclosing span.
TARGETS: Tuple[Tuple[str, str, Optional[str], Optional[str]], ...] = (
    ("repro.service.frames", "read_frame_header", "wire.decode", "header"),
    ("repro.service.frames", "read_payload_into", "wire.decode", None),
    ("repro.service.frames", "write_frame", "wire.encode", "write"),
    ("repro.service.frames", "encode_frame", "wire.encode", None),
    ("repro.service.server", "_result_payload", "wire.encode", None),
    ("repro.service.curve_service", "CurveService.submit", "server",
     "submit"),
    ("repro.service.curve_service", "CurveService.submit_work", "server",
     "submit"),
    ("repro.service.curve_service", "CurveService._run_batch",
     "service.busy", "unit"),
    ("repro.service.curve_service", "CurveService._run_single",
     "service.busy", "unit"),
    ("repro.service.curve_service", "CurveService._run_work",
     "service.busy", "unit"),
    ("repro.tenants.service", "TenantService._drain", "tenants.push",
     "drain"),
    ("repro.tenants.registry", "TenantRegistry.push", "tenants.push", None),
    ("repro.tenants.registry", "TenantRegistry.curve", "tenants.curve",
     None),
    ("repro.core.chunked", "ChunkedIAF.push", "chunked.solve", "size1"),
    ("repro.core.chunked", "ChunkedIAF.preview", "chunked.preview", None),
    ("repro.core.prevnext", "last_access_carryover", "chunked.carry",
     "size2"),
    ("repro.core.api", "solve", "api.solve", "size0"),
    ("repro.core.api", "solve_batch", "api.solve_batch", "sizes0"),
    ("repro.core.engine", "iaf_distances", "engine.other", "size0"),
    ("repro.core.engine", "iaf_distances_batch", "engine.other", "sizes0"),
    ("repro.core.engine", "solve_prepost_arrays", "engine.levelloop",
     "levelloop"),
    ("repro.core.engine", "_partition_level", None, "level"),
    ("repro.core.engine", "_partition_level_fused", None, "level"),
    ("repro.core.engine", "_partition_level_compiled", None, "level"),
    ("repro.core.ops", "prepost_sequence_arrays", "ops", None),
    ("repro.core.prevnext", "prev_next_arrays", "prevnext", "size0"),
    ("repro.core.hitrate", "curve_from_backward_distances", "hitrate",
     None),
    ("repro.core.hitrate", "curve_from_forward_distances", "hitrate", None),
    ("repro.core.hitrate", "merge_curves", "hitrate", None),
    ("repro.cluster.frontend", "ClusterFrontend._route", "ring.frontend",
     "route"),
    ("repro.cluster.frontend", "ClusterFrontend._forward_once",
     "ring.frontend", "forward"),
)


def _is_repro(name: str) -> bool:
    return name == "repro" or name.startswith("repro.")


class LayerTracer:
    """Wrap :data:`TARGETS` in one process and keep their spans.

    ``role`` names the process's hop on the request path (``loadgen``,
    ``frontend`` or ``server``); the analysis ranks spans by it.
    """

    def __init__(self, role: str) -> None:
        self.role = role
        self.spans: List[list] = []
        #: Timestamped counts that belong to no span: ``(name, t, value)``.
        self.events: List[Tuple[str, float, float]] = []
        self._local = threading.local()
        #: id(original) -> (original, wrapper)
        self._wrapped: Dict[int, Tuple[Callable, Callable]] = {}
        #: Every assignment made: (owner object, attribute, original).
        self._patched: List[Tuple[Any, str, Callable]] = []
        self._resolved: set = set()
        self._finder: Optional[_PatchingFinder] = None
        self._lock = threading.RLock()

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, label: str, start: float, end: float,
               rid: Optional[str] = None, depth: int = 0,
               attrs: Optional[Dict[str, Any]] = None) -> None:
        """Add a span measured by the caller (the load generator's ops)."""
        self.spans.append([label, start, end, depth, threading.get_ident(),
                           rid, attrs])

    def event(self, name: str, value: float = 1.0) -> None:
        self.events.append((name, now(), value))

    def dump(self, path: str) -> None:
        # Copy first: daemon threads may still append while this runs.
        text = json.dumps({"pid": os.getpid(), "role": self.role,
                           "spans": list(self.spans),
                           "events": list(self.events)})
        with open(path, "w") as fh:
            fh.write(text)

    # -- wrappers ------------------------------------------------------

    def _make_wrapper(self, orig: Callable, label: Optional[str],
                      kind: Optional[str]) -> Callable:
        tracer = self
        if inspect.iscoroutinefunction(orig):
            @functools.wraps(orig)
            async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
                span = [label, now(), 0.0, 0, threading.get_ident(),
                        None, None]
                result = None
                try:
                    result = await orig(*args, **kwargs)
                    return result
                finally:
                    span[2] = now()
                    tracer._post(kind, span, args, result)
                    tracer.spans.append(span)
            return async_wrapper

        if label is None:
            @functools.wraps(orig)
            def count_wrapper(*args: Any, **kwargs: Any) -> Any:
                result = orig(*args, **kwargs)
                stack = tracer._stack()
                if stack:
                    tracer._post(kind, stack[-1], args, result)
                return result
            return count_wrapper

        @functools.wraps(orig)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if kind == "header":
                # The server's reader blocks here until the next request
                # arrives; start the span once bytes are waiting, so idle
                # time is not counted as decoding.
                peek = getattr(args[0], "peek", None)
                if peek is not None:
                    peek(1)
            stack = tracer._stack()
            span = [label, now(), 0.0, len(stack), threading.get_ident(),
                    None, None]
            stack.append(span)
            result = None
            error: Optional[BaseException] = None
            try:
                result = orig(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span[2] = now()
                stack.pop()
                tracer._post(kind, span, args, result, error)
                tracer.spans.append(span)
        return wrapper

    def _post(self, kind: Optional[str], span: list, args: tuple,
              result: Any, error: Optional[BaseException] = None) -> None:
        """Attach the counts a span's call carries (request id, sizes)."""
        if kind is None:
            return
        attrs = span[6]
        if attrs is None:
            attrs = span[6] = {}
        if kind == "header":
            if result is not None:
                rid = result[2].get("id")
                span[5] = rid if isinstance(rid, str) else None
        elif kind == "write":
            rid = args[2].get("id") if isinstance(args[2], dict) else None
            span[5] = rid if isinstance(rid, str) else None
        elif kind == "submit":
            if error is not None and type(error).__name__ == \
                    "ServiceOverloadedError":
                attrs["rejected"] = 1
        elif kind == "unit":
            reqs = args[1] if isinstance(args[1], list) else [args[1]]
            attrs["waits"] = sum(span[1] - r.submitted_at for r in reqs)
            attrs["requests"] = len(reqs)
            attrs["work"] = int(reqs[0].work is not None)
        elif kind == "drain":
            attrs["drained"] = int(result or 0)
        elif kind == "size0":
            attrs["n"] = int(getattr(args[0], "size", len(args[0])))
        elif kind == "size1":
            attrs["n"] = int(getattr(args[1], "size", len(args[1])))
        elif kind == "size2":
            attrs["n"] = int(args[2].size)
        elif kind == "sizes0":
            attrs["n"] = int(sum(getattr(t, "size", len(t))
                                 for t in args[0]))
        elif kind == "levelloop":
            attrs["levels"] = attrs.get("levels", 0) + 1
            attrs["ops"] = attrs.get("ops", 0) + int(args[0].n_ops)
        elif kind == "level":
            attrs["levels"] = attrs.get("levels", 0) + 1
            attrs["ops"] = attrs.get("ops", 0) + int(result.n_ops)
        elif kind == "route":
            header = args[1] if len(args) > 1 else {}
            rid = header.get("id") if isinstance(header, dict) else None
            span[5] = rid if isinstance(rid, str) else None
            if isinstance(result, dict) and result.get("rerouted"):
                attrs["rerouted"] = 1
        elif kind == "forward":
            attrs["forwards"] = 1

    # -- patching ------------------------------------------------------

    def _resolve(self) -> None:
        """Create wrappers for every target whose module is loaded."""
        for module_name, path, label, kind in TARGETS:
            key = (module_name, path)
            module = sys.modules.get(module_name)
            if key in self._resolved or module is None:
                continue
            owner: Any = module
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            orig = getattr(owner, parts[-1], None) if owner else None
            if orig is None:
                continue  # not defined at this commit
            self._resolved.add(key)
            wrapper = self._make_wrapper(orig, label, kind)
            self._wrapped[id(orig)] = (orig, wrapper)
            if len(parts) > 1:
                setattr(owner, parts[-1], wrapper)
                self._patched.append((owner, parts[-1], orig))

    def sweep(self) -> None:
        """Point every loaded ``repro`` name at its wrapper."""
        with self._lock:
            self._resolve()
            for name, module in list(sys.modules.items()):
                if module is None or not _is_repro(name):
                    continue
                for attr, value in list(vars(module).items()):
                    hit = self._wrapped.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(module, attr, hit[1])
                        self._patched.append((module, attr, value))

    def install(self) -> None:
        """Patch what is loaded now and whatever ``repro`` loads later."""
        self._finder = _PatchingFinder(self)
        sys.meta_path.insert(0, self._finder)
        self.sweep()

    def uninstall(self) -> None:
        """Restore every patched name to its original function object."""
        with self._lock:
            if self._finder is not None and self._finder in sys.meta_path:
                sys.meta_path.remove(self._finder)
            self._finder = None
            for owner, attr, orig in reversed(self._patched):
                setattr(owner, attr, orig)
            self._patched.clear()
            self._wrapped.clear()
            self._resolved.clear()


class _PatchingLoader(importlib.abc.Loader):
    """Delegate to the real loader, then sweep the new module's names."""

    def __init__(self, inner: Any, tracer: LayerTracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def create_module(self, spec: Any) -> Any:
        return self._inner.create_module(spec)

    def exec_module(self, module: Any) -> None:
        self._inner.exec_module(module)
        self._tracer.sweep()

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)


class _PatchingFinder(importlib.abc.MetaPathFinder):
    def __init__(self, tracer: LayerTracer) -> None:
        self._tracer = tracer

    def find_spec(self, fullname: str, path: Any = None,
                  target: Any = None) -> Any:
        if not _is_repro(fullname):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is not None and spec.loader is not None:
            spec.loader = _PatchingLoader(spec.loader, self._tracer)
        return spec


def activate_from_env() -> Optional[LayerTracer]:
    """Start tracing this process if ``PERFBENCH_TRACE_DIR`` is set.

    The role comes from the command line: ``serve --cluster`` is the
    ring's frontend, every other process serves requests.
    """
    out_dir = os.environ.get("PERFBENCH_TRACE_DIR")
    if not out_dir:
        return None
    role = "frontend" if "--cluster" in sys.argv else "server"
    tracer = LayerTracer(role)
    tracer.install()
    path = os.path.join(out_dir, f"spans-{os.getpid()}.json")
    written = []

    def write() -> None:
        if not written:
            written.append(True)
            tracer.dump(path)

    def on_term(signum: int, frame: Any) -> None:
        write()
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGTERM)

    atexit.register(write)
    signal.signal(signal.SIGTERM, on_term)
    return tracer
