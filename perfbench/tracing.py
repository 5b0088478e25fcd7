"""Host-time attribution to the program's layers, measured from outside ``src/``.

:class:`LayerTracer` replaces the public functions and public methods of
every module in :data:`LAYER_PREFIXES` with wrappers that keep a span stack
on the process CPU clock: a span's *self* time is its duration minus the
durations of the spans it opened.  A call into the layer already on top of
the stack opens no new span (its time is the caller's self time anyway),
which keeps the overhead to cross-layer calls.  Modules outside the map
(``obs``, ``check``, ``common.timestamps``, ...) are not wrapped: their time
lands in whichever layer called them.

Module-level functions are re-bound everywhere a loaded ``repro`` module
holds them.  ``canonical_encode`` / ``canonical_decode`` are the exception:
only their importers' bindings are replaced, never the encoding module's
own globals, so the encoder's recursive calls stay unwrapped and only calls
from other modules count as (outermost) encoding calls.

:meth:`LayerTracer.restore` puts back every module and class binding and
checks it did.  Bound methods captured while tracing (a server's network
handler, say) stay with the deployment that captured them; it is thrown
away after its trial.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import pkgutil
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

#: Module-name prefix -> layer; the longest matching prefix wins.
LAYER_PREFIXES: Dict[str, str] = {
    "repro.common.encoding": "common.encoding",
    "repro.crypto.group": "crypto.group",
    "repro.crypto.signing": "crypto.signing",
    "repro.crypto.schnorr": "crypto.signing",
    "repro.crypto.keys": "crypto.signing",
    "repro.crypto.cosi": "crypto.cosi",
    "repro.crypto.hashing": "crypto.hashing",
    "repro.crypto.merkle": "crypto.merkle",
    "repro.storage": "storage",
    "repro.txn": "txn",
    "repro.ledger": "ledger",
    "repro.server": "server",
    "repro.client": "client",
    "repro.core.sequencing": "core.sequencing",
    "repro.core.ordserv": "core.sequencing",
    "repro.core": "core",
    "repro.net": "net",
    "repro.sim": "sim",
    "repro.recovery": "recovery",
}

#: Host time spent outside every span (the benchmark's own code).
UNATTRIBUTED = "unattributed"

#: Every row of the self-time table; they sum to the traced CPU total.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(LAYER_PREFIXES.values())) + (UNATTRIBUTED,)

#: ``(module, qualname)`` of counted entry points -> counter name.  Each call
#: counts, nested or not.
COUNTED: Dict[Tuple[str, str], str] = {
    ("repro.crypto.group", "scalar_multiply"): "crypto.group.scalar_mults",
    ("repro.crypto.group", "cached_scalar_multiply"): "crypto.group.scalar_mults",
    ("repro.crypto.group", "double_scalar_multiply"): "crypto.group.scalar_mults",
    ("repro.crypto.group", "generator_multiply"): "crypto.group.scalar_mults",
    ("repro.crypto.signing", "SchnorrSigningScheme.sign_bytes"): "crypto.signing.signs",
    ("repro.crypto.signing", "HashSigningScheme.sign_bytes"): "crypto.signing.signs",
    ("repro.crypto.signing", "SchnorrSigningScheme.verify_bytes"): "crypto.signing.verifies",
    ("repro.crypto.signing", "HashSigningScheme.verify_bytes"): "crypto.signing.verifies",
    ("repro.crypto.cosi", "cosi_verify"): "crypto.cosi.verifies",
}

#: Functions whose defining module keeps its own (recursive) binding.
ENCODERS: Tuple[Tuple[str, str], ...] = (
    ("repro.common.encoding", "canonical_encode"),
    ("repro.common.encoding", "canonical_decode"),
)


def layer_of(module_name: str) -> Optional[str]:
    best = None
    for prefix, layer in LAYER_PREFIXES.items():
        if module_name == prefix or module_name.startswith(prefix + "."):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, layer)
    return best[1] if best else None


def layer_modules() -> List[str]:
    """Import and list every module that belongs to a layer."""
    names = []
    for prefix in LAYER_PREFIXES:
        module = importlib.import_module(prefix)
        names.append(prefix)
        for info in pkgutil.walk_packages(getattr(module, "__path__", []), prefix + "."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
                names.append(info.name)
    return sorted(set(names))


def _public_callables(module):
    """``(owner, name, raw, function)`` of the module's own public functions and methods."""
    for name, value in sorted(vars(module).items()):
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield module, name, value, value
        elif inspect.isclass(value) and not issubclass(value, (BaseException, enum.Enum)):
            for attr, raw in sorted(vars(value).items()):
                if attr.startswith("_"):
                    continue
                function = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                if inspect.isfunction(function):
                    yield value, attr, raw, function


class LayerTracer:
    """Span-stack self-time accounting per layer, plus entry-point counts."""

    def __init__(self) -> None:
        #: Results of the last window (copies taken by :meth:`end`).
        self.self_ns: Dict[str, int] = {}
        self.counts: Counter = Counter()
        self.total_ns = 0
        #: What the wrappers write to.  Bound methods captured while tracing
        #: (network handlers, say) outlive :meth:`restore` and keep writing
        #: here, which is why :meth:`end` copies the results out.
        self._live_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self._live_counts: Counter = Counter()
        #: Open spans as ``[layer, child_ns]``; the bottom frame is never popped.
        self._stack: List[list] = [[UNATTRIBUTED, 0]]
        self._encode_depth = 0
        self._began = 0
        self._patched: List[Tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, function, layer: str, counter: Optional[str]):
        stack, self_ns, counts = self._stack, self._live_ns, self._live_counts
        clock = time.process_time_ns

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            if stack[-1][0] is layer:
                return function(*args, **kwargs)
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_ns[layer] += elapsed - frame[1]
                stack[-1][1] += elapsed

        return wrapper

    def _wrap_encoder(self, function, layer: str):
        """Like :meth:`_wrap`, counting calls and output bytes of outermost calls."""
        inner = self._wrap(function, layer, None)
        tracer, counts = self, self._live_counts
        key = function.__name__

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            outermost = tracer._encode_depth == 0
            tracer._encode_depth += 1
            try:
                result = inner(*args, **kwargs)
            finally:
                tracer._encode_depth -= 1
            if outermost:
                counts[f"common.encoding.{key}.calls"] += 1
                if key == "canonical_encode":
                    counts["common.encoding.bytes"] += len(result)
            return result

        return wrapper

    # -- install / restore ----------------------------------------------------

    def _patch(self, owner, name: str, replacement) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def install(self) -> None:
        """Wrap every layer's public functions and methods."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = layer_modules()
        loaded = [m for n, m in sorted(sys.modules.items()) if n.startswith("repro.") and m]
        try:
            for module_name in modules:
                module = sys.modules[module_name]
                layer = layer_of(module_name)
                for owner, name, raw, function in _public_callables(module):
                    key = (module_name, function.__qualname__)
                    if key in ENCODERS:
                        wrapped = self._wrap_encoder(function, layer)
                    else:
                        wrapped = self._wrap(function, layer, COUNTED.get(key))
                    if owner is module:
                        for holder in loaded:
                            if vars(holder).get(name) is function and (
                                key not in ENCODERS or holder is not module
                            ):
                                self._patch(holder, name, wrapped)
                    else:
                        if isinstance(raw, staticmethod):
                            wrapped = staticmethod(wrapped)
                        elif isinstance(raw, classmethod):
                            wrapped = classmethod(wrapped)
                        self._patch(owner, name, wrapped)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every original back, newest patch first, and check it is back."""
        patched, self._patched = self._patched, []
        for owner, name, original in reversed(patched):
            setattr(owner, name, original)
        stale = [f"{owner!r}.{name}" for owner, name, original in patched
                 if vars(owner).get(name) is not original]
        if stale:
            raise RuntimeError(f"wrappers left in place: {stale[:5]}")

    @property
    def installed(self) -> int:
        """How many bindings are currently wrapped."""
        return len(self._patched)

    # -- the measured window --------------------------------------------------

    def begin(self) -> None:
        """Zero every row and count; spans opened before (set-up) are dropped."""
        if len(self._stack) != 1:
            raise RuntimeError("begin() inside an open span")
        for layer in self._live_ns:
            self._live_ns[layer] = 0
        self._live_counts.clear()
        self._stack[0][1] = 0
        self._began = time.process_time_ns()

    def end(self) -> None:
        """Close the window: ``unattributed`` is the time outside every span."""
        self.total_ns = time.process_time_ns() - self._began
        self.self_ns = dict(self._live_ns, **{UNATTRIBUTED: self.total_ns - self._stack[0][1]})
        self.counts = Counter(self._live_counts)


@contextmanager
def timed_methods(owner, names, sink: Dict[str, float]):
    """Add each method's process-CPU seconds to ``sink[name]`` while inside."""
    originals = {name: vars(owner)[name] for name in names}

    def timed(name, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            start = time.process_time()
            try:
                return function(*args, **kwargs)
            finally:
                sink[name] = sink.get(name, 0.0) + time.process_time() - start

        return wrapper

    try:
        for name, function in originals.items():
            setattr(owner, name, timed(name, function))
        yield
    finally:
        for name, function in originals.items():
            setattr(owner, name, function)
