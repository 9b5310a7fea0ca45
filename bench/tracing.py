"""Span tracing of the package's layers from outside the package.

``Tracer.install`` rebinds every public function of the layer modules, in
every ``fbmcqam`` module that binds it (``fbmcqam.simulator.viterbi_decode``,
``fbmcqam.cli.averaged_breakdown``, ...), to a wrapper that records a span
named ``<layer>.<function>``. Functions a module calls on itself through its
globals are caught the same way. ``config`` is validation only and is not
wrapped, so its time stays in the caller's self time. Spans stay in memory;
``uninstall`` restores the original bindings.

Work counts are computed from argument shapes at the span boundary, with the
conventions documented in README.md; they repeat exactly.
"""

from __future__ import annotations

from collections import Counter, defaultdict
import functools
import importlib
import time
import types

import numpy as np

LAYERS = ("core", "fec", "filterbank", "channel", "transceiver", "analytics",
          "simulator", "cli")
ROOT_LAYER = "bench"        # the benchmark's own span around one invocation


def _cols(x) -> int:
    return int(np.prod(np.shape(x)[1:], dtype=np.int64))


def _viterbi(counts, llrs_or_bits, mode="soft"):
    obs = np.shape(llrs_or_bits)
    codewords = obs[0] if len(obs) > 1 else 1
    counts["fec.trellis_steps"] += codewords * (obs[-1] // 2)


def _apply_taps(counts, h, x):
    t, taps = np.shape(x)[0], np.shape(h)[-1]
    counts["channel.tap_mults"] += sum(t - l for l in range(min(taps, t))) * _cols(x)


def _overlap_tail(counts, h, prev, out_len):
    taps = np.shape(h)[-1]
    counts["channel.tap_mults"] += sum(min(l, out_len) for l in range(1, taps)) * _cols(prev)


def _filter(counts, segs, b, counter=None):
    k = np.shape(segs)[0]
    counts["filterbank.mults"] += 2 * k * np.shape(b)[0] * _cols(b)


def _adjoint(counts, segs, r, counter=None):
    k, n = np.shape(segs)
    m = np.shape(r)[0] // n - k + 1
    counts["filterbank.mults"] += 2 * k * m * n * _cols(r)


def _inverse(counts, inv, x, counter=None):
    counts["filterbank.mults"] += 2 * int(np.count_nonzero(inv)) * _cols(x)


def _covariances(counts, segs, m, weights=None, taps=None, inv=None):
    """Nominal real flops of the dense parts: one MN x MN Gram product per
    displacement kind (fd, ibi) and nonzero weight, or per kind for complex
    taps, plus the per-symbol R propagation when ``inv`` is given."""
    n = np.shape(segs)[1]
    mn = m * n
    if taps is not None:
        scale = 4                                   # complex arithmetic
        products = 2 if np.any(np.asarray(taps)[1:] != 0) else 0
    else:
        scale = 1
        products = 2 * int(np.count_nonzero(np.asarray(weights)[1:]))
    flops = products * 2 * mn ** 3
    if inv is not None:
        flops += 2 * m * (2 * m * m * n * n + 2 * m * n * n)
    counts["analytics.dense_flops"] += scale * flops


def _run_chunk(counts, engine, seed, batch, sigma2):
    counts["simulator.chunks"] += 1
    counts["simulator.trials"] += batch


COUNTERS = {
    "fec.viterbi_decode": _viterbi,
    "channel.apply_taps": _apply_taps,
    "channel.overlap_tail": _overlap_tail,
    "filterbank.apply_filter": _filter,
    "filterbank.apply_adjoint": _adjoint,
    "filterbank.apply_inverse": _inverse,
    "analytics.displaced_covariances": _covariances,
    "simulator.run_chunk": _run_chunk,
}


class Tracer:
    """Records spans (id, parent, request, name, start, end) in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.request = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------
    def call(self, name, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, self.request, name, start, end))

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counter(tracer.counts, *args, **kwargs)
            return tracer.call(name, fn, args, kwargs)

        return traced

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        mods = [importlib.import_module(f"fbmcqam.{layer}") for layer in LAYERS]
        wrappers: dict = {}
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__.startswith("fbmcqam.")):
                    layer = obj.__module__.rsplit(".", 1)[1]
                    if layer not in LAYERS:
                        continue
                    if obj not in wrappers:
                        wrappers[obj] = self._wrap(f"{layer}.{obj.__name__}", obj)
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        engine = getattr(importlib.import_module("fbmcqam.simulator"),
                         "_MultiserviceEngine", None)
        if engine is not None and "run_chunk" in vars(engine):
            fn = vars(engine)["run_chunk"]
            self._restore.append((engine, "run_chunk", fn))
            engine.run_chunk = self._wrap("simulator.run_chunk", fn)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def invoke(self, fn, *args):
        """Run one benchmark invocation under a root span of its own."""
        self.request += 1
        return self.call(f"{ROOT_LAYER}.invocation", fn, args, {})

    # -- summaries ---------------------------------------------------------
    def self_times(self) -> dict:
        """Summed self time per span name: duration minus its children's."""
        child = defaultdict(float)
        for _sid, parent, _req, _name, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, _parent, _req, name, start, end in self.spans:
            out[name] += (end - start) - child[sid]
        return dict(out)

    def calls(self) -> Counter:
        return Counter(name for *_rest, name, _s, _e in self.spans)

    def records(self) -> list[dict]:
        return [{"id": sid, "parent": parent, "request": req, "name": name,
                 "start": start, "end": end}
                for sid, parent, req, name, start, end in sorted(self.spans)]
