"""Layer tracing for the qsix benchmark, installed from outside the package.

`Tracer.install()` wraps the public functions of each qsix layer at every
binding its callers use: module attributes looked up at call time
(`series` reads `_backend.series_side` on every call), names imported into
other modules (`identities` binds `eval_T` and `truncated_S` by name), and
the runner references held in `cli._SWEEPS`. The kernel twin modules
themselves are left alone: nothing calls them except through `_backend`.

Each wrapped call records one span `[name, start, end, parent, op]` in
memory, where `parent` is the index of the enclosing span (-1 at the top)
and `op` the benchmark op id. Spans are written out once, by `dump()`.
Work counters are read from the values the wrapped functions return, so
the program itself is not changed.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

#: layer name -> module whose public functions form the layer
LAYER_MODULES = {
    "kernels": "qsix._backend",
    "qcore": "qsix.qcore",
    "series": "qsix.series",
    "identities": "qsix.identities",
    "sampler": "qsix.sampler",
    "report": "qsix.report",
    "cli": "qsix.cli",
}

#: `_backend` re-exports the twin's functions, so they are owned there
_KERNEL_TWINS = ("qsix._kernels_py", "qsix._kernels_cy")

#: called once per serialised value; its time stays with build and render
_UNWRAPPED = {"report.to_jsonable"}

#: kernel status codes, in the order of the constants in `_backend`
STATUS_NAMES = ("ok", "terminated", "pole", "budget", "diverged")

#: substrings of `sampler.violations` reasons -> reject bin; first match wins
REJECT_BINS = (
    ("pole margin", "pole_margin"),
    ("decay band", "decay_band"),
    ("arg caps", "arg_cap"),
    ("|a^2 q/(bcde)|", "arg_cap"),
    ("term hump", "hump_cap"),
    ("difference amplifier", "diff_amp"),
    ("modulus_range", "modulus"),
)
REJECT_NAMES = (*dict.fromkeys(name for _, name in REJECT_BINS), "other")


def reject_bin(reason: str) -> str:
    for needle, name in REJECT_BINS:
        if needle in reason:
            return name
    return "other"


def _count_series_side(counts, out):
    counts["kernels.series_side.terms"] += out[2]
    counts["kernels.status." + STATUS_NAMES[out[3]]] += 1


def _count_qpoch_inf(counts, out):
    counts["kernels.qpoch_inf.factors"] += out[2]
    counts["kernels.status." + STATUS_NAMES[out[4]]] += 1


def _count_qpoch(counts, out):
    counts["kernels.status." + STATUS_NAMES[out[1]]] += 1


def _count_violations(counts, out):
    if not out:
        counts["sampler.accepted"] += 1
    for reason in out:
        counts["sampler.reject." + reject_bin(reason)] += 1


def _count_render(counts, out):
    counts["report.bytes"] += len(out.encode())


#: span name -> counter hook called with (counts, return value)
_HOOKS = {
    "kernels.series_side": _count_series_side,
    "kernels.qpoch_inf": _count_qpoch_inf,
    "kernels.qpoch": _count_qpoch,
    "sampler.violations": _count_violations,
    "report.render_sweep": _count_render,
}


def _layer_functions(layer: str, mod) -> dict:
    owners = _KERNEL_TWINS if layer == "kernels" else (mod.__name__,)
    found = {}
    for attr, obj in vars(mod).items():
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) not in owners:
            continue
        name = f"{layer}.{attr}"
        if name not in _UNWRAPPED:
            found[name] = obj
    return found


class Tracer:
    """Spans and counters of one traced run; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._patches = []

    def wrap(self, name: str, fn):
        """`fn` recording a span named `name`; returns what `fn` returns."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        calls = name + ".calls"
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            counts[calls] += 1
            record[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, out)
            return out

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                  self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def install(self) -> "Tracer":
        """Wrap every layer's public functions at each binding of them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, modname in LAYER_MODULES.items():
            mod = importlib.import_module(modname)
            for name, fn in _layer_functions(layer, mod).items():
                wrappers[id(fn)] = (fn, self.wrap(name, fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "qsix" and not modname.startswith("qsix."):
                continue
            if modname in _KERNEL_TWINS:
                continue
            namespace = vars(mod)
            for attr, obj in list(namespace.items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(namespace, attr, hit[1])
        sweeps = sys.modules["qsix.cli"]._SWEEPS
        for identity, (kind, caps, runner) in list(sweeps.items()):
            traced = self.wrap(f"cli.{runner.__name__}", runner)
            self._patch(sweeps, identity, (kind, caps, traced))
        return self

    def _patch(self, container: dict, key, value) -> None:
        self._patches.append((container, key, container[key]))
        container[key] = value

    def uninstall(self) -> None:
        """Put every patched binding back."""
        while self._patches:
            container, key, original = self._patches.pop()
            container[key] = original

    def merge(self, spans, counts) -> None:
        """Adopt spans recorded by a child process under the open span.

        perf_counter reads CLOCK_MONOTONIC on Linux, which every process
        shares, so child timestamps nest inside the parent's spans."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        for name, start, end, up, _ in spans:
            self.spans.append([name, start, end,
                               parent if up < 0 else base + up, self.op])
        self.counts.update(counts)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def self_times(spans) -> Counter:
    """Seconds per span name: each span's duration minus its children's.

    Spans of one process never overlap their siblings, so the time the
    children cover is the sum of their durations."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = Counter()
    for (name, start, end, _, _), child in zip(spans, covered):
        out[name] += end - start - child
    return out


def durations(spans) -> Counter:
    """Seconds per span name, children included."""
    out = Counter()
    for name, start, end, _, _ in spans:
        out[name] += end - start
    return out
