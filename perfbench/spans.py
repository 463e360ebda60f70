"""Span tracing of substrum's public functions, from outside the package.

`Tracer.install` wraps each named function of every loaded ``substrum.*``
module and rebinds the wrapper wherever a loaded substrum module holds the
original (``from .eigen import eigenvalues`` copies the name), so spans
follow whatever the program actually calls and the source is untouched.
A span records name, start, end and parent; a function's self time is its
span's duration minus the time covered by its child spans.  A name the
program no longer defines is reported as absent.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _next_pow2(n: int) -> int:
    return 1 << max(0, int(n) - 1).bit_length()


def _pair_counts_model(args, kwargs, result) -> dict:
    """Computed cost of the FFT lag-count kernel for pair_counts(u, L, K, m).

    m + m rffts and m*m irffts of length M (2.5 M log2 M flops each), and
    m*m spectrum products (6 flops per complex entry).  Bytes count each
    transform reading and writing its arrays once (16 M bytes) and each
    product reading two spectra and writing one (24 M bytes).
    """
    _, L, K, m = args[:4]
    M = _next_pow2(L + K)
    ffts = 2 * m + m * m
    return {
        "fft_len_computed": M,
        "flops_computed": ffts * 2.5 * M * M.bit_length() + 6 * m * m * (M // 2 + 1),
        "bytes_computed": ffts * 16 * M + m * m * 24 * M,
    }


# extra per-call quantities, keyed by traced name
SIZES = {
    "core.fixed_point_prefix": lambda args, kwargs, result: {"symbols": len(result)},
    "_kernels.pair_counts": _pair_counts_model,
}


class Tracer:
    def __init__(self, targets):
        self.targets = list(targets)  # "module.function", module under substrum
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.sizes: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        size = SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
            if size is not None:
                for key, value in size(args, kwargs, result).items():
                    self.sizes[f"{name}.{key}"] += value
            return result

        return wrapper

    def install(self) -> None:
        loaded = [m for n, m in list(sys.modules.items()) if n == "substrum" or n.startswith("substrum.")]
        for name in self.targets:
            modname, fname = name.rsplit(".", 1)
            original = getattr(sys.modules.get(f"substrum.{modname}"), fname, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in loaded:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def summary(self) -> dict:
        """{"self_s": {name: s}, "calls": {name: n}, "sizes": {...}, "absent": [...]}."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s, calls = defaultdict(float), defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child_time[i]
            calls[name] += 1
        return {"self_s": dict(self_s), "calls": dict(calls), "sizes": dict(self.sizes), "absent": list(self.absent)}


def merge(total: dict, part: dict) -> None:
    """Add one summary into another (for spans collected in CLI children)."""
    for key in ("self_s", "calls", "sizes"):
        for name, value in part[key].items():
            total[key][name] = total[key].get(name, 0) + value
    total["absent"] = sorted(set(total["absent"]) | set(part["absent"]))
