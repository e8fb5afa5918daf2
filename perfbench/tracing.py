"""Spans around the program's layer functions, recorded from outside.

Tracer.install() replaces every public function of the five library layers,
and cli.main, in every ghostmeasure module namespace that holds it, so calls
between modules are caught as well as calls from the benchmark.  Each call
leaves a span (id, name, start, end, parent, info) in memory.  A span opened
on a worker thread of the CLI's thread pool takes the active top-level span
as its parent.  In a memory pass (tracemalloc running) the outermost
build_comb and ghost calls also record their tracemalloc peak.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("sequence", "approximant", "fourier", "ghost", "linrep")

# Work counts taken from a call's arguments or result.
_INFO = {
    "sequence.eval_region": lambda args, result: len(result),
    "approximant.direct_fourier": lambda args, result: len(args[0].weights),
    "fourier.coeff_limit": lambda args, result: (result.depth, result.tail_bound),
    # wiener_profile sums |mu^(n)|^2 for n = 1..2^top.
    "fourier.wiener_profile": lambda args, result: 1 << max(result) if result else 0,
}

SIGMA = frozenset({"sequence.big_sigma", "sequence.sigma_norm", "sequence.sigma_inf"})
MIB = float(1 << 20)


def _peak_tracked(name: str) -> bool:
    return name == "approximant.build_comb" or name.startswith("ghost.")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.peaks: dict[str, int] = {}
        self.memory_pass = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None
        self._peak_lock = threading.Lock()
        self._peak_busy = False
        self._patched: list[tuple] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"ghostmeasure.{layer}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        cli = importlib.import_module("ghostmeasure.cli")
        wrapped[cli.main] = self._wrap("cli.main", cli.main)
        for modname, mod in list(sys.modules.items()):
            if modname != "ghostmeasure" and not modname.startswith("ghostmeasure."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in self._patched:
            setattr(mod, attr, obj)
        self._patched.clear()

    def _wrap(self, name, fn):
        info_of = _INFO.get(name)
        peak_tracked = _peak_tracked(name)
        spans = self.spans
        local = self._local
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else self._root
            sid = next(ids)
            top = parent is None
            if top:
                self._root = sid
            stack.append(sid)
            base = self._claim_peak() if peak_tracked and self.memory_pass else None
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if top:
                    self._root = None
                if base is not None:
                    self._release_peak(name, base)
                info = info_of(args, result) if info_of is not None and result is not None else None
                spans.append((sid, name, start, end, parent, info))

        return traced

    # tracemalloc's peak is process-wide, so only one span owns it at a time;
    # calls that start while another owns it are not measured.
    def _claim_peak(self):
        with self._peak_lock:
            if self._peak_busy:
                return None
            self._peak_busy = True
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            return base

    def _release_peak(self, name: str, base: int) -> None:
        peak = tracemalloc.get_traced_memory()[1] - base
        with self._peak_lock:
            self.peaks[name] = max(self.peaks.get(name, 0), peak)
            self._peak_busy = False

    # -- metrics ------------------------------------------------------

    def memory_metrics(self) -> dict[str, float]:
        ghost = [v for k, v in self.peaks.items() if k.startswith("ghost.")]
        return {
            "approximant.build_comb.peak_mib": self.peaks.get("approximant.build_comb", 0) / MIB,
            "ghost.layer_peak_mib": max(ghost, default=0) / MIB,
        }


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_hi is None or s > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer times and counts of one pass, from its spans.

    A ".s" metric is the time inside the named functions, counting a call
    nested in another call of the same group once; a ".self_s" metric
    subtracts the part of each call that its child spans cover.
    """
    by_id = {s[0]: s for s in spans}
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)
        if s[4] is not None:
            children[s[4]].append((s[2], s[3]))

    def nested_in(s, names) -> bool:
        parent = by_id.get(s[4])
        while parent is not None:
            if parent[1] in names:
                return True
            parent = by_id.get(parent[4])
        return False

    def inclusive(*names) -> float:
        group = frozenset(names)
        return sum(s[3] - s[2] for n in group for s in by_name[n] if not nested_in(s, group))

    def self_time(name) -> float:
        return sum(s[3] - s[2] - _covered(children[s[0]], s[2], s[3]) for s in by_name[name])

    def calls(*names) -> int:
        return sum(len(by_name[n]) for n in names)

    limit = by_name["fourier.coeff_limit"]
    wiener_ids = {s[0] for s in by_name["fourier.wiener_profile"]}
    coeff_evals = sum(1 for s in limit if s[4] in wiener_ids)
    wiener_terms = sum(s[5] or 0 for s in by_name["fourier.wiener_profile"])
    return {
        "sequence.eval_region.s": inclusive("sequence.eval_region"),
        "sequence.region_values": sum(s[5] or 0 for s in by_name["sequence.eval_region"]),
        "sequence.sigma.s": inclusive(*SIGMA),
        "sequence.sigma.calls": calls(*SIGMA),
        "approximant.build_comb.self_s": self_time("approximant.build_comb"),
        "approximant.cdf_series.s": inclusive("approximant.cdf_series"),
        "approximant.interval_mass.s": inclusive("approximant.interval_mass"),
        "approximant.direct_fourier.s": inclusive("approximant.direct_fourier"),
        "approximant.direct_fourier.calls": calls("approximant.direct_fourier"),
        "approximant.direct_fourier.atoms": sum(s[5] or 0 for s in by_name["approximant.direct_fourier"]),
        "fourier.coeff_limit.s": inclusive("fourier.coeff_limit"),
        "fourier.coeff_limit.calls": len(limit),
        "fourier.product_factors": sum(s[5][0] for s in limit if s[5]),
        "fourier.max_tail_bound": max((s[5][1] for s in limit if s[5]), default=0.0),
        "fourier.coeff_recursive.s": inclusive("fourier.coeff_recursive"),
        "fourier.wiener_profile.self_s": self_time("fourier.wiener_profile"),
        "fourier.wiener.coeff_evals": coeff_evals,
        "fourier.wiener.reuse_ratio": wiener_terms / coeff_evals if coeff_evals else 0.0,
        "ghost.density.s": inclusive("ghost.density"),
        "ghost.interval_measure.s": inclusive("ghost.interval_measure"),
        "ghost.ratio_sequence.s": inclusive("ghost.ratio_sequence"),
        "ghost.point_mass.s": inclusive("ghost.point_mass"),
        "ghost.classify.calls": calls("ghost.classify"),
        "linrep.spectral_diagnostic.s": inclusive("linrep.spectral_diagnostic"),
        "linrep.spectral_diagnostic.calls": calls("linrep.spectral_diagnostic"),
        "cli.self_s": self_time("cli.main"),
        "cli.invocations": calls("cli.main"),
    }
