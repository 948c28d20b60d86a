"""Spans around the calls into fbmac's layers, recorded from outside the program.

``Tracer.install`` replaces each traced public function at the name its
caller looks it up by (``fbmac.regions.boundary_scale`` is what
``regions`` calls, ``fbmac.cli.second_order_ray`` what the figure1 nesting
checks call) with a wrapper that records a span: name, start, end, parent
span and thread, plus counts taken from the arguments or the result.  Spans
stay in memory until ``dump`` writes them as JSON lines.  Work that
``fbmac._rng.thread_map`` hands to pool threads gets the map's span as its
parent, so busy time sums over threads and self time subtracts the union of
the children's intervals.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
import tracemalloc
from pathlib import Path

_REGION_FUNCS = {
    "joint_outage_boundary": "regions.joint",
    "iid_gaussian_boundary": "regions.iid",
    "sumshell_hypothetical_boundary": "regions.sumshell",
    "outage_splitting_boundary": "regions.splitting",
    "gallager_boundary": "regions.gallager",
    "tdma_boundary": "regions.tdma",
    "su_outer_box": "regions.outer",
    "conjectured_sum_outer_boundary": "regions.outer",
    "cover_wyner_pentagon": "regions.outer",
}
_DENSITY_FUNCS = ("p2p_density_samples", "mac_density_samples")


def _arg(name):
    """Count taken from the call's argument ``name``."""
    return lambda bound, result: bound.arguments[name]


#: (module, attribute, span name, {count name: counter}, record peak allocation)
TARGETS = (
    [("fbmac.cli", "figure1_bundle", "cli.figure1_bundle", {}, False),
     ("fbmac.cli", "emit_region", "cli.emit_region", {"bytes": lambda b, r: len(r)}, False)]
    + [("fbmac.cli", f, name, {}, False) for f, name in _REGION_FUNCS.items()]
    + [("fbmac.cli", f, "regions.single_ray", {}, False)
       for f in ("second_order_ray", "splitting_ray", "gallager_ray", "tdma_ray")]
    + [("fbmac.regions", f, name, {}, False) for f, name in _REGION_FUNCS.items()]
    + [("fbmac.regions", "boundary_scale", "gaussquad.boundary_scale", {}, False)]
    + [(m, f, "shellmc.density_samples", {"draws": _arg("trials")}, False)
       for m in ("fbmac.shellmc", "fbmac.simlink") for f in _DENSITY_FUNCS]
    + [("fbmac.shellmc", f, f"shellmc.{f}", {}, False)
       for f in ("empirical_outage_p2p", "clt_function_check", "confusion_scaling_check")]
    + [("fbmac.simlink", "simulate_mac", "simlink.simulate_mac", {"trials": _arg("trials")}, False),
       ("fbmac.simlink", "simulate_p2p", "simlink.simulate_p2p", {"trials": _arg("trials")}, False),
       ("fbmac.simlink", "mac_achievability_bound", "simlink.bounds", {}, True),
       ("fbmac.simlink", "p2p_achievability_bound", "simlink.bounds", {}, True)]
)
_POOL_USERS = ("fbmac.regions", "fbmac.shellmc", "fbmac.simlink")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, name, parent, thread, start, end, counts)
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _record(self, name, fn, args, kwargs, counters, peak_alloc, sig):
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        stack.append(sid)
        counts = {}
        if peak_alloc:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if peak_alloc:
                counts["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        if counters:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            counts.update({k: c(bound, result) for k, c in counters.items()})
        self.spans.append((sid, name, parent, threading.get_ident(), start, end, counts))
        return result

    def _wrap(self, fn, name, counters, peak_alloc):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(name, fn, args, kwargs, counters, peak_alloc, sig)

        return traced

    def _wrap_thread_map(self, thread_map):
        tracer = self

        @functools.wraps(thread_map)
        def traced(fn, items):
            seq = list(items)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)

            def child(x):
                own = tracer._stack()
                own.append(sid)
                try:
                    return fn(x)
                finally:
                    own.pop()

            stack.append(sid)
            start = time.perf_counter()
            try:
                return thread_map(child, seq)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, "rng.thread_map", parent, threading.get_ident(), start, end, {"items": len(seq)})
                )

        return traced

    def install(self) -> None:
        import importlib

        for mod_name, attr, name, counters, peak_alloc in TARGETS:
            mod = importlib.import_module(mod_name)
            setattr(mod, attr, self._wrap(getattr(mod, attr), name, counters, peak_alloc))
        for mod_name in _POOL_USERS:
            mod = importlib.import_module(mod_name)
            mod.thread_map = self._wrap_thread_map(mod.thread_map)

    def dump(self, path: Path) -> Path:
        keys = ("id", "name", "parent", "thread", "start", "end", "counts")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
        return path

    # -- per-layer figures ---------------------------------------------------

    def _of(self, name):
        return [s for s in self.spans if s[1] == name]

    def busy_s(self, name) -> float:
        return sum(s[5] - s[4] for s in self._of(name))

    def calls(self, name) -> int:
        return len(self._of(name))

    def count(self, name, key) -> float:
        return sum(s[6].get(key, 0) for s in self._of(name))

    def self_s(self, name) -> float:
        """Span time not covered by any direct child span (union of intervals)."""
        children: dict[int, list] = {}
        for s in self.spans:
            children.setdefault(s[2], []).append((s[4], s[5]))
        total = 0.0
        for sid, _, _, _, start, end, _ in self._of(name):
            covered, reach = 0.0, start
            for a, b in sorted(children.get(sid, ())):
                a, b = max(a, reach), min(b, end)
                if b > a:
                    covered += b - a
                    reach = b
            total += (end - start) - covered
        return total

    def layer_metrics(self, rounds: int) -> dict:
        """Per-round figures of every layer (counts and times divided by ``rounds``)."""

        def rate(num, den):
            return num / den if den > 0 else 0.0

        bs, dens, mac = "gaussquad.boundary_scale", "shellmc.density_samples", "simlink.simulate_mac"
        peak = max((s[6]["peak_alloc_bytes"] for s in self._of("simlink.bounds")), default=0)
        per_round = {
            f"{bs}.calls": self.calls(bs),
            f"{bs}.busy_s": self.busy_s(bs),
            **{f"{k}.busy_s": self.busy_s(k) for k in sorted(set(_REGION_FUNCS.values()))},
            "regions.single_ray.calls": self.calls("regions.single_ray"),
            "regions.single_ray.busy_s": self.busy_s("regions.single_ray"),
            "cli.figure1_bundle.self_s": self.self_s("cli.figure1_bundle"),
            "cli.emit_region.busy_s": self.busy_s("cli.emit_region"),
            "cli.emit_region.bytes": self.count("cli.emit_region", "bytes"),
            f"{dens}.busy_s": self.busy_s(dens),
            **{f"shellmc.{f}.busy_s": self.busy_s(f"shellmc.{f}")
               for f in ("empirical_outage_p2p", "clt_function_check", "confusion_scaling_check")},
            f"{mac}.busy_s": self.busy_s(mac),
            "simlink.simulate_p2p.busy_s": self.busy_s("simlink.simulate_p2p"),
            "simlink.bounds.self_s": self.self_s("simlink.bounds"),
            "rng.thread_map.calls": self.calls("rng.thread_map"),
            "rng.thread_map.items": self.count("rng.thread_map", "items"),
        }
        out = {k: v / rounds for k, v in per_round.items()}
        out[f"{bs}.ms_per_call"] = 1e3 * rate(self.busy_s(bs), self.calls(bs))
        out[f"{dens}.draws_per_s"] = rate(self.count(dens, "draws"), self.busy_s(dens))
        out[f"{mac}.trials_per_s"] = rate(self.count(mac, "trials"), self.busy_s(mac))
        out["simlink.bounds.peak_alloc_mb"] = peak / 2**20
        return out
