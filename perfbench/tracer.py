"""Per-layer tracing from outside the program.

The tracer wraps the layer functions of ``kappasets`` while it is installed.
Modules bind some of these functions by name at import (``resolvability``
imports ``_thick_profile``, ``cli`` and ``suites`` import ``res_search``,
``enumerate_ball`` and others), so installing replaces the function in every
loaded ``kappasets`` module that holds it, and uninstalling puts the
originals back.

A span times one call. Spans nest; a layer's self time is its spans'
duration minus the time of the wrapped calls made inside them. The hottest
leaf (``words.concat``) is only counted. Extra counters are read at the
call boundary: node counts from returned verdicts, cache hits by looking the
key up in ``classify._caches`` before the call.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager

from kappasets import classify

SPAN = "span"
COUNT = "count"


def _arg(args, kwargs, index: int, name: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _nodes(args, kwargs, result) -> dict:
    return {"nodes": result.nodes}


def _per_side_nodes(args, kwargs, result) -> dict:
    # the two-sided call only forwards its per-side calls' nodes (and drops
    # them when True), so nodes are counted at the per-side calls alone
    if _arg(args, kwargs, 3, "side", "left") == "two-sided":
        return {}
    return {"nodes": result.nodes}


def _cache_hit(kind: str):
    def probe(args, kwargs) -> dict:
        G, amask, side = args[:3]
        key = (side, amask) if kind == "cover" else (side, args[3], amask)
        cache = classify._caches.get(G)
        return {"hits": int(cache is not None and key in cache[kind])}

    return probe


def _entries(args, kwargs, result) -> dict:
    return {"entries": len(result)}


def _ball_words(args, kwargs, result) -> dict:
    return {"words": result.size}


#: (layer, module, attribute, kind, probe before the call, counters after it)
LAYERS = (
    ("groups.build_group", "kappasets.groups", "build_group", SPAN, None, None),
    ("classify.is_large", "kappasets.classify", "is_large", SPAN, None, _nodes),
    ("classify.is_thick", "kappasets.classify", "is_thick", SPAN, None, _nodes),
    ("classify.is_small", "kappasets.classify", "is_small", SPAN, None, _per_side_nodes),
    ("classify.min_cover", "kappasets.classify", "_min_cover", SPAN, _cache_hit("cover"), None),
    ("classify.thick_profile", "kappasets.classify", "_thick_profile", SPAN, _cache_hit("profile"), None),
    ("classify.thick_witness_map", "kappasets.classify", "_thick_witness_map", SPAN, None, _entries),
    ("classify.ball_uncovered_witness", "kappasets.classify", "ball_uncovered_witness", SPAN, None, None),
    ("resolvability.res_search", "kappasets.resolvability", "res_search", SPAN, None, _nodes),
    ("resolvability.partition_search", "kappasets.resolvability", "partition_search", SPAN, None, _nodes),
    ("resolvability.exact_cells", "kappasets.resolvability", "_search_exact_cells", SPAN, None, None),
    ("words.enumerate_ball", "kappasets.words", "enumerate_ball", SPAN, None, _ball_words),
    ("words.enumerate_ds_ball", "kappasets.words", "enumerate_ds_ball", SPAN, None, None),
    ("words.concat", "kappasets.words", "concat", COUNT, None, None),
    ("constructions.verify_on_ball", "kappasets.constructions", "Partition.verify_on_ball", SPAN, None, None),
    ("suites.run_suite", "kappasets.suites", "run_suite", SPAN, None, None),
    ("report.write_report", "kappasets.report", "write_report", SPAN, None, None),
    ("cli.main", "kappasets.cli", "main", SPAN, None, None),
)

#: Extra counters per layer, beside calls (and self_s for spans).
EXTRAS = {
    "classify.is_large": ("nodes",),
    "classify.is_thick": ("nodes",),
    "classify.is_small": ("nodes",),
    "classify.min_cover": ("hit_ratio",),
    "classify.thick_profile": ("hit_ratio",),
    "classify.thick_witness_map": ("entries",),
    "resolvability.res_search": ("nodes",),
    "resolvability.partition_search": ("nodes",),
    "words.enumerate_ball": ("words",),
}

UNITS = {"calls": "count", "self_s": "s", "nodes": "count", "hit_ratio": "ratio",
         "entries": "count", "words": "count"}


def metric_names() -> list[str]:
    """Every per-layer metric the tracer reports, in table order."""
    names = []
    for layer, _, _, kind, _, _ in LAYERS:
        names.append(f"{layer}.calls")
        if kind == SPAN:
            names.append(f"{layer}.self_s")
        names.extend(f"{layer}.{extra}" for extra in EXTRAS.get(layer, ()))
    return names


class Tracer:
    """Aggregated spans and counters of the wrapped layers."""

    def __init__(self):
        self.totals: dict[str, dict[str, float]] = {layer: {} for layer, *_ in LAYERS}
        self._children: list[float] = []

    def _add(self, layer: str, counters: dict) -> None:
        got = self.totals[layer]
        for key, value in counters.items():
            got[key] = got.get(key, 0) + value

    def _span(self, layer: str, fn, before, after):
        children = self._children
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counters = before(args, kwargs) if before else {}
            children.append(0.0)
            done = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                spent = clock() - t0
                inner = children.pop()
                if children:
                    children[-1] += spent
                counters["calls"] = 1
                counters["self_s"] = spent - inner
                if done and after:
                    counters.update(after(args, kwargs, result))
                self._add(layer, counters)
            return result

        return wrapper

    def _count(self, layer: str, fn):
        got = self.totals[layer]
        got.setdefault("calls", 0)

        def wrapper(*args):
            got["calls"] += 1
            return fn(*args)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every layer in every loaded kappasets namespace."""
        patched = []
        try:
            for layer, module, attr, kind, before, after in LAYERS:
                owner = importlib.import_module(module)
                if "." in attr:
                    cls, attr = attr.split(".")
                    owner = getattr(owner, cls)
                    holders = [owner]
                else:
                    holders = [m for name, m in list(sys.modules.items())
                               if m is not None and (name == "kappasets" or name.startswith("kappasets."))]
                original = getattr(owner, attr)
                if kind == SPAN:
                    wrapper = self._span(layer, original, before, after)
                else:
                    wrapper = self._count(layer, original)
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, name, wrapper)
                            patched.append((holder, name, original))
            yield self
        finally:
            for holder, name, original in reversed(patched):
                setattr(holder, name, original)

    def merge(self, totals: dict) -> None:
        for layer, counters in totals.items():
            self._add(layer, counters)

    def metrics(self, cycles: int) -> dict[str, dict]:
        """Per-layer metrics per cycle; hit ratios over all calls."""
        out = {}
        for name in metric_names():
            layer, key = name.rsplit(".", 1)
            got = self.totals[layer]
            calls = got.get("calls", 0)
            if key == "hit_ratio":
                value = got.get("hits", 0) / calls if calls else 0.0
            else:
                value = got.get(key, 0) / cycles
            out[name] = {"value": value, "unit": UNITS[key]}
        return out
