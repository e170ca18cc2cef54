"""In-memory spans around polyradii's public layer functions.

``install`` replaces each traced function under every name a polyradii
module binds it to, so calls through ``radii.circumradius`` and through the
``circumradius`` that ``cli`` imported are both recorded.  A span is
[name, start, end, parent, cells, not_optimal]; the last two are filled only
for ``lp_solver.solve``.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (layer module, function) pairs; the span name is "<module>.<function>".
TRACED = (
    ("radii", "circumradius"),
    ("radii", "inradius"),
    ("radii", "diameter"),
    ("radii", "min_width"),
    ("radii", "verify_chain"),
    ("lp_solver", "solve"),
    ("functionals", "gauge"),
    ("functionals", "support_values"),
    ("convex_core", "facets_2d"),
    ("convex_core", "interior_slack"),
    ("convex_core", "difference_hull"),
    ("bodies", "make_body"),
)

# Per-layer metric names and the aggregate field each is read from.
LAYER_FIELDS = {
    "radii.circumradius.s": ("radii.circumradius", "s"),
    "radii.inradius.s": ("radii.inradius", "s"),
    "radii.diameter.s": ("radii.diameter", "s"),
    "radii.min_width.s": ("radii.min_width", "s"),
    "radii.verify_chain.self_s": ("radii.verify_chain", "self_s"),
    "lp_solver.solve.calls": ("lp_solver.solve", "calls"),
    "lp_solver.solve.s": ("lp_solver.solve", "s"),
    "lp_solver.solve.cells": ("lp_solver.solve", "cells"),
    "lp_solver.solve.max_cells": ("lp_solver.solve", "max_cells"),
    "lp_solver.solve.not_optimal": ("lp_solver.solve", "not_optimal"),
    "functionals.gauge.calls": ("functionals.gauge", "calls"),
    "functionals.gauge.s": ("functionals.gauge", "s"),
    "functionals.support_values.calls": ("functionals.support_values", "calls"),
    "convex_core.facets_2d.calls": ("convex_core.facets_2d", "calls"),
    "convex_core.facets_2d.s": ("convex_core.facets_2d", "s"),
    "convex_core.interior_slack.calls": ("convex_core.interior_slack", "calls"),
    "convex_core.interior_slack.s": ("convex_core.interior_slack", "s"),
    "convex_core.difference_hull.s": ("convex_core.difference_hull", "s"),
    "bodies.make_body.s": ("bodies.make_body", "s"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        is_solve = name == "lp_solver.solve"

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, 0, 0]
            spans.append(record)
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = time.perf_counter()
            if is_solve:
                lp = args[0] if args else kwargs["lp"]
                record[4] = int(lp.lhs.size)
                record[5] = int(out.status != "optimal")
            return out

        return traced

    def mark(self) -> int:
        """Index of the next span, for slicing the spans of one round."""
        return len(self.spans)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Wrap every TRACED function under each polyradii name bound to it."""
    for module_name, _ in TRACED:
        importlib.import_module(f"polyradii.{module_name}")
    for module_name, fn_name in TRACED:
        original = getattr(sys.modules[f"polyradii.{module_name}"], fn_name)
        wrapper = tracer.wrap(f"{module_name}.{fn_name}", original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "polyradii" and not mod_name.startswith("polyradii."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def _entry() -> dict:
    return {"calls": 0, "s": 0.0, "self_s": 0.0, "cells": 0, "max_cells": 0,
            "not_optimal": 0}


def aggregate(spans: list[list], base: int = 0) -> dict:
    """Per span name: calls, time, self time, LP cells and non-optimal outcomes.

    ``spans`` is a slice of one recording that starts at index ``base`` with
    no span open, so parent indices minus ``base`` point into it.  ``s``
    counts only spans with no ancestor of the same name, so a nested call is
    not counted twice; ``self_s`` is the duration minus the direct children.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent - base] += end - start
    out: dict = {}
    for i, (name, start, end, parent, cells, not_optimal) in enumerate(spans):
        entry = out.setdefault(name, _entry())
        entry["calls"] += 1
        entry["self_s"] += end - start - child_time[i]
        entry["cells"] += cells
        entry["max_cells"] = max(entry["max_cells"], cells)
        entry["not_optimal"] += not_optimal
        ancestor = parent
        while ancestor >= 0 and spans[ancestor - base][0] != name:
            ancestor = spans[ancestor - base][3]
        if ancestor < 0:
            entry["s"] += end - start
    return out


def merge(total: dict, part: dict) -> dict:
    """Add the aggregate ``part`` into ``total`` and return ``total``."""
    for name, entry in part.items():
        into = total.setdefault(name, _entry())
        for key, value in entry.items():
            into[key] = max(into[key], value) if key == "max_cells" else into[key] + value
    return total


def layer_values(agg: dict) -> dict:
    """The LAYER_FIELDS metrics of one aggregate; untouched layers read 0."""
    return {metric: agg.get(name, _entry())[field]
            for metric, (name, field) in LAYER_FIELDS.items()}
