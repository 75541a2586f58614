"""Outside-in tracer: times calls into awplan's public functions from the
benchmark's side, without changing any file of the package.

``install`` replaces each target function at every place that binds it: the
module attribute of every loaded ``awplan`` module that refers to the same
function object, or the class attribute for a method. ``uninstall`` puts the
originals back. Nested calls give a span tree, so each layer gets its self
time: its span minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute path) for every layer the benchmark times
TARGETS = (
    ("topology.parse_topology", "awplan.topology", "parse_topology"),
    ("topology.aggregate_path", "awplan.topology", "aggregate_path"),
    ("spectrum.grid_from_dict", "awplan.spectrum", "SpectrumGrid.from_dict"),
    ("spectrum.first_fit_allocate", "awplan.spectrum", "first_fit_allocate"),
    ("spectrum.occupant_map", "awplan.spectrum", "SpectrumGrid.occupant_map"),
    ("spectrum.place_native", "awplan.spectrum", "place_native"),
    ("spectrum.place_superchannel", "awplan.spectrum", "place_superchannel"),
    ("spectrum.neighbor_context", "awplan.spectrum", "neighbor_context"),
    ("perfmodel.calibrate", "awplan.perfmodel", "calibrate"),
    ("perfmodel.estimate_q", "awplan.perfmodel", "estimate_q"),
    ("planner.plan_link", "awplan.planner", "plan_link"),
    ("planner.grid_context_for", "awplan.planner", "grid_context_for"),
    ("planner.enumerate_options", "awplan.planner", "enumerate_options"),
    ("planner.apply_plan", "awplan.planner", "apply_plan"),
    ("planner.validate_plan", "awplan.planner", "validate_plan"),
    ("adaptation.compute_voa_settings", "awplan.adaptation", "compute_voa_settings"),
    ("adaptation.equalization_report", "awplan.adaptation", "equalization_report"),
    ("iofmt.canonical_json", "awplan.iofmt", "canonical_json"),
    ("iofmt.parse_json", "awplan.iofmt", "parse_json"),
    ("iofmt.round_trip", "awplan.iofmt", "round_trip"),
)


class Tracer:
    """Span recorder. Spans stay in memory (up to ``max_spans``; the totals
    always cover every call) and are written by ``write_spans``."""

    def __init__(self, max_spans: int = 50_000) -> None:
        self.max_spans = max_spans
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.total_under: dict[tuple[str, str], float] = defaultdict(float)  # (parent, child) -> child time
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id: int | None = None
        self._stack: list[list] = []  # [name, start, child seconds, span id]
        self._active: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self.binding_sites: list[str] = []  # every attribute install replaced

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        stack = self._stack
        active = self._active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [name, clock(), 0.0, span_id]
            stack.append(frame)
            active[name] += 1
            result = error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                error = err
                raise
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                duration = end - frame[1]
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                if not active[name]:  # count recursion once in the inclusive total
                    self.total_s[name] += duration
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                    self.total_under[(parent[0], name)] += duration
                if len(self.spans) < self.max_spans:
                    self.spans.append(
                        (name, frame[1], end, parent[3] if parent else None, span_id, self.op_id)
                    )
                else:
                    self.dropped += 1
                if after is not None:
                    after(self, args, result, error)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def inside(self, name: str) -> bool:
        return self._active[name] > 0

    # -- installation -------------------------------------------------------

    def install(self, hooks: dict | None = None, callers: tuple = ()) -> None:
        """Wrap every target at every binding site: in each loaded awplan
        module and in the *callers* modules, which import from awplan.

        ``hooks`` maps a target name to ``after(tracer, args, result,
        error)``, called when each call ends, to derive counters."""
        hooks = hooks or {}
        modules = [m for n, m in sorted(sys.modules.items()) if n == "awplan" or n.startswith("awplan.")]
        modules += list(callers)
        for name, module_name, attr in TARGETS:
            owner_name, _, leaf = attr.rpartition(".")
            module = sys.modules[module_name]
            if owner_name:  # a method or classmethod: one binding, on the class
                cls = getattr(module, owner_name)
                raw = cls.__dict__[leaf]
                if isinstance(raw, classmethod):
                    replacement = classmethod(self._wrap(name, raw.__func__, hooks.get(name)))
                else:
                    replacement = self._wrap(name, raw, hooks.get(name))
                self._patch(cls, leaf, raw, replacement)
                continue
            original = getattr(module, leaf)
            wrapper = self._wrap(name, original, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key: str, original, replacement) -> None:
        setattr(owner, key, replacement)
        self._patches.append((owner, key, original))
        self.binding_sites.append(f"{getattr(owner, '__name__', owner)}.{key}")

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, span_id, op in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "span": span_id, "op": op}
                    )
                    + "\n"
                )
            if self.dropped:
                out.write(json.dumps({"dropped_spans": self.dropped}) + "\n")
