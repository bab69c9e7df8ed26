"""Per-layer tracing, installed from outside the program.

install() wraps public functions of each mobikit module in spans, and the
carriers' draw and elements methods in counters.  It replaces every
reference to a wrapped function across the loaded mobikit modules, so
calls through `from .x import f` names are seen too.  Spans are kept in
memory; Tracer.dump writes them out at the end of the run.

Per-element helpers (eval_p, complement, product, oplus, circ, eq,
try_subtract, the render_* helpers) run inside every law evaluation.
Wrapping them would multiply the traced run's cost, so they stay
unwrapped and their time is part of the calling law's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
from collections import Counter
from time import perf_counter

# Layer-boundary functions, by module.
SPANS = {
    "cli": ("run_cli",),
    "catalog": ("build", "default_origin", "get_entry", "coerce_params",
                "list_catalog"),
    "dsl": ("parse", "parse_value", "elaborate", "load"),
    "report": ("check_equation", "check_predicate", "check_implication",
               "assignments_for", "reports_to_json", "report_to_text"),
    "carriers": ("sample", "enumerate_elements"),
    "algebra": ("check_algebra", "check_properties",
                "check_commutativity_condition", "check_algebra_morphism",
                "solve_two", "ring_from_algebra", "algebra_from_ring"),
    "space": ("check_space", "check_affine", "check_y_properties",
              "check_space_morphism", "transport_space", "trace_geodesic"),
    "ringmod": ("check_ring", "check_module", "check_ring_commutativity"),
    "functors": ("space_to_module", "module_to_space", "roundtrip_module",
                 "roundtrip_space", "transport_morphism", "origin_scan"),
    "search": ("search_finite",),
}

LAW_CHECKS = ("report.check_equation", "report.check_predicate",
              "report.check_implication")
ALGEBRA_CHECKS = ("algebra.check_algebra", "algebra.check_properties",
                  "algebra.check_commutativity_condition",
                  "algebra.check_algebra_morphism")
SPACE_CHECKS = ("space.check_space", "space.check_affine",
                "space.check_y_properties", "space.check_space_morphism")
RINGMOD_CHECKS = ("ringmod.check_ring", "ringmod.check_module",
                  "ringmod.check_ring_commutativity")
CONVERSIONS = ("functors.space_to_module", "functors.module_to_space")
ROUNDTRIPS = ("functors.roundtrip_module", "functors.roundtrip_space")

# name: (unit, better)
PER_LAYER = {
    "carriers.sample_s": ("s", "lower"),
    "carriers.draws_per_s": ("1/s", "higher"),
    "carriers.restricted.accept_ratio": ("ratio", "higher"),
    "carriers.materialised": ("count", "lower"),
    "report.law_s": ("s", "lower"),
    "report.laws": ("count", "higher"),
    "report.evals_per_s": ("1/s", "higher"),
    "report.render_s": ("s", "lower"),
    "algebra.check_s": ("s", "lower"),
    "space.check_s": ("s", "lower"),
    "ringmod.check_s": ("s", "lower"),
    "algebra.solve_two_s": ("s", "lower"),
    "functors.convert_s": ("s", "lower"),
    "functors.roundtrip_s": ("s", "lower"),
    "catalog.build_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "dsl.parse_s": ("s", "lower"),
    "dsl.elaborate_s": ("s", "lower"),
    "dsl.interp_over_closure": ("ratio", "lower"),
    "search.s": ("s", "lower"),
    "search.calls": ("count", "higher"),
    "search.models": ("count", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class Tracer:
    """Spans are [name, start, end, parent index, op index] lists."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op = -1
        self.restricted_bases = []  # base carriers of active Restricted.draw
        self.sampling = 0           # active carriers.sample calls
        self.in_elements = False
        self.evals = Counter()      # op index -> assignments of passing laws
        self._restore = []

    # -- spans

    def _wrap(self, name, fn, on_exit=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                   self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if on_exit is not None:
                on_exit(args, kwargs, result)
            return result

        return wrapper

    def _wrap_sample(self, fn):
        inner = self._wrap("carriers.sample", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.sampling += 1
            try:
                result = inner(*args, **kwargs)
            finally:
                self.sampling -= 1
            self.counts["sample.assignments"] += len(result)
            return result

        return wrapper

    def _law_evals(self, fn):
        from mobikit.report import Exhaustive
        sig = inspect.signature(fn)

        def on_exit(args, kwargs, report):
            if not report.passed:
                return
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            slots, strategy = a["slots"], a["strategy"]
            if not slots:
                n = 1
            elif isinstance(strategy, Exhaustive):
                n = math.prod(len(c.elements()) for c in slots)
            else:
                n = strategy.samples
                if a.get("construct") is not None:
                    n *= 2
            self.evals[self.op] += n + len(a.get("probes", ()))

        return on_exit

    # -- counters on carrier methods

    def _patch_carriers(self, carriers):
        for cls in vars(carriers).values():
            if not (isinstance(cls, type) and issubclass(cls, carriers.Carrier)):
                continue
            if "draw" in vars(cls) and cls is not carriers.Carrier:
                draw = vars(cls)["draw"]
                if cls is carriers.Restricted:
                    draw = self._count_accepted(draw)
                self._set(cls, "draw", self._count_base_draw(draw))
            if "elements" in vars(cls) and cls is not carriers.Carrier:
                self._set(cls, "elements",
                          self._count_elements(vars(cls)["elements"]))

    def _count_accepted(self, fn):
        """Restricted.draw: its base's draws count as base draws."""
        tracer = self

        def draw(carrier, rng):
            tracer.restricted_bases.append(carrier.base)
            try:
                x = fn(carrier, rng)
            finally:
                tracer.restricted_bases.pop()
            tracer.counts["restricted.accepted"] += 1
            return x

        return draw

    def _count_base_draw(self, fn):
        tracer = self

        def draw(carrier, rng):
            bases = tracer.restricted_bases
            if bases and bases[-1] is carrier:
                tracer.counts["restricted.base_draws"] += 1
            return fn(carrier, rng)

        return draw

    def _count_elements(self, fn):
        tracer = self

        def elements(carrier):
            if tracer.in_elements:
                return fn(carrier)
            tracer.in_elements = True
            try:
                out = fn(carrier)
            finally:
                tracer.in_elements = False
            if tracer.sampling:
                tracer.counts["materialised"] += len(out)
            return out

        return elements

    # -- install / uninstall

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        mods = {name: importlib.import_module(f"mobikit.{name}") for name in SPANS}
        loaded = [m for n, m in sys.modules.items()
                  if n == "mobikit" or n.startswith("mobikit.")]
        for modname, fnames in SPANS.items():
            for fname in fnames:
                orig = getattr(mods[modname], fname)
                name = f"{modname}.{fname}"
                if name == "carriers.sample":
                    wrapped = self._wrap_sample(orig)
                elif name in LAW_CHECKS:
                    wrapped = self._wrap(name, orig, self._law_evals(orig))
                elif name == "search.search_finite":
                    wrapped = self._wrap(name, orig, self._count_models)
                else:
                    wrapped = self._wrap(name, orig)
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._set(mod, attr, wrapped)
        self._patch_carriers(mods["carriers"])

    def _count_models(self, args, kwargs, models):
        self.counts["search.calls"] += 1
        self.counts["search.models"] += len(models)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- analysis

    def outer_time(self, names, ops, within=None) -> float:
        """Time in spans of the given ops named `names` that have no
        ancestor in `within` (default: `names`)."""
        within = set(names if within is None else within)
        names = set(names)
        total = 0.0
        for rec in self.spans:
            if rec[0] not in names or rec[4] not in ops:
                continue
            parent = rec[3]
            while parent >= 0 and self.spans[parent][0] not in within:
                parent = self.spans[parent][3]
            if parent < 0:
                total += rec[2] - rec[1]
        return total

    def self_time(self, names, ops) -> float:
        """Duration minus the time its direct child spans cover.  One
        thread runs everything, so children never overlap."""
        names = set(names)
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        return sum(rec[2] - rec[1] - child[i]
                   for i, rec in enumerate(self.spans)
                   if rec[0] in names and rec[4] in ops)

    def law_s(self, ops) -> float:
        """Self time of the law checks, which excludes sampling."""
        return self.self_time(LAW_CHECKS, ops)

    def per_layer(self, ops, counts, interp_over_closure: float,
                  overhead_ratio: float) -> dict:
        """Per-layer metrics over the given ops, with the counter values
        they reached.  A layer the workload never reaches reads 0."""
        c = counts
        sample_s = self.outer_time(["carriers.sample"], ops)
        law_s = self.law_s(ops)
        evals = sum(n for op, n in self.evals.items() if op in ops)
        functors = [f"functors.{f}" for f in SPANS["functors"]]
        values = {
            "carriers.sample_s": sample_s,
            "carriers.draws_per_s":
                c["sample.assignments"] / sample_s if sample_s else 0.0,
            "carriers.restricted.accept_ratio":
                c["restricted.accepted"] / c["restricted.base_draws"]
                if c["restricted.base_draws"] else 0.0,
            "carriers.materialised": c["materialised"],
            "report.law_s": law_s,
            "report.laws": sum(1 for rec in self.spans
                               if rec[0] in LAW_CHECKS and rec[4] in ops),
            "report.evals_per_s": evals / law_s if law_s else 0.0,
            "report.render_s": self.outer_time(
                ["report.reports_to_json", "report.report_to_text"], ops),
            "algebra.check_s": self.outer_time(ALGEBRA_CHECKS, ops),
            "space.check_s": self.outer_time(SPACE_CHECKS, ops),
            "ringmod.check_s": self.outer_time(RINGMOD_CHECKS, ops),
            "algebra.solve_two_s": self.outer_time(["algebra.solve_two"], ops),
            "functors.convert_s":
                self.outer_time(CONVERSIONS, ops, within=functors),
            "functors.roundtrip_s": self.outer_time(ROUNDTRIPS, ops),
            "catalog.build_s": self.outer_time(["catalog.build"], ops),
            "cli.self_s": self.self_time(["cli.run_cli"], ops),
            "dsl.parse_s":
                self.outer_time(["dsl.parse", "dsl.parse_value"], ops),
            "dsl.elaborate_s": self.outer_time(["dsl.elaborate"], ops),
            "dsl.interp_over_closure": interp_over_closure,
            "search.s": self.outer_time(["search.search_finite"], ops),
            "search.calls": c["search.calls"],
            "search.models": c["search.models"],
            "trace.overhead_ratio": overhead_ratio,
        }
        return {name: {"value": values[name], "unit": unit}
                for name, (unit, _) in PER_LAYER.items()}

    def dump(self, path, ops: list):
        payload = {"ops": ops, "counts": dict(self.counts),
                   "fields": ["name", "start", "end", "parent", "op"],
                   "spans": self.spans}
        path.write_text(json.dumps(payload), encoding="utf-8")
