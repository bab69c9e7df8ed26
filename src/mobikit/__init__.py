"""Checkable interpolation algebras, the spaces they act on, and the
module correspondence, with a small definition language, a catalog of
worked instances, and a finite-model searcher.

Importing the package loads none of its modules: a public name loads its
module on first access (PEP 562), so a `mobi` command compiles only the
modules it runs."""

import importlib

__version__ = "0.1.0"

# each public name's module; `python -m mobikit.cli` must not find the CLI
# already imported by the package, so it loads on first use like the rest
_MODULES = {
    "algebra": ("AmbiguousTwoError", "MobiAlgebra", "NoHalfError", "TwoResult",
                "algebra_from_ring", "check_algebra", "check_algebra_morphism",
                "check_commutativity_condition", "check_properties", "circ",
                "complement", "oplus", "product", "ring_from_algebra",
                "solve_two"),
    "carriers": ("Carrier", "CarrierError", "Float64", "GaussianRational",
                 "MembershipError", "ModularInt", "NotEnumerableError",
                 "Product", "QI", "Rational", "Restricted", "SamplingExhausted",
                 "ShapeError", "Sign", "Vector", "enumerate_elements", "sample",
                 "try_subtract"),
    "catalog": ("CatalogEntry", "ParamSpec", "build", "coerce_params",
                "default_origin", "get_entry", "list_catalog"),
    "cli": ("main", "run_cli"),
    "dsl": ("DslError", "elaborate", "load", "parse", "parse_value",
            "print_definitions"),
    "functors": ("module_to_space", "origin_scan", "roundtrip_module",
                 "roundtrip_space", "space_to_module", "transport_morphism"),
    "report": ("CheckReport", "EvalError", "Exhaustive", "Sampled", "Witness",
               "all_passed", "check_equation", "check_implication",
               "check_predicate", "law_seed", "report_to_dict",
               "report_to_text", "reports_to_json"),
    "ringmod": ("RingWithHalf", "RModule", "check_module", "check_ring",
                "check_ring_commutativity"),
    "search": ("FiniteModel", "search_finite"),
    "space": ("InverseError", "MobiSpace", "PointedMobiSpace", "check_affine",
              "check_space", "check_space_morphism", "check_y_properties",
              "trace_geodesic", "transport_space"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}


def __getattr__(name):
    # looked up in its module on every access and never bound here, so a
    # function that a tracer swaps in that module, and later restores, is
    # the one the package gives
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(globals().keys() | _HOME.keys())


__all__ = sorted(_HOME)
