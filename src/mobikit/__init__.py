"""Checkable interpolation algebras, the spaces they act on, and the
module correspondence, with a small definition language, a catalog of
worked instances, and a finite-model searcher."""

from .algebra import (AmbiguousTwoError, MobiAlgebra, NoHalfError, TwoResult,
                      algebra_from_ring, check_algebra,
                      check_algebra_morphism, check_commutativity_condition,
                      check_properties, circ, complement, oplus, product,
                      ring_from_algebra, solve_two)
from .carriers import (Carrier, CarrierError, Float64, GaussianRational,
                       MembershipError, ModularInt, NotEnumerableError,
                       Product, QI, Rational, Restricted, SamplingExhausted,
                       ShapeError, Sign, Vector, enumerate_elements, sample,
                       try_subtract)
from .catalog import (CatalogEntry, ParamSpec, build, coerce_params,
                      default_origin, get_entry, list_catalog)
from .dsl import (DslError, elaborate, load, parse, parse_value,
                  print_definitions)
from .functors import (module_to_space, origin_scan, roundtrip_module,
                       roundtrip_space, space_to_module, transport_morphism)
from .report import (CheckReport, EvalError, Exhaustive, Sampled, Witness,
                     all_passed, check_equation, check_implication,
                     check_predicate, law_seed, report_to_dict,
                     report_to_text, reports_to_json)
from .ringmod import (RingWithHalf, RModule, check_module, check_ring,
                      check_ring_commutativity)
from .search import FiniteModel, search_finite
from .space import (InverseError, MobiSpace, PointedMobiSpace, check_affine,
                    check_space, check_space_morphism, check_y_properties,
                    trace_geodesic, transport_space)

__version__ = "0.1.0"


def __getattr__(name):
    # the CLI loads on first use, so that `python -m mobikit.cli` does not
    # find its own module already imported by the package
    if name in ("main", "run_cli"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AmbiguousTwoError", "Carrier", "CarrierError", "CatalogEntry",
    "CheckReport", "DslError", "EvalError", "Exhaustive", "FiniteModel",
    "Float64", "GaussianRational", "InverseError", "MembershipError",
    "MobiAlgebra", "MobiSpace", "ModularInt", "NoHalfError",
    "NotEnumerableError", "ParamSpec", "PointedMobiSpace", "Product", "QI",
    "RModule", "Rational", "Restricted", "RingWithHalf", "Sampled",
    "SamplingExhausted", "ShapeError", "Sign", "TwoResult", "Vector",
    "Witness", "algebra_from_ring", "all_passed", "build", "check_affine",
    "check_algebra", "check_algebra_morphism", "check_commutativity_condition",
    "check_equation", "check_implication", "check_module", "check_predicate",
    "check_properties", "check_ring", "check_ring_commutativity",
    "check_space", "check_space_morphism", "check_y_properties", "circ",
    "coerce_params", "complement", "default_origin", "elaborate",
    "enumerate_elements", "get_entry", "law_seed", "list_catalog", "load",
    "main", "module_to_space", "oplus", "origin_scan", "parse", "parse_value",
    "print_definitions", "product", "report_to_dict", "report_to_text",
    "reports_to_json", "ring_from_algebra", "roundtrip_module",
    "roundtrip_space", "run_cli", "sample", "search_finite", "solve_two",
    "space_to_module", "trace_geodesic", "transport_morphism",
    "transport_space", "try_subtract",
]
