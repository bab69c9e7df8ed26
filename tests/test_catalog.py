import dataclasses
import inspect
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from mobikit import (Exhaustive, MobiAlgebra, MobiSpace, RModule, Sampled,
                     all_passed, build, check_affine, check_algebra,
                     check_module, check_properties, check_ring, check_space,
                     check_y_properties, coerce_params, default_origin,
                     get_entry, list_catalog, sample, solve_two)
from mobikit.carriers import DENOMINATOR_BOUND, RATIONAL_NUMERATOR_BOUND
from mobikit.catalog import CatalogEntry, ParamSpec
from mobikit.cli import run_cli

SAMPLED = Sampled(samples=120, seed=0)

KINDS = {"algebra": MobiAlgebra, "space": MobiSpace, "module": RModule}


def test_catalog_has_the_advertised_breadth():
    entries = list_catalog()
    assert len(entries) >= 16
    by_kind = {}
    for e in entries:
        by_kind.setdefault(e.kind, []).append(e.name)
    assert len(by_kind["algebra"]) >= 5
    assert len(by_kind["space"]) >= 6
    assert len(by_kind["module"]) >= 4


def test_every_entry_builds_checks_and_documents_itself():
    for entry in list_catalog():
        built = build(entry.name)
        assert isinstance(built, KINDS[entry.kind]), entry.name
        assert entry.note, entry.name
        if entry.kind == "algebra":
            reports = check_algebra(built, SAMPLED)
        elif entry.kind == "space":
            reports = check_space(built, SAMPLED)
        else:
            reports = check_ring(built.ring, SAMPLED) + check_module(built,
                                                                     SAMPLED)
        assert all_passed(reports), entry.name


def test_every_algebra_satisfies_the_derived_properties():
    for entry in list_catalog():
        if entry.kind != "algebra":
            continue
        strategy = Exhaustive() if entry.name == "zmod-algebra" else SAMPLED
        assert all_passed(check_properties(build(entry.name), strategy)), \
            entry.name


def test_every_space_satisfies_the_interaction_properties():
    for entry in list_catalog():
        if entry.kind != "space":
            continue
        assert all_passed(check_y_properties(build(entry.name), SAMPLED)), \
            entry.name


def test_affine_split_matches_the_design():
    nonaffine = {"nonaffine-complex-space", "nonaffine-poly-space"}
    for entry in list_catalog():
        if entry.kind != "space":
            continue
        report = check_affine(build(entry.name), Sampled(samples=200, seed=0))
        assert report.passed == (entry.name not in nonaffine), entry.name


def test_space_entries_have_member_origins():
    # defaults, and the parameters that change an origin's shape: the origin
    # reads them after coerce_params fills in the defaults
    for entry in list_catalog():
        if entry.kind != "space":
            continue
        names = {spec.name for spec in entry.params}
        variants = [{}] + [{"n": n} for n in (2, 3) if "n" in names]
        for params in variants:
            origin = default_origin(entry.name, params)
            assert build(entry.name, params).points.contains(origin), (entry.name, params)


def test_each_entry_is_declared_once_by_its_builder():
    assert [field.name for field in dataclasses.fields(CatalogEntry)] == [
        "builder", "note", "origin"]
    assert [field.name for field in dataclasses.fields(ParamSpec)] == ["name", "default"]
    for entry in list_catalog():
        assert entry.name == entry.builder.__name__.replace("_", "-")
        assert entry.kind == entry.name.split("-")[-1]
        signature = inspect.signature(entry.builder).parameters
        assert entry.params == tuple(ParamSpec(name, p.default)
                                     for name, p in signature.items()), entry.name
        # a builder called with its own defaults gives what build gives
        built, direct = build(entry.name), entry.builder()
        carrier = "carrier" if entry.kind == "algebra" else "points"
        assert type(built) is type(direct), entry.name
        assert (getattr(built, carrier).describe()
                == getattr(direct, carrier).describe()), entry.name


def test_listed_defaults_are_accepted_back_as_params(capsys):
    assert run_cli(["catalog", "list"]) == 0
    heads = [line.split() for line in capsys.readouterr().out.splitlines()
             if not line.startswith(" ")]
    assert [head[0] for head in heads] == [e.name for e in list_catalog()]
    for name, _kind, *fields in heads:
        entry = get_entry(name)
        assert [field.partition("=")[0] for field in fields] == [
            spec.name for spec in entry.params], name
        for field in fields:
            key, _, text = field.partition("=")
            assert coerce_params(entry, {key: text}) == coerce_params(entry, {}), field


def test_unknown_name_lists_alternatives():
    with pytest.raises(KeyError, match="zmod-algebra"):
        get_entry("zmod")


def test_param_coercion_from_cli_strings():
    entry = get_entry("zmod-algebra")
    assert coerce_params(entry, {"m": "5"}) == {"m": 5}
    entry = get_entry("projectile-space")
    assert coerce_params(entry, {"k": "1/2"}) == {"n": 1, "k": (F(1, 2),)}
    assert coerce_params(entry, {"k": "1,2,3", "n": "3"})["k"] == (
        F(1), F(2), F(3))
    entry = get_entry("damped-space")
    assert coerce_params(entry, {"alpha": "1/4"}) == {"n": 1, "alpha": 0.25}
    with pytest.raises(ValueError):
        coerce_params(get_entry("tri-space"), {"bogus": "1"})


def test_zmod_validation():
    with pytest.raises(ValueError):
        build("zmod-algebra", m=4)
    with pytest.raises(ValueError):
        build("zmod-module", m=1)
    assert solve_two(build("zmod-algebra", m=7)).value == 2


def test_interval_algebra_has_no_doubler():
    assert solve_two(build("canonical-interval-algebra")).value is None


def test_lozenge_membership_window():
    alg = build("lozenge-algebra", sqrt_k="1/2")
    assert alg.carrier.contains((F(1, 2), F(1, 2)))
    assert not alg.carrier.contains((F(1, 4), F(3, 4)))
    with pytest.raises(ValueError):
        build("lozenge-algebra", sqrt_k="-1")


def test_lozenge_space_sign_branches():
    plus = build("lozenge-space", sign="plus")
    minus = build("lozenge-space", sign="minus")
    a = (F(1, 2), F(1, 4))
    assert plus.q(F(0), a, F(1)) == F(3, 4)
    assert minus.q(F(0), a, F(1)) == F(1, 4)
    with pytest.raises(ValueError):
        build("lozenge-space", sign="sideways")


def test_plane_space_multiplies_h_numbers():
    sp = build("plane-space", k="-1")
    # scaling by i rotates the difference vector a quarter turn
    assert sp.q((F(0), F(0)), (F(0), F(1)), (F(1), F(0))) == (F(0), F(1))
    sp = build("plane-space", k="1")
    assert sp.q((F(0), F(0)), (F(0), F(1)), (F(1), F(0))) == (F(0), F(1))


def test_tri_space_ignores_the_second_component_of_x1():
    sp = build("tri-space")
    x, y = (F(0), F(0)), (F(1), F(1))
    assert sp.q(x, (F(1), F(0), F(0)), y) == (F(1), F(0))
    assert sp.q(x, (F(0), F(1), F(0)), y) == (F(1), F(0))
    assert sp.q(x, (F(0), F(0), F(1)), y) == (F(0), F(1))


def test_projectile_broadcasts_k_over_dimensions():
    sp = build("projectile-space", n=2, k="3")
    got = sp.q((F(0), F(0), F(0)), F(1, 2), (F(0), F(0), F(1)))
    assert got == (F(3, 4), F(3, 4), F(1, 2))
    with pytest.raises(ValueError):
        build("projectile-space", n=3, k="1,2")


def test_transported_space_defaults_reproduce_the_projectile():
    trans = build("transported-space")
    proj = build("projectile-space")
    for x, a, y in (((F(0), F(0)), F(1, 2), (F(0), F(1))),
                    ((F(1), F(2)), F(-2, 3), (F(4), F(-1)))):
        assert trans.q(x, a, y) == proj.q(x, a, y)


def test_transported_space_rejects_vanishing_lam():
    from mobikit import InverseError
    with pytest.raises((ZeroDivisionError, InverseError)):
        build("transported-space", lam="0,1")  # lam(s) = s vanishes at 0


def test_halfplane_keeps_time_positive():
    sp = build("halfplane-space")
    got = sp.q((F(0), F(1)), F(1, 2), (F(1), F(3)))
    assert got[1] == F(2) and got[1] > 0
    assert default_origin("halfplane-space") == (F(0), F(1))


def test_damped_module_and_space_agree_through_the_correspondence():
    from mobikit import PointedMobiSpace, space_to_module
    module = space_to_module(
        PointedMobiSpace(build("damped-space"), (0.0, 0.0)))
    catalog_module = build("damped-module")
    x, y = (1.0, 0.5), (2.0, -0.25)
    got, want = module.add(x, y), catalog_module.add(x, y)
    assert math.isclose(got[0], want[0], rel_tol=1e-12)
    assert math.isclose(got[1], want[1], rel_tol=1e-12)


# direct samplers of the restricted catalog carriers

def _restricted_carriers(sqrt_k=F(1)):
    return {"unit interval": build("canonical-interval-algebra").carrier,
            "lozenge": build("lozenge-algebra", sqrt_k=sqrt_k).carrier,
            "half-plane": build("halfplane-space").points}


def _rational_parts(x):
    return x if isinstance(x, tuple) else (x,)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 64),
       sqrt_k=st.fractions(min_value=F(1, 8), max_value=4, max_denominator=8))
def test_direct_samplers_draw_members_within_the_rational_bounds(seed, sqrt_k):
    for name, carrier in _restricted_carriers(sqrt_k).items():
        assert carrier.sampler is not None, name
        for x in sample(carrier, seed, 40):
            assert carrier.member(x), (name, x)
            for v in _rational_parts(x):
                assert isinstance(v, F), (name, x)
                assert abs(v.numerator) <= RATIONAL_NUMERATOR_BOUND, (name, x)
                assert 1 <= v.denominator <= DENOMINATOR_BOUND, (name, x)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 64))
def test_direct_samplers_reach_the_region_boundary(seed):
    carriers = _restricted_carriers()
    assert {F(0), F(1)} <= set(sample(carriers["unit interval"], seed, 200))
    corners = {(F(1, 2), F(1, 2)), (F(1, 2), F(-1, 2))}
    assert corners <= set(sample(carriers["lozenge"], seed, 3000))
