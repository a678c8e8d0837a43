"""Schwarzian derivative, projective parameters, interval gauge, chains,
the pseudo-distance, and the proportionality theorem between the invariant
pseudo-distance and the Finslerian distance on Einstein structures."""

import ast
import dataclasses
import hashlib
import inspect
import json
import math

import numpy as np
import pytest

import finslerlab
from finslerlab import cli
from finslerlab import (
    Chain,
    FunkGauge,
    GeodesicProjectiveMap,
    NumericalProjectiveMap,
    PseudoDistanceResult,
    build_canonical_chain,
    canonical_projective_map,
    chain_length,
    einstein_classify,
    finsler_distance,
    funk_distance,
    geodesic_ivp,
    lemma2_check,
    make_metric,
    projective_parameter,
    projective_relation,
    pseudo_distance,
    schwarzian,
    theorem1_verify,
)
from finslerlab.errors import (
    CriticalPointError,
    EvaluationDomainError,
    MalformedChainError,
    NotEinsteinError,
    PoleError,
)
from finslerlab.jets import jet_exp

from conftest import curved_riemannian_config, funk_config, klein_config
from oracles import (
    DegenerateFitError,
    chain_legs,
    funk_gauge_value,
    interval_funk_closed,
    interval_funk_quadrature,
    jet_log,
    mobius_fit,
    projective_parameter_per_point,
)

LN2 = math.log(2.0)
LN3 = math.log(3.0)


def conformal_config():
    # g_ij = (1 - 0.6 |x|^2) delta_ij: long geodesics develop a pole in the
    # projective parameter (u2 vanishes), unlike the negatively curved models.
    zero = [[0.0, 0, 0]]
    diag = [[1.0, 0, 0], [-0.6, 2, 0], [-0.6, 0, 2]]
    return {
        "family": "riemannian",
        "dimension": 2,
        "riemannian": {"metric": [[diag, zero], [zero, diag]]},
    }


def random_mobius(rng):
    while True:
        a, b, c, d = rng.uniform(-2.0, 2.0, size=4)
        if abs(a * d - b * c) > 0.3:
            return a, b, c, d


class TestSchwarzian:
    def test_identity_is_exactly_zero(self):
        assert schwarzian(lambda t: t, 0.7) == 0.0

    def test_mobius_maps_have_zero_schwarzian(self):
        rng = np.random.default_rng(0)
        done = 0
        while done < 50:
            a, b, c, d = random_mobius(rng)
            t = rng.uniform(-1.5, 1.5)
            if abs(c * t + d) < 0.2:
                continue
            val = schwarzian(lambda u: (a * u + b) / (c * u + d), t)
            assert abs(val) <= 1e-10
            done += 1

    def test_exponential_value(self):
        # {exp(2t), t} = -2 for every t
        for t in (-0.4, 0.0, 0.9):
            assert abs(schwarzian(lambda u: jet_exp(2.0 * u), t) + 2.0) <= 1e-9

    def test_mobius_composition_invariance(self):
        # {m o f, t} = {f, t} for fractional linear m
        rng = np.random.default_rng(5)
        bases = [
            lambda u: jet_exp(2.0 * u),
            lambda u: u * u * u + 2.0 * u,
            lambda u: jet_log(u + 2.0),
        ]
        done = 0
        while done < 50:
            a, b, c, d = random_mobius(rng)
            f = bases[done % len(bases)]
            t = rng.uniform(0.1, 1.2)
            ft = schwarzian(f, t)
            if abs(c * f(float(t)) + d) < 0.2:
                continue
            comp = schwarzian(lambda u: (a * f(u) + b) / (c * f(u) + d), t)
            assert abs(comp - ft) <= 1e-8
            done += 1

    def test_critical_point_raises(self):
        with pytest.raises(CriticalPointError):
            schwarzian(lambda t: t * t, 0.0)

    def test_constant_function_rejected(self):
        with pytest.raises(ValueError):
            schwarzian(lambda t: 1.0, 0.3)


class TestFunkGauge:
    def test_gauge_constant_must_be_positive(self):
        for k in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                FunkGauge(k=k)

    def test_metric_value_spots(self):
        g = FunkGauge(k=1.0)
        assert funk_gauge_value(g, 0.0, 1.0) == 1.0
        assert funk_gauge_value(g, 0.0, -1.0) == 1.0
        # non-reversible away from the origin
        assert abs(funk_gauge_value(g, 0.5, 1.0) - 2.0) <= 1e-15
        assert abs(funk_gauge_value(g, 0.5, -1.0) - 2.0 / 3.0) <= 1e-15

    def test_metric_value_outside_interval(self):
        g = FunkGauge(k=1.0)
        for u in (-1.0, 1.0, 1.5):
            with pytest.raises(EvaluationDomainError):
                funk_gauge_value(g, u, 1.0)

    def test_distance_endpoint_validation(self):
        g = FunkGauge(k=1.0)
        with pytest.raises(EvaluationDomainError):
            funk_distance(g, -1.0, 0.5)
        with pytest.raises(EvaluationDomainError):
            funk_distance(g, 0.0, 1.0)

    def test_coincident_endpoints(self):
        g = FunkGauge(k=2.0)
        assert funk_distance(g, 0.3, 0.3) == 0.0

    def test_forward_backward_spots(self):
        g = FunkGauge(k=1.0)
        assert abs(funk_distance(g, 0.0, 0.5) - LN2) <= 1e-15
        assert abs(funk_distance(g, 0.5, 0.0) - math.log(1.5)) <= 1e-15

    def test_matches_metric_quadrature(self):
        rng = np.random.default_rng(7)
        for k in (0.5, 1.0, 2.0):
            g = FunkGauge(k=k)
            for _ in range(30):
                a, b = rng.uniform(-0.95, 0.95, size=2)
                want = interval_funk_quadrature(k, float(a), float(b))
                assert abs(funk_distance(g, float(a), float(b)) - want) <= 1e-9

    def test_directional_closed_forms(self):
        rng = np.random.default_rng(11)
        for k in (0.5, 1.0, 2.0):
            g = FunkGauge(k=k)
            for _ in range(20):
                a, b = rng.uniform(-0.9, 0.9, size=2)
                want = interval_funk_closed(k, float(a), float(b))
                assert abs(funk_distance(g, float(a), float(b)) - want) <= 1e-12


class TestProjectiveParameterSolve:
    def test_klein_diameter_is_tanh(self, klein2):
        geo = geodesic_ivp(klein2, np.zeros(2), np.array([1.0, 0.0]), 1.2)
        param = projective_parameter(klein2, geo)
        # {pi, s} = -2 with pi(0)=0, pi'(0)=1, pi''(0)=0 pins pi = tanh
        assert np.max(np.abs(param.pi - np.tanh(param.s))) <= 1e-10
        assert np.max(np.abs(param.q + 2.0)) <= 1e-9
        assert param.schwarzian_residual() <= 1e-6
        # Einstein case: pi is a Moebius image of exp(2 j s), j = c / sqrt(n - 1) = 1
        j = 1.0
        assert mobius_fit(np.exp(2.0 * j * param.s), param.pi).residual <= 1e-9
        # off-grid interpolation
        assert abs(param(0.37) - math.tanh(0.37)) <= 1e-10

    def test_funk_diameter(self, funk2):
        geo = geodesic_ivp(funk2, np.zeros(2), np.array([1.0, 0.0]), 0.9)
        param = projective_parameter(funk2, geo)
        assert np.max(np.abs(param.q + 0.5)) <= 1e-9
        j = 0.5  # c = 1/2, n = 2
        assert mobius_fit(np.exp(2.0 * j * param.s), param.pi).residual <= 1e-9
        assert param.schwarzian_residual() <= 5e-6

    def test_flat_space_parameter_is_arc_length(self, euclid2):
        geo = geodesic_ivp(euclid2, np.zeros(2), np.array([1.0, 0.0]), 0.9)
        param = projective_parameter(euclid2, geo)
        assert np.max(np.abs(param.q)) <= 1e-12
        assert np.max(np.abs(param.pi - param.s)) <= 1e-12

    @pytest.mark.parametrize(
        "config, x0, y0, length, bound",
        [
            (klein_config(2), [0.0, 0.0], [1.0, 0.0], 1.2, 1e-6),
            (curved_riemannian_config(), [-0.3, 0.1], [0.8, -0.3], 0.7, 1e-5),
        ],
        ids=["klein", "readme"],
    )
    def test_schwarzian_residual_is_small(self, config, x0, y0, length, bound):
        # pi is read on the grid from the solve's seventh-order dense
        # output: the residual reads 1.2e-7 and 1.3e-6 (7.4e-4 on the
        # README metric with a cubic Hermite interpolant)
        S = make_metric(config)
        geo = geodesic_ivp(S, np.array(x0), np.array(y0), length)
        assert projective_parameter(S, geo).schwarzian_residual() <= bound

    def test_pole_detected(self):
        S = make_metric(conformal_config())
        geo = geodesic_ivp(S, np.array([-0.85, 0.0]), np.array([1.0, 0.0]), 1.55)
        with pytest.raises(PoleError):
            projective_parameter(S, geo)

    def test_needs_dimension_two(self, interval1):
        geo = geodesic_ivp(interval1, np.zeros(1), np.array([1.0]), 0.4)
        with pytest.raises(ValueError):
            projective_parameter(interval1, geo)

    def test_backward_geodesic_rejected(self):
        # geodesic.x(s) for s > 0 would clamp to the start point of a backward run
        S = make_metric(curved_riemannian_config())
        geo = geodesic_ivp(S, np.array([0.3, -0.1]), np.array([0.8, -0.3]), -0.7)
        with pytest.raises(ValueError, match="forward geodesic"):
            projective_parameter(S, geo)

    @pytest.mark.parametrize(
        "config, x0, v0, length, pi_tol",
        [
            (klein_config(2), [0.2, -0.3], [0.6, 0.8], 0.9, 1e-12),
            (funk_config(2), [0.1, 0.2], [-0.6, 0.8], 0.7, 1e-12),
            (curved_riemannian_config(), [-0.3, 0.1], [0.8, -0.3], 0.7, 1e-12),
            # near the pole of its parameter; each bound scales with max(1, max |pi|)
            (conformal_config(), [-0.85, 0.0], [1.0, 0.0], 0.5, 1e-9),
        ],
        ids=["klein", "funk", "readme", "conformal"],
    )
    def test_matches_per_point_route(self, config, x0, v0, length, pi_tol):
        S = make_metric(config)
        x0 = np.array(x0)
        v0 = np.array(v0) / S.F(x0, np.array(v0))
        geo = geodesic_ivp(S, x0, v0, length)
        param = projective_parameter(S, geo)
        s, pi, q = projective_parameter_per_point(S, geo)
        assert np.array_equal(param.s, s)
        assert np.array_equal(param.q, q)
        assert np.max(np.abs(param.pi - pi)) <= pi_tol * max(1.0, np.max(np.abs(pi)))


class TestCanonicalMap:
    def test_exponential_parameter_spot(self, klein2):
        geo = geodesic_ivp(klein2, np.zeros(2), np.array([1.0, 0.0]), 1.2)
        pmap, (t0, t1) = canonical_projective_map(klein2, geo, 1.0)
        assert pmap.j == pytest.approx(1.0, abs=1e-15)
        assert t0 == 0.0
        assert abs(t1 - (1.0 - math.exp(-2.0 * geo.length))) <= 1e-12
        # pi(ln 2) = 1 - 2^{-2} = 3/4
        assert abs(pmap.parameter(LN2) - 0.75) <= 1e-12

    def test_canonical_schwarzian(self, klein2, klein3):
        geo = geodesic_ivp(klein2, np.zeros(2), np.array([1.0, 0.0]), 1.2)
        pmap, _ = canonical_projective_map(klein2, geo, 1.0)
        for s in (0.1, 0.3, 0.8):
            assert abs(schwarzian(pmap.parameter, s) + 2.0) <= 1e-9
        # {pi, s} = -2 j^2 for any j, also under Moebius renormalization
        other = GeodesicProjectiveMap(geodesic=geo, j=0.7, mobius=(1.3, -0.2, 0.4, 1.0))
        assert abs(schwarzian(other.parameter, 0.5) + 2.0 * 0.49) <= 1e-9

    def test_roundtrips(self, klein2):
        geo = geodesic_ivp(klein2, np.zeros(2), np.array([1.0, 0.0]), 1.2)
        pmap, (t0, t1) = canonical_projective_map(klein2, geo, 1.0)
        for s in (0.0, 0.25, 0.7, 1.1):
            assert abs(pmap.arc_of(pmap.parameter(s)) - s) <= 1e-12
        assert np.max(np.abs(pmap.point(t0) - geo.x(0.0))) <= 1e-12
        assert np.max(np.abs(pmap.point(t1) - geo.x(geo.length))) <= 1e-9

    def test_requires_einstein_constant(self, klein2):
        geo = geodesic_ivp(klein2, np.zeros(2), np.array([1.0, 0.0]), 0.8)
        for bad in (None, 0.0, -1.0, math.nan):
            with pytest.raises(NotEinsteinError):
                canonical_projective_map(klein2, geo, bad)

    def test_forward_range_enforced(self, klein2):
        geo = geodesic_ivp(klein2, np.zeros(2), np.array([1.0, 0.0]), 0.8)
        pmap, _ = canonical_projective_map(klein2, geo, 1.0)
        with pytest.raises(EvaluationDomainError):
            pmap.arc_of(1.0)


class TestNumericalMap:
    def test_interval_and_end_points(self):
        S = make_metric(curved_riemannian_config())
        geo = geodesic_ivp(S, np.array([-0.3, 0.1]), np.array([0.8, -0.3]), 0.7)
        pmap = NumericalProjectiveMap(parameterization=projective_parameter(S, geo))
        L = abs(geo.length)
        t0, t1 = pmap.interval()
        assert (t0, t1) == (pmap.parameter(0.0), pmap.parameter(L))
        assert 0.0 <= t0 < t1 < 1.0
        assert np.max(np.abs(pmap.point(t0) - geo.x(0.0))) <= 1e-12
        assert np.max(np.abs(pmap.point(t1) - geo.x(L))) <= 1e-12

    def test_roundtrip(self):
        S = make_metric(curved_riemannian_config())
        geo = geodesic_ivp(S, np.array([-0.3, 0.1]), np.array([0.8, -0.3]), 0.7)
        pmap = NumericalProjectiveMap(parameterization=projective_parameter(S, geo))
        for s in np.linspace(0.0, geo.length, 73)[1:-1]:
            assert abs(pmap.arc_of(pmap.parameter(s)) - s) <= 1e-10


class TestMobiusFit:
    def test_identity_samples(self):
        s = np.linspace(0.1, 1.0, 33)
        fit = mobius_fit(s, s)
        assert fit.residual <= 1e-12
        for z in (0.15, 0.5, 0.95):
            assert abs(fit(z) - z) <= 1e-9

    def test_canonical_against_exponential(self):
        # 1 - exp(-2s) = (z - 1)/z with z = exp(2s): an exact Moebius relation
        s = np.linspace(0.1, 1.0, 33)
        fit = mobius_fit(np.exp(2.0 * s), 1.0 - np.exp(-2.0 * s))
        assert fit.residual <= 1e-10

    def test_degenerate_target(self):
        s = np.linspace(0.1, 1.0, 33)
        with pytest.raises(DegenerateFitError):
            mobius_fit(s, np.full_like(s, 0.7))

    def test_non_monotone_source(self):
        s = np.linspace(0.1, 1.0, 33)
        with pytest.raises(ValueError):
            mobius_fit(np.sin(4.0 * s), s)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            mobius_fit(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0]))


class TestChains:
    def test_single_segment_length(self, klein2):
        gauge = FunkGauge(k=1.0)
        chain = build_canonical_chain(klein2, [np.zeros(2), np.array([0.5, 0.0])], 1.0)
        assert chain_legs(chain) == 1
        # factor * d_F = 2 artanh(1/2) = ln 3
        assert abs(chain_length(gauge, chain) - LN3) <= 1e-9

    def test_subdivision_along_geodesic_is_additive(self, klein2):
        gauge = FunkGauge(k=1.0)
        pts2 = [np.zeros(2), np.array([0.5, 0.0])]
        pts3 = [np.zeros(2), np.array([0.25, 0.0]), np.array([0.5, 0.0])]
        pts4 = [
            np.zeros(2),
            np.array([0.15, 0.0]),
            np.array([0.35, 0.0]),
            np.array([0.5, 0.0]),
        ]
        lengths = [
            chain_length(gauge, build_canonical_chain(klein2, pts, 1.0))
            for pts in (pts2, pts3, pts4)
        ]
        assert max(lengths) - min(lengths) <= 1e-9
        assert abs(lengths[0] - LN3) <= 1e-9

    def test_detour_never_beats_direct_leg(self, klein2):
        gauge = FunkGauge(k=1.0)
        direct = chain_length(
            gauge,
            build_canonical_chain(klein2, [np.zeros(2), np.array([0.5, 0.0])], 1.0),
        )
        detour = chain_length(
            gauge,
            build_canonical_chain(
                klein2, [np.zeros(2), np.array([0.3, 0.1]), np.array([0.5, 0.0])], 1.0
            ),
        )
        assert detour >= direct - 1e-9

    def test_stitch_violation(self, klein2):
        gauge = FunkGauge(k=1.0)
        chain = build_canonical_chain(
            klein2, [np.zeros(2), np.array([0.3, 0.1]), np.array([0.5, 0.0])], 1.0
        )
        chain.points[1] = chain.points[1] + 1e-3
        with pytest.raises(MalformedChainError):
            chain_length(gauge, chain)

    def test_point_count_mismatch(self, klein2):
        gauge = FunkGauge(k=1.0)
        chain = build_canonical_chain(klein2, [np.zeros(2), np.array([0.5, 0.0])], 1.0)
        chain.points.append(np.array([0.6, 0.0]))
        with pytest.raises(MalformedChainError):
            chain_length(gauge, chain)

    def test_needs_two_points(self, klein2):
        with pytest.raises(MalformedChainError):
            build_canonical_chain(klein2, [np.zeros(2)], 1.0)

    def test_degenerate_leg(self, klein2):
        with pytest.raises(MalformedChainError):
            build_canonical_chain(klein2, [np.zeros(2), np.zeros(2), np.array([0.5, 0.0])], 1.0)

    def test_numerical_segments_without_einstein_constant(self):
        S = make_metric(curved_riemannian_config())
        gauge = FunkGauge(k=1.0)
        chain = build_canonical_chain(S, [np.array([-0.3, 0.1]), np.array([0.4, -0.2])], None)
        assert isinstance(chain.segments[0], NumericalProjectiveMap)
        assert chain_length(gauge, chain) > 0.0


class TestLemma2:
    def test_canonical_representative_saturates_bound(self, klein2):
        gauge = FunkGauge(k=1.0)
        res = finsler_distance(klein2, np.zeros(2), np.array([0.5, 0.0]))
        pmap, (t0, t1) = canonical_projective_map(klein2, res.geodesic, 1.0)
        out = lemma2_check(gauge, pmap, t0, t1, 2.0)
        assert out.ok
        # the canonical family is the equality case of the bound
        assert abs(out.margin) <= 1e-9
        assert abs(out.funk_gap - LN3) <= 1e-9

    def test_interior_subsegment(self, klein2):
        gauge = FunkGauge(k=1.0)
        res = finsler_distance(klein2, np.zeros(2), np.array([0.5, 0.0]))
        pmap, _ = canonical_projective_map(klein2, res.geodesic, 1.0)
        L = res.distance
        a = pmap.parameter(0.25 * L)
        b = pmap.parameter(0.75 * L)
        out = lemma2_check(gauge, pmap, a, b, 2.0)
        assert out.ok and abs(out.margin) <= 1e-9

    def test_arc_shift_renormalization(self, klein2):
        # Valid Moebius renormalizations of the canonical parameter come from
        # arc-length shifts s -> s - s0.  On parameter values they act as
        # w -> lam w + (1 - lam) with lam = exp(2 j s0), fixing w = 1 (the
        # forward-asymptotic image).  lam = 1.2 makes the map cover
        # [-0.2, 0.4] on this geodesic, and the equality persists: the Funk
        # gap is exactly ln 2 = factor * (arc-length gap).
        gauge = FunkGauge(k=1.0)
        res = finsler_distance(klein2, np.zeros(2), np.array([0.5, 0.0]))
        pmap, _ = canonical_projective_map(klein2, res.geodesic, 1.0)
        shifted = GeodesicProjectiveMap(
            geodesic=res.geodesic, j=pmap.j, mobius=(1.2, -0.2, 0.0, 1.0)
        )
        assert shifted.parameter(0.0) == pytest.approx(-0.2, abs=1e-12)
        assert abs(shifted.arc_of(0.4) - 0.5 * LN2) <= 1e-12
        out = lemma2_check(gauge, shifted, -0.2, 0.4, 2.0)
        assert out.ok and out.margin >= -1e-6
        assert abs(out.margin) <= 1e-9
        assert abs(out.funk_gap - LN2) <= 1e-12

    def test_funk_gauge_factor_one(self, funk2):
        # c = 1/2, n = 2, k = 1 gives factor 2c/(sqrt(n-1) k) = 1
        gauge = FunkGauge(k=1.0)
        res = finsler_distance(funk2, np.zeros(2), np.array([0.4, 0.1]))
        pmap, (t0, t1) = canonical_projective_map(funk2, res.geodesic, 0.5)
        out = lemma2_check(gauge, pmap, t0, t1, 1.0)
        assert out.ok and abs(out.margin) <= 1e-9

    def test_the_slack_is_relative_to_the_bound(self, klein2):
        # at k = 1e6 the margins are about 1e-22, far inside an absolute
        # slack of 1e-6: a factor 1 % too large must still fail
        gauge = FunkGauge(k=1e6)
        res = finsler_distance(klein2, np.zeros(2), np.array([0.5, 0.0]))
        pmap, (t0, t1) = canonical_projective_map(klein2, res.geodesic, 1.0)
        factor = 2.0 / gauge.k
        assert lemma2_check(gauge, pmap, t0, t1, factor).ok
        assert not lemma2_check(gauge, pmap, t0, t1, 1.01 * factor).ok

    def test_ordered_endpoints_required(self, klein2):
        gauge = FunkGauge(k=1.0)
        geo = geodesic_ivp(klein2, np.zeros(2), np.array([1.0, 0.0]), 0.8)
        pmap, _ = canonical_projective_map(klein2, geo, 1.0)
        with pytest.raises(ValueError):
            lemma2_check(gauge, pmap, 0.5, 0.5, 2.0)


class TestPseudoDistance:
    def test_coincident_points(self, klein2):
        gauge = FunkGauge(k=1.0)
        out = pseudo_distance(klein2, np.array([0.2, 0.1]), np.array([0.2, 0.1]), gauge)
        assert out.d_finsler == 0.0
        assert out.canonical_length == 0.0
        assert out.theoretical == 0.0
        assert out.theoretical_available
        assert out.discrepancy == 0.0

    def test_klein_radial_spot(self, klein2):
        gauge = FunkGauge(k=1.0)
        out = pseudo_distance(klein2, np.zeros(2), np.array([0.5, 0.0]), gauge)
        assert abs(out.d_finsler - math.atanh(0.5)) <= 1e-8
        assert abs(out.canonical_length - LN3) <= 1e-9
        assert out.theoretical_available
        assert out.discrepancy <= 1e-12
        assert out.einstein.einstein_constant_c == pytest.approx(1.0, abs=1e-6)

    def test_random_chains_never_undercut(self, klein2):
        gauge = FunkGauge(k=1.0)
        out = pseudo_distance(
            klein2,
            np.zeros(2),
            np.array([0.5, 0.0]),
            gauge,
            random_chains=40,
            seed=3,
        )
        assert out.best_random_chain is not None
        assert out.best_random_chain >= out.theoretical - 1e-4

    def test_without_einstein_constant_only_bound(self):
        S = make_metric(curved_riemannian_config())
        gauge = FunkGauge(k=1.0)
        out = pseudo_distance(S, np.array([-0.3, 0.1]), np.array([0.4, -0.2]), gauge)
        assert out.theoretical is None
        assert not out.theoretical_available
        assert out.canonical_length > 0.0
        assert out.einstein.einstein_constant_c is None

    def test_to_dict(self, klein2):
        gauge = FunkGauge(k=1.0)
        out = pseudo_distance(klein2, np.zeros(2), np.array([0.3, 0.0]), gauge)
        doc = out.to_dict()
        assert set(doc) == {
            "d_finsler",
            "canonical_length",
            "theoretical",
            "theoretical_available",
            "best_random_chain",
            "discrepancy",
            "diagnostics",
        }
        json.dumps(doc)
        p, q = np.zeros(2), np.array([0.3, 0.0])
        assert doc["diagnostics"] == finsler_distance(klein2, p, q).diagnostics


class TestProjectiveRelation:
    def test_homothety_detected(self, klein2):
        doubled = make_metric(klein_config(2, scale=2.0))
        rel = projective_relation(klein2, doubled)
        assert rel.related and rel.homothetic
        assert rel.scale_ratio == pytest.approx(2.0, abs=1e-10)

    def test_klein_funk_related_not_homothetic(self, klein2, funk2):
        rel = projective_relation(klein2, funk2)
        assert rel.related
        assert not rel.homothetic
        assert rel.scale_ratio is None
        assert rel.quotient_spread <= 1e-6

    def test_klein_euclid_related(self, klein2, euclid2):
        rel = projective_relation(klein2, euclid2)
        assert rel.related and not rel.homothetic

    def test_curved_metric_not_related(self, klein2):
        rel = projective_relation(klein2, make_metric(curved_riemannian_config()))
        assert not rel.related
        assert rel.quotient_spread > 1e-3

    def test_dimension_mismatch(self, klein2, klein3):
        with pytest.raises(ValueError):
            projective_relation(klein2, klein3)

    def test_to_dict(self, klein2, funk2):
        doc = projective_relation(klein2, funk2).to_dict()
        assert set(doc) == {
            "related",
            "homothetic",
            "scale_ratio",
            "quotient_spread",
            "samples",
            "seed",
        }
        json.dumps(doc)


# ROADMAP item 13's four shared pairs, padded with zeros past dimension two
SHARED_PAIRS = (((0.0, 0.0), (0.5, 0.0)), ((0.5, 0.0), (0.0, 0.0)), ((-0.3, 0.2), (0.4, 0.1)), ((0.4, 0.1), (-0.3, 0.2)))
KLEIN_FUNK_SPREAD = (
    "one projective structure should give one d_M, but under the Funk gauge k = 1 canonical_length reads "
    "Klein 1.0986 against the Funk ball's 0.6931 (forward) and 0.4055 (backward) on (0, 0) <-> (0.5, 0), "
    "and 1.4995 against 0.7733 and 0.7262 on (-0.3, 0.2) <-> (0.4, 0.1); the Moebius maps of I keep its "
    "Hilbert metric, not its Funk metric (ROADMAP items 1 and 13)"
)


class TestOneProjectiveStructure:
    """Projectively related structures on one chart give one canonical length on shared pairs."""

    @pytest.mark.parametrize(
        "configs",
        [
            pytest.param(
                (klein_config(2), funk_config(2)),
                id="klein2-funk2",
                marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=KLEIN_FUNK_SPREAD),
            ),
            pytest.param(
                (klein_config(3), funk_config(3)),
                id="klein3-funk3",
                marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=KLEIN_FUNK_SPREAD),
            ),
            # the control: a homothetic copy, whose spread is 4e-16
            pytest.param((klein_config(2), klein_config(2, scale=2.5)), id="klein2-klein2x2.5"),
        ],
    )
    def test_related_structures_give_one_canonical_length(self, configs):
        A, B = (make_metric(c) for c in configs)
        assert projective_relation(A, B).related
        gauge = FunkGauge(k=1.0)
        pad = [0.0] * (A.dimension - 2)
        reports = [einstein_classify(S, x_samples=6, seed=0) for S in (A, B)]
        for p, q in SHARED_PAIRS:
            a, b = (
                pseudo_distance(S, [*p, *pad], [*q, *pad], gauge, einstein=rep).canonical_length
                for S, rep in zip((A, B), reports)
            )
            assert abs(a - b) <= 1e-6 * max(a, b), (p, q, a, b)


class TestDataModel:
    """A chain leg is its projective map, and a result stores only what the rest derives from."""

    def test_the_result_fields(self):
        assert [f.name for f in dataclasses.fields(PseudoDistanceResult)] == [
            "canonical_length", "theoretical", "best_random_chain", "distance", "einstein", "pmap",
        ]
        assert [f.name for f in dataclasses.fields(NumericalProjectiveMap)] == ["parameterization"]
        assert NumericalProjectiveMap.mobius == (1.0, 0.0, 1.0, 1.0)

    @pytest.mark.parametrize("q", [[0.5, 0.0], [0.0, 0.0]], ids=["leg", "no_leg"])
    def test_derived_values_are_read_only_properties(self, klein2, q):
        out = pseudo_distance(klein2, [0.0, 0.0], q, FunkGauge(k=1.0))
        assert out.d_finsler == out.distance.distance
        assert out.theoretical_available is True
        assert out.discrepancy == abs(out.canonical_length - out.theoretical) / max(out.theoretical, 1e-300)
        assert (out.pmap is None) == (q == [0.0, 0.0])
        for name in ("d_finsler", "theoretical_available", "discrepancy"):
            with pytest.raises(AttributeError):
                setattr(out, name, 0.0)

    def test_a_chain_holds_the_maps_of_its_legs(self, klein2):
        points = [np.zeros(2), np.array([0.3, 0.1]), np.array([0.5, 0.0])]
        chain = build_canonical_chain(klein2, points, 1.0)
        assert [type(pmap) for pmap in chain.segments] == [GeodesicProjectiveMap] * 2
        gauge = FunkGauge(k=1.0)
        assert chain_length(gauge, chain) == sum(funk_distance(gauge, *pmap.interval()) for pmap in chain.segments)
        assert "ChainSegment" not in finslerlab.__all__

    def test_the_cli_imports_no_private_name(self):
        tree = ast.parse(inspect.getsource(cli))
        names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names]
        assert "flag_curvature" in names
        assert [name for name in names if name.startswith("_")] == []


class TestRandomChainBytes:
    """Every bit of pseudo_distance's random chains, whose legs each run finsler_distance.

    SHA-256 of to_dict() as sorted-key JSON, for (-0.3, 0.2, 0.1) -> (0.4, 0.1, -0.2)
    cut to the dimension; no CLI command draws random chains.
    """

    DIGESTS = {
        ("klein_ball", 2, 0): "c01e81976aac0834af7fca5afb1d897d856e9040f25fedf581650d3bf2f02fc4",
        ("klein_ball", 2, 7): "67856d6ee8264ab8278803d3b892a79082de7ab1a8c387b8aad281a04afa0545",
        ("funk_ball", 2, 0): "403ae5d029fd23bff1b480068d0aec4985617f0fe47ae8cea161652c86b48003",
        ("funk_ball", 2, 7): "51055b02f165c22b4f19edee8128153f3c6e09e52bc87b2eae0b3d4b9ba6dff1",
        ("klein_ball", 3, 0): "c6e621276c967ff50b0828b4ac6027ec00d7a46070d6651d96b908c677a1be88",
        ("klein_ball", 3, 7): "61a3b29250c479b1858e606b6c745c1ae7af8e434e87472e67e7ae1c8bd8412d",
    }

    @pytest.mark.parametrize("family, n, seed", DIGESTS, ids=lambda v: str(v))
    def test_random_chains_keep_their_bytes(self, family, n, seed):
        S = make_metric({"family": family, "dimension": n})
        p, q = [-0.3, 0.2, 0.1][:n], [0.4, 0.1, -0.2][:n]
        doc = pseudo_distance(S, p, q, FunkGauge(k=1.0), random_chains=50, seed=seed).to_dict()
        assert doc["best_random_chain"] is not None
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == self.DIGESTS[family, n, seed]

    # the same digest for 20 chains on the curved table at commit 6951925: it is
    # not Einstein, so every leg is the numerically solved projective map
    CURVED_DIGESTS = {
        0: "41a74cd7c46c21be2b0387a88be115c359dafd278a334119793a1bdf35dcc925",
        7: "c6a36ccf22b8498deec221151eb5b092a85d5053de92f968322b5e597d07e180",
    }

    @pytest.mark.parametrize("seed", CURVED_DIGESTS)
    def test_numerical_map_chains_keep_their_bytes(self, seed):
        S = make_metric(curved_riemannian_config())
        out = pseudo_distance(S, [-0.3, 0.1], [0.4, -0.2], FunkGauge(k=1.0), random_chains=20, seed=seed)
        assert out.theoretical is None and out.best_random_chain is not None
        digest = hashlib.sha256(json.dumps(out.to_dict(), sort_keys=True).encode()).hexdigest()
        assert digest == self.CURVED_DIGESTS[seed]


class TestProportionalityTheorem:
    def test_klein_disc_factor_two(self, klein2):
        gauge = FunkGauge(k=1.0)
        rep = theorem1_verify(klein2, gauge, pairs=3, seed=0)
        assert rep.passed
        assert rep.c == pytest.approx(1.0, abs=1e-6)
        assert rep.factor == pytest.approx(2.0, abs=1e-6)
        assert rep.max_discrepancy <= 1e-6
        assert rep.min_lemma2_margin >= -1e-6
        assert len(rep.records) == 3
        for rec in rep.records:
            assert set(rec) == {
                "p",
                "q",
                "d_F",
                "d_M_theoretical",
                "d_M_canonical",
                "discrepancy",
                "lemma2_margin",
                "diagnostics",
            }
            assert abs(rec["d_M_theoretical"] - 2.0 * rec["d_F"]) <= 1e-9

    def test_records_carry_distance_diagnostics(self, funk2):
        rep = theorem1_verify(funk2, FunkGauge(k=1.0), pairs=2, seed=1, tolerance=1e-3)
        for rec in rep.records:
            direct = finsler_distance(funk2, np.array(rec["p"]), np.array(rec["q"]))
            assert rec["diagnostics"] == direct.diagnostics
            assert {"path", "shots", "rhs_calls", "steps_rejected"} <= set(rec["diagnostics"])

    def test_gauge_constant_rescales_factor(self, klein2):
        # doubling k halves both the Funk gaps and the factor
        rep = theorem1_verify(klein2, FunkGauge(k=2.0), pairs=2, seed=4)
        assert rep.passed
        assert rep.factor == pytest.approx(1.0, abs=1e-6)

    def test_funk_ball_factor_one(self, funk2):
        gauge = FunkGauge(k=1.0)
        rep = theorem1_verify(funk2, gauge, pairs=2, seed=1, tolerance=1e-3)
        assert rep.passed
        assert rep.c == pytest.approx(0.5, abs=1e-6)
        assert rep.factor == pytest.approx(1.0, abs=1e-6)
        assert rep.max_discrepancy <= 1e-9
        assert rep.min_lemma2_margin >= -1e-6

    @pytest.mark.parametrize("name, tolerance", [("klein2", 1e-4), ("funk2", 1e-3)])
    def test_records_equal_pseudo_distance(self, request, name, tolerance):
        S = request.getfixturevalue(name)
        gauge = FunkGauge(k=1.0)
        report = einstein_classify(S, x_samples=6, seed=2)
        rep = theorem1_verify(S, gauge, pairs=3, seed=2, tolerance=tolerance, einstein=report)
        for rec in rep.records:
            out = pseudo_distance(S, np.array(rec["p"]), np.array(rec["q"]), gauge, einstein=report)
            assert rec["d_F"] == out.d_finsler
            assert rec["d_M_canonical"] == out.canonical_length
            assert rec["d_M_theoretical"] == out.theoretical
            assert rec["discrepancy"] == out.discrepancy
            assert rec["diagnostics"] == out.distance.diagnostics

    def test_needs_a_pair(self, klein2):
        with pytest.raises(ValueError):
            theorem1_verify(klein2, FunkGauge(k=1.0), pairs=0)

    def test_non_einstein_rejected(self):
        S = make_metric(curved_riemannian_config())
        with pytest.raises(NotEinsteinError):
            theorem1_verify(S, FunkGauge(k=1.0), pairs=2, seed=0)
