"""Acceptance gate: eight end-to-end criteria, one printed verdict line each.

Each criterion aggregates its checks into a single boolean, prints a
PASS/FAIL line with the measured worst-case numbers, then asserts.  The
tolerances are the contract — they must not be loosened to make a run green.
"""

import math

import numpy as np
from scipy.optimize import brentq

from finslerlab import (
    FunkGauge,
    GeodesicProjectiveMap,
    build_canonical_chain,
    canonical_projective_map,
    chain_length,
    einstein_classify,
    finsler_distance,
    flag_curvature,
    fundamental_tensor,
    funk_distance,
    geodesic_ivp,
    lemma2_check,
    make_metric,
    projective_parameter,
    projective_relation,
    pseudo_distance,
    ricci_tensor,
    riemann_curvature,
    scalar_curvature_residual,
    schwarzian,
    theorem1_verify,
)
from finslerlab.jets import jet_exp

from conftest import ball_point, klein_config, unit_direction
from oracles import (
    directional_derivatives,
    finite_difference_oracle,
    interval_funk_quadrature,
    jet_log,
    klein_distance,
    mobius_fit,
)
from test_curvature import fd_riemann

LN2 = math.log(2.0)


def _verdict(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def test_criterion_1_interval_gauge_matches_quadrature():
    rng = np.random.default_rng(101)
    worst = 0.0
    for k in (0.5, 1.0, 2.0):
        gauge = FunkGauge(k=k)
        for _ in range(100):
            a, b = rng.uniform(-0.95, 0.95, size=2)
            got = funk_distance(gauge, float(a), float(b))
            want = interval_funk_quadrature(k, float(a), float(b))
            worst = max(worst, abs(got - want))
    g1 = FunkGauge(k=1.0)
    spot = max(
        abs(funk_distance(g1, 0.0, 0.5) - LN2),
        abs(funk_distance(g1, 0.5, 0.0) - math.log(1.5)),
    )
    ok = worst <= 1e-9 and spot <= 1e-12
    assert _verdict(
        1,
        ok,
        f"gauge distance vs quadrature: worst {worst:.3e} over 300 pairs "
        f"(tol 1e-9); ln2/ln1.5 spots within {spot:.1e}",
    )


def test_criterion_2_schwarzian_identities():
    rng = np.random.default_rng(102)
    ident = schwarzian(lambda t: t, 0.7)

    worst_mobius = 0.0
    done = 0
    while done < 50:
        a, b, c, d = rng.uniform(-2.0, 2.0, size=4)
        t = float(rng.uniform(-1.5, 1.5))
        if abs(a * d - b * c) < 0.3 or abs(c * t + d) < 0.2:
            continue
        worst_mobius = max(
            worst_mobius, abs(schwarzian(lambda u: (a * u + b) / (c * u + d), t))
        )
        done += 1

    bases = [
        lambda u: jet_exp(2.0 * u),
        lambda u: u * u * u + 2.0 * u,
        lambda u: jet_log(u + 2.0),
    ]
    worst_invariance = 0.0
    done = 0
    while done < 50:
        a, b, c, d = rng.uniform(-2.0, 2.0, size=4)
        if abs(a * d - b * c) < 0.3:
            continue
        f = bases[done % len(bases)]
        t = float(rng.uniform(0.1, 1.2))
        if abs(c * f(t) + d) < 0.2:
            continue
        comp = schwarzian(lambda u: (a * f(u) + b) / (c * f(u) + d), t)
        worst_invariance = max(worst_invariance, abs(comp - schwarzian(f, t)))
        done += 1

    worst_exp = max(
        abs(schwarzian(lambda u: jet_exp(2.0 * u), t) + 2.0) for t in (-0.4, 0.0, 0.9)
    )
    ok = (
        ident == 0.0
        and worst_mobius <= 1e-10
        and worst_invariance <= 1e-8
        and worst_exp <= 1e-9
    )
    assert _verdict(
        2,
        ok,
        f"schwarzian: identity {ident!r}, 50 moebius worst {worst_mobius:.2e} "
        f"(tol 1e-10), invariance worst {worst_invariance:.2e} (tol 1e-8), "
        f"exp(2t) offset {worst_exp:.2e} (tol 1e-9)",
    )


def test_criterion_3_curvature_constants(klein2, klein3, funk2):
    rng = np.random.default_rng(103)

    def worst_flag(S, target, flags=100):
        n = S.dimension
        worst = 0.0
        done = 0
        while done < flags:
            x = ball_point(rng, n, 0.7)
            y = unit_direction(rng, n)
            u = unit_direction(rng, n)
            if abs(float(u @ y)) > 0.97:
                continue
            worst = max(worst, abs(flag_curvature(S, x, y, u) - target))
            done += 1
        return worst

    klein_flag = max(worst_flag(klein2, -1.0), worst_flag(klein3, -1.0))
    funk_flag = worst_flag(funk2, -0.25)

    shape = 0.0
    ric_dev = 0.0
    for S, lam in ((klein2, -1.0), (klein3, -1.0), (funk2, -0.25)):
        n = S.dimension
        for _ in range(25):
            x = ball_point(rng, n, 0.7)
            y = unit_direction(rng, n)
            shape = max(shape, scalar_curvature_residual(S, x, y, lam))
            ric = ricci_tensor(S, x, y).ric_tensor
            g = fundamental_tensor(S, x, y).g
            dev = np.max(np.abs(ric - (n - 1.0) * lam * g))
            ric_dev = max(ric_dev, float(dev / np.max(np.abs(g))))

    spots = [
        (klein2, [0.3, -0.2], [0.8, 0.5]),
        (klein2, [0.0, 0.4], [1.0, -0.3]),
        (funk2, [0.2, 0.1], [0.7, -0.4]),
        (funk2, [-0.3, 0.25], [0.5, 1.0]),
        (klein3, [0.2, -0.1, 0.3], [0.6, 0.8, -0.5]),
    ]
    fd_dev = 0.0
    for S, x, y in spots:
        R = riemann_curvature(S, x, y).matrix
        Rfd = fd_riemann(S, np.asarray(x), np.asarray(y))
        fd_dev = max(fd_dev, float(np.max(np.abs(R - Rfd)) / max(1.0, np.max(np.abs(R)))))

    ok = klein_flag <= 1e-5 and funk_flag <= 1e-4 and shape <= 1e-5 and ric_dev <= 1e-4 and fd_dev <= 1e-4
    assert _verdict(
        3,
        ok,
        f"curvature: klein flags worst {klein_flag:.2e} (tol 1e-5), funk flags "
        f"worst {funk_flag:.2e} (tol 1e-4), scalar-shape residual {shape:.2e} "
        f"(tol 1e-5), Ricci-tensor deviation {ric_dev:.2e} (tol 1e-4), "
        f"FD cross-check {fd_dev:.2e} at 5 spots (tol 1e-4)",
    )


def test_criterion_4_einstein_constants(klein2, klein3, funk2):
    c2 = einstein_classify(klein2, seed=104).einstein_constant_c
    c3 = einstein_classify(klein3, seed=104).einstein_constant_c
    cf = einstein_classify(funk2, seed=104).einstein_constant_c
    d2 = abs(c2 - 1.0)
    d3 = abs(c3 - math.sqrt(2.0))
    df = abs(cf - 0.5)
    ok = d2 <= 1e-4 and d3 <= 1e-4 and df <= 1e-3
    assert _verdict(
        4,
        ok,
        f"einstein constants: klein n=2 c={c2:.10f} (|off| {d2:.1e}, tol 1e-4), "
        f"klein n=3 c={c3:.10f} (|off| {d3:.1e}, tol 1e-4), "
        f"funk c={cf:.10f} (|off| {df:.1e}, tol 1e-3)",
    )


def test_criterion_5_proportionality_theorem(klein2, klein3, funk2):
    runs = [
        ("klein n=2 k=1", theorem1_verify(klein2, FunkGauge(k=1.0), pairs=20, seed=0), 2.0, 1e-4),
        ("klein n=2 k=2", theorem1_verify(klein2, FunkGauge(k=2.0), pairs=5, seed=5), 1.0, 1e-4),
        ("klein n=3 k=1", theorem1_verify(klein3, FunkGauge(k=1.0), pairs=5, seed=2), 2.0, 1e-4),
        ("funk n=2 k=1", theorem1_verify(funk2, FunkGauge(k=1.0), pairs=20, seed=1, tolerance=1e-3), 1.0, 1e-3),
    ]
    worst_disc = 0.0
    worst_margin = 0.0
    factor_off = 0.0
    all_passed = True
    for _, rep, factor_want, tol in runs:
        all_passed = all_passed and rep.passed and rep.max_discrepancy <= tol
        worst_disc = max(worst_disc, rep.max_discrepancy)
        worst_margin = min(worst_margin, rep.min_lemma2_margin)
        factor_off = max(factor_off, abs(rep.factor - factor_want))

    # a Moebius-renormalized representative (arc-length shift, fixing the
    # forward-asymptotic parameter value 1) covering [-0.2, 0.4]
    res = finsler_distance(klein2, np.zeros(2), np.array([0.5, 0.0]))
    base, _ = canonical_projective_map(klein2, res.geodesic, 1.0)
    shifted = GeodesicProjectiveMap(
        geodesic=res.geodesic, j=base.j, mobius=(1.2, -0.2, 0.0, 1.0)
    )
    renorm = lemma2_check(FunkGauge(k=1.0), shifted, -0.2, 0.4, 2.0)
    worst_margin = min(worst_margin, renorm.margin)

    ok = all_passed and factor_off <= 1e-9 and worst_margin >= -1e-6
    assert _verdict(
        5,
        ok,
        f"proportionality: 4 configurations, worst discrepancy {worst_disc:.2e} "
        f"(tols 1e-4/1e-3), factors off by {factor_off:.1e}, "
        f"worst lemma-2 margin {worst_margin:.2e} incl. renormalized map "
        f"(threshold -1e-6)",
    )


def test_criterion_6_chain_properties(klein2):
    gauge = FunkGauge(k=1.0)
    p, q = np.zeros(2), np.array([0.5, 0.0])
    pts2 = [p, q]
    pts3 = [p, np.array([0.25, 0.0]), q]
    pts5 = [p, np.array([0.1, 0.0]), np.array([0.25, 0.0]), np.array([0.4, 0.0]), q]
    lengths = [
        chain_length(gauge, build_canonical_chain(klein2, pts, 1.0))
        for pts in (pts2, pts3, pts5)
    ]
    subdivision = max(lengths) - min(lengths)

    undercut = 0.0
    pair_specs = [
        (np.zeros(2), np.array([0.5, 0.0]), 11),
        (np.array([-0.2, 0.3]), np.array([0.4, -0.1]), 12),
    ]
    for pa, pb, seed in pair_specs:
        out = pseudo_distance(klein2, pa, pb, gauge, random_chains=200, seed=seed)
        undercut = max(undercut, out.theoretical - out.best_random_chain)

    same = pseudo_distance(klein2, np.array([0.2, 0.1]), np.array([0.2, 0.1]), gauge)
    apart = pseudo_distance(klein2, np.array([0.2, 0.1]), np.array([-0.1, 0.3]), gauge)

    ok = (
        subdivision <= 1e-6
        and undercut <= 1e-4
        and same.canonical_length == 0.0
        and same.theoretical == 0.0
        and apart.canonical_length > 0.0
        and apart.theoretical > 0.0
    )
    assert _verdict(
        6,
        ok,
        f"chains: subdivision spread {subdivision:.2e} (tol 1e-6), worst "
        f"undercut by 400 random chains {undercut:.2e} (tol 1e-4), "
        f"identity d_M(p,p)={same.canonical_length!r}, "
        f"separation d_M(p,q)={apart.canonical_length:.6f}>0",
    )


def test_criterion_7_projective_invariance(klein2, funk2):
    rng = np.random.default_rng(17)
    worst_fit = 0.0
    for _ in range(10):
        e = unit_direction(rng, 2)
        geo_k = geodesic_ivp(klein2, np.zeros(2), e, 1.1)
        geo_f = geodesic_ivp(funk2, np.zeros(2), e, 1.65)
        pk = projective_parameter(klein2, geo_k)
        pf = projective_parameter(funk2, geo_f)
        pi_k, pi_f = [], []
        for s in np.linspace(0.05, 1.05, 21):
            r = float(np.linalg.norm(geo_k.x(float(s))))
            # arc length at which the funk geodesic reaches the same radius
            sf = brentq(
                lambda t: float(np.linalg.norm(geo_f.x(t))) - r, 1e-9, 1.6, xtol=1e-15
            )
            pi_k.append(pk(float(s)))
            pi_f.append(pf(float(sf)))
        worst_fit = max(worst_fit, mobius_fit(np.array(pi_k), np.array(pi_f)).residual)

    kf = projective_relation(klein2, funk2)
    doubled = make_metric(klein_config(2, scale=2.0))
    kk = projective_relation(klein2, doubled)
    ratio_off = abs(kk.scale_ratio - 2.0) if kk.scale_ratio is not None else math.inf

    ok = (
        worst_fit <= 1e-4
        and kf.related
        and not kf.homothetic
        and kk.related
        and kk.homothetic
        and ratio_off <= 1e-10
    )
    assert _verdict(
        7,
        ok,
        f"projective invariance: 10 diameter-line moebius fits worst "
        f"{worst_fit:.2e} (tol 1e-4); klein-funk related={kf.related} "
        f"homothetic={kf.homothetic}; klein-2klein homothetic ratio off by "
        f"{ratio_off:.1e} (tol 1e-10)",
    )


def test_criterion_8_numerics_substrate(klein2, funk2):
    rng = np.random.default_rng(108)
    cases = [
        (lambda x: math.exp(0.7 * x[0]), lambda a: jet_exp(0.7 * a[0])),
        (lambda x: math.log(2.0 + x[0]), lambda a: jet_log(2.0 + a[0])),
        (lambda x: 1.0 / (1.0 + x[0] * x[0]), lambda a: 1.0 / (1.0 + a[0] * a[0])),
    ]
    fd_rel = 0.0
    for _ in range(10):
        at = float(rng.uniform(-0.8, 0.8))
        for order in (1, 2, 3, 4):
            # roundoff in an order-m stencil grows like eps/h^m
            step = 1e-2 if order <= 2 else 5e-2
            for f_num, f_jet in cases:
                fd = finite_difference_oracle(f_num, [at], [1.0], order, base_step=step)
                exact = directional_derivatives(f_jet, [at], [[1.0]], order).derivative(
                    (order,)
                )
                fd_rel = max(fd_rel, abs(fd - exact) / max(1.0, abs(exact)))

    drift_ratio = 0.0
    for S, y0 in ((klein2, [1.0, 0.2]), (funk2, [0.4, -1.0])):
        for tol in (1e-8, 1e-10):
            geo = geodesic_ivp(S, np.array([0.1, -0.2]), np.array(y0), 0.9, tolerance=tol)
            drift_ratio = max(drift_ratio, geo.unit_speed_residual() / tol)

    bvp_dev = 0.0
    done = 0
    while done < 50:
        p = ball_point(rng, 2, 0.7)
        q = ball_point(rng, 2, 0.7)
        if float(np.linalg.norm(q - p)) < 0.05:
            continue
        got = finsler_distance(klein2, p, q).distance
        bvp_dev = max(bvp_dev, abs(got - klein_distance(p, q)))
        done += 1

    ok = fd_rel <= 1e-5 and drift_ratio <= 10.0 and bvp_dev <= 1e-6
    assert _verdict(
        8,
        ok,
        f"numerics: jet-vs-FD relative {fd_rel:.2e} (tol 1e-5), unit-speed "
        f"drift {drift_ratio:.2f}x tolerance (limit 10x), 50 boundary-value "
        f"distances vs cross-ratio worst {bvp_dev:.2e} (tol 1e-6)",
    )
