"""Acceptance suite: one test per criterion, each printing a single
PASS/FAIL line with the measured quantities.

Shared expensive artifacts (the planar grid-oracle field) are computed
once in module fixtures and reused; their construction time is charged
to the criterion whose budget covers them.
"""

import time

import numpy as np
import pytest

from discenv.discs import (
    AnalyticDisc,
    DiscLoop,
    cesaro_convergence,
    cesaro_mean,
    outer_function,
    outer_interior,
    random_smooth_loop,
    roots_of_unity,
    winding_number,
)
from discenv.domains import (
    Obstacle,
    ball,
    counterexample_pair,
    planar_annulus_pair,
    shell_disc,
)
from discenv.envelope import (
    EnvelopeRequest,
    interior_probe_points,
    minimize_envelope,
    partial_envelope,
    sample_feasible_values,
)
from discenv.expressions import obstacle_from_expression
from discenv.families import BlaschkeFamily, ConstantFamily, VerticalFamily
from discenv.functionals import QuadratureGrid, poisson_functional
from discenv.hartogs import HartogsPair, hartogs_homotopy, homotopy_trace
from discenv.oracles import (
    grid_obstacle_solver,
    kiselman_psi,
    submean_check,
)

LOG_ABS = obstacle_from_expression("log(abs(z1))", 1)


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def standard_hartogs():
    return HartogsPair(ball(1.0, 1),
                       lambda zp: np.full(zp.shape[:-1], 0.25),
                       lambda zp: np.full(zp.shape[:-1], 1.0))


HARTOGS_PHI = Obstacle(
    lambda p: np.real(p[..., 0]) + np.abs(p[..., 1]) ** 2,
    description="Re z1 plus squared fiber modulus",
    rotation_invariant_last=True)


def hartogs_envelope(pair, z1, m=512, starts=8, budget=400):
    x = [z1, 0.0]
    fams = [VerticalFamily(x, winding=1, s_range=(0.25, 1.0)),
            VerticalFamily(x, winding=2, s_range=(0.25, 1.0))]
    req = EnvelopeRequest(pair=(pair.W, pair.X), phi=HARTOGS_PHI, x=x,
                          families=fams, grid=QuadratureGrid(m), seed=0,
                          starts=starts, budget=budget)
    return minimize_envelope(req)


def annulus_envelope(x, m=256, starts=4):
    w, x_spec = planar_annulus_pair()
    fams = [ConstantFamily([x]),
            BlaschkeFamily([x], n_zeros=1, s_range=(1.0, 2.0)),
            BlaschkeFamily([x], n_zeros=2, s_range=(1.0, 2.0))]
    req = EnvelopeRequest(pair=(w, x_spec), phi=LOG_ABS, x=[x],
                          families=fams, grid=QuadratureGrid(m), seed=0,
                          starts=starts, budget=300)
    return minimize_envelope(req)


@pytest.fixture(scope="module")
def annulus_field():
    """Grid-oracle field for the annulus at spacing 1/256 (one solve at
    half the configured 1/128); build time is charged to criterion 2."""
    pair = planar_annulus_pair()
    t0 = time.perf_counter()
    field = grid_obstacle_solver(pair, LOG_ABS,
                                 bounds=(-2.1, 2.1, -2.1, 2.1),
                                 spacing=1.0 / 128, tol=1e-6)
    return field, time.perf_counter() - t0


def test_criterion_1_kiselman_identity():
    pair = standard_hartogs()
    t0 = time.perf_counter()
    worst_target = worst_psi = 0.0
    for z1 in [0.0, 0.3, -0.3, 0.3j, -0.3j]:
        res = hartogs_envelope(pair, z1)
        target = np.real(complex(z1)) + 1.0 / 16
        psi = kiselman_psi(pair, HARTOGS_PHI, [z1])
        worst_target = max(worst_target, abs(res.value - target))
        worst_psi = max(worst_psi, psi - res.value)
        assert res.feasible
    elapsed = time.perf_counter() - t0
    ok = worst_target <= 1e-2 and worst_psi <= 1e-3 and elapsed <= 60.0
    assert report(1, ok, f"Kiselman identity on 5 base points, max error "
                         f"{worst_target:.2e}, max psi excess {worst_psi:.2e}, "
                         f"runtime {elapsed:.1f}s")


def test_criterion_2_annulus_disc_formula(annulus_field):
    field, grid_elapsed = annulus_field
    t0 = time.perf_counter()
    worst = 0.0
    for x in [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 1.9]:
        res = annulus_envelope(x)
        truth = max(np.log(x), 0.0) if x > 0 else 0.0
        worst = max(worst, abs(res.value - truth))
        assert res.feasible
    env_elapsed = time.perf_counter() - t0
    xs, ys = field.points()
    zz = xs[None, :] + 1j * ys[:, None]
    interior = planar_annulus_pair()[1].margin(zz[:, :, None]) > 2 * field.h
    closed_form = np.maximum(np.log(np.maximum(np.abs(zz), 1e-300)), 0.0)
    sup_err = float(np.max(np.abs(field.values - closed_form)[interior]))
    elapsed = grid_elapsed + env_elapsed
    ok = worst <= 2e-2 and sup_err <= 1e-2 and elapsed <= 120.0 \
        and abs(field.h - 1.0 / 256) <= 1e-12
    assert report(2, ok, f"annulus disc formula at 9 points, max envelope "
                         f"error {worst:.2e}, grid sup-error {sup_err:.2e} "
                         f"at h=1/256, runtime {elapsed:.1f}s")


def test_criterion_3_partial_envelope_staircase():
    w, x_spec = planar_annulus_pair()
    values = {}
    for eps in [0.5, 0.2, 0.05]:
        fams = [BlaschkeFamily([0.0], n_zeros=1, s_range=(1.0, 2.0))]
        req = EnvelopeRequest(pair=(w, x_spec), phi=LOG_ABS, x=[0.0],
                              families=fams, grid=QuadratureGrid(256),
                              seed=0, starts=4, budget=300)
        values[eps] = partial_envelope(req, eps)
    noise = 1e-3
    ok = values[0.5] <= values[0.2] + noise \
        and values[0.2] <= values[0.05] + noise \
        and abs(values[0.05]) <= 5e-2
    assert report(3, ok, "partial-boundary staircase at the origin, values "
                         + ", ".join(f"eps={e}: {v:.2e}"
                                     for e, v in values.items()))


def test_criterion_4_shell_disc_structure():
    rng = np.random.default_rng(2024)
    phi = Obstacle(lambda p: np.sum(np.abs(p) ** 2, axis=-1))
    worst = dict(centre=0.0, norm=0.0, residual=0.0, functional=0.0)
    for trial in range(100):
        n = 2 + trial % 2
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x *= rng.uniform(0, 1.99) / np.linalg.norm(x)
        disc = shell_disc(x)
        worst["centre"] = max(worst["centre"],
                              float(np.max(np.abs(disc.centre - x))))
        worst["norm"] = max(worst["norm"], float(np.max(np.abs(
            np.linalg.norm(disc.samples, axis=1) - 3.0))))
        worst["residual"] = max(worst["residual"], disc.holomorphy_residual)
        worst["functional"] = max(worst["functional"],
                                  abs(poisson_functional(disc, phi) - 9.0))
    ok = worst["centre"] <= 1e-12 and worst["norm"] <= 1e-12 \
        and worst["residual"] <= 1e-10 and worst["functional"] <= 1e-10
    assert report(4, ok, f"shell discs over 100 random centres, centre error "
                         f"{worst['centre']:.1e}, norm deviation "
                         f"{worst['norm']:.1e}, residual "
                         f"{worst['residual']:.1e}, functional error "
                         f"{worst['functional']:.1e}")


def random_admissible_disc(rng, k, m=256):
    zeta = roots_of_unity(m)
    c = 0.3 * (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2)
    base = c + 0.1 * (rng.standard_normal()
                      + 1j * rng.standard_normal()) * zeta \
        + 0.05 * (rng.standard_normal() + 1j * rng.standard_normal()) * zeta ** 2
    fn = np.full(m, 0.55 + 0.0j)
    for _ in range(k):
        a = 0.5 * (rng.standard_normal() + 1j * rng.standard_normal()) \
            / np.sqrt(2)
        fn = fn * (zeta - a) / (1.0 - np.conj(a) * zeta)
    fn = fn * np.exp(0.08 * (rng.standard_normal()
                             + 1j * rng.standard_normal()) * zeta)
    return AnalyticDisc(np.stack([base, fn], axis=1))


def test_criterion_5_hartogs_homotopy():
    pair = standard_hartogs()
    rng = np.random.default_rng(42)
    zeta = roots_of_unity(256)
    worst_dev = worst_mod = 0.0
    min_margin = np.inf
    windings_ok = True
    for trial in range(20):
        k = trial % 3
        f = random_admissible_disc(rng, k)
        assert np.min(pair.W.margin(f.samples)) > 0
        trace = homotopy_trace(pair, f, steps=32)
        worst_dev = max(worst_dev, float(np.max(trace.centre_deviations)))
        min_margin = min(min_margin, float(np.min(trace.min_margins)))
        windings_ok &= bool(np.all(trace.windings == k))
        ft = hartogs_homotopy(f, 0.5)
        expected = np.abs(outer_interior(f.component(1), 0.5 * zeta))
        worst_mod = max(worst_mod, float(np.max(
            np.abs(np.abs(ft.component(1)) - expected))))
    ok = worst_dev <= 1e-10 and min_margin > 0 and windings_ok \
        and worst_mod <= 1e-8
    assert report(5, ok, f"homotopy over 20 random discs, centre deviation "
                         f"{worst_dev:.1e}, min margin {min_margin:.3f}, "
                         f"winding constant {windings_ok}, boundary modulus "
                         f"error {worst_mod:.1e}")


def test_criterion_6_outer_factorization():
    rng = np.random.default_rng(7)
    m = 256
    zeta = roots_of_unity(m)
    probes = interior_probe_points()
    worst_ratio = worst_mod = 0.0
    windings_ok = True
    for _ in range(50):
        nz = int(rng.integers(0, 4))
        zeros = 0.6 * rng.uniform(0, 1, nz) ** 0.5 * np.exp(
            2j * np.pi * rng.uniform(0, 1, nz))
        fn = np.full(m, 1.3 * np.exp(1j * rng.uniform(0, 2 * np.pi)),
                     dtype=complex)
        for a in zeros:
            fn = fn * (zeta - a)
        fn = fn * np.exp(0.1 * (rng.standard_normal()
                                + 1j * rng.standard_normal()) * zeta)
        H = outer_function(fn)
        worst_mod = max(worst_mod,
                        float(np.max(np.abs(np.abs(H) - np.abs(fn)))))
        fz = AnalyticDisc(fn).evaluate(probes)[:, 0]
        Hz = outer_interior(fn, probes)
        worst_ratio = max(worst_ratio, float(np.max(np.abs(fz / Hz))))
        windings_ok &= (winding_number(fn) == nz)
    ok = worst_ratio <= 1.0 + 1e-8 and worst_mod <= 1e-8 and windings_ok
    assert report(6, ok, f"outer factorization over 50 discs, max interior "
                         f"|f/H| {worst_ratio:.10f}, boundary modulus error "
                         f"{worst_mod:.1e}, winding matches zero count "
                         f"{windings_ok}")


def test_criterion_7_cesaro_convergence():
    # single-frequency exactness of the Fejer weight
    m_w = 256
    wv = roots_of_unity(m_w)
    zeta = roots_of_unity(32)
    h = AnalyticDisc((0.5 + 0.2 * wv)[:, None])
    exactness = 0.0
    for freq, j in [(1, 8), (3, 8), (9, 16)]:
        bump = ((1.0 + 0.4 * zeta)[None, :] * (wv ** freq)[:, None])[:, :, None]
        F = DiscLoop(h.samples[:, None, :] + bump)
        sm = cesaro_mean(F, h, j)
        expected = h.samples[:, None, :] + (j + 1.0 - freq) / (j + 1.0) * bump
        exactness = max(exactness,
                        float(np.max(np.abs(sm.samples - expected))))
    errors = dict(cesaro_convergence(seed=0, amplitude=0.02))
    ok = exactness <= 1e-12 and errors[256] < errors[8] and errors[256] < 1e-3
    assert report(7, ok, f"Fejer weight exactness {exactness:.1e}, smooth "
                         f"loop sup error {errors[8]:.1e} at j=8 down to "
                         f"{errors[256]:.1e} at j=256")


def test_criterion_8_counterexample_gap():
    w, x_spec, phi = counterexample_pair()
    grid = QuadratureGrid(128)
    fams = [ConstantFamily([0.0, 0.0]),
            BlaschkeFamily([0.0, 0.0], n_zeros=1, s_range=(0.05, 0.29)),
            BlaschkeFamily([0.0, 0.0], n_zeros=1, s_range=(0.71, 0.99)),
            BlaschkeFamily([0.0, 0.0], n_zeros=2, s_range=(0.71, 0.99))]
    from discenv.families import PolynomialFamily
    fams.append(PolynomialFamily([0.0, 0.0], degree=3, scale=0.15))
    req = EnvelopeRequest(pair=(w, x_spec), phi=phi, x=[0.0, 0.0],
                          families=fams, grid=grid, seed=0)
    sampled = sample_feasible_values(req, 150)
    # vertical reference discs through (z1, 0) on the radius-1/2 circle:
    # slab fiber for the upper half, annular fiber for the lower half
    m = 128
    zeta = roots_of_unity(m)
    circle_values = []
    for theta in np.linspace(0.0, 2 * np.pi, 16, endpoint=False):
        z1 = 0.5 * np.exp(1j * theta)
        s = 0.15 if np.imag(z1) >= 0 else 0.85
        disc = AnalyticDisc(np.stack([np.full(m, z1), s * zeta], axis=1))
        assert np.min(w.margin(disc.samples)) > 0
        circle_values.append(poisson_functional(disc, phi))
    reference = float(np.max(circle_values))
    circle_bound = float(np.mean(circle_values))
    ok = sampled.size >= 500 and float(np.min(sampled)) >= -0.9 \
        and reference <= -1.0 + 1e-12 and circle_bound <= -1.0 + 1e-12
    assert report(8, ok, f"counterexample gap, {sampled.size} feasible "
                         f"sampled discs with min average "
                         f"{np.min(sampled):.3f} vs reference subextension "
                         f"value {reference:.3f} certified on the half-radius "
                         f"circle (mean {circle_bound:.3f} bounds the origin)")


def test_criterion_9_plurisubharmonicity(annulus_field):
    field, _ = annulus_field
    rng = np.random.default_rng(0)
    raw = rng.standard_normal(30) + 1j * rng.standard_normal(30)
    probes = (raw * 1.7 * rng.uniform(0, 1, 30) / np.abs(raw))[:, None]
    grid_report = submean_check(
        lambda pts: field.interpolate(pts[..., 0]),
        lambda pts: 2.0 - np.abs(pts[..., 0]) - 0.1,
        probes, radii=[0.05, 0.15], tol=1e-3)

    pair = standard_hartogs()
    cache = {}

    def profile(pts):
        out = np.empty(pts.shape[:-1])
        flat = pts.reshape(-1, 1)
        vals = out.reshape(-1)
        for i, z1 in enumerate(flat[:, 0]):
            key = complex(z1)
            if key not in cache:
                cache[key] = hartogs_envelope(pair, key, m=128, starts=2,
                                              budget=80).value
            vals[i] = cache[key]
        return out

    profile_report = submean_check(
        profile,
        lambda pts: 1.0 - np.abs(pts[..., 0]) - 0.2,
        np.array([[0.0 + 0.0j], [0.2 + 0.1j]]), radii=[0.15],
        angles=16, tol=1e-3)
    ok = grid_report.passed and profile_report.passed
    assert report(9, ok, f"sub-mean-value checks, grid field violation "
                         f"{grid_report.max_violation:.1e} over "
                         f"{grid_report.checked} circles, envelope profile "
                         f"violation {profile_report.max_violation:.1e} over "
                         f"{profile_report.checked} circles (tol 1e-3)")
