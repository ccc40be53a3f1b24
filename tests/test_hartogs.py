"""Hartogs pairs, vertical discs, the centre-preserving homotopy, and
component classification by winding number."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from discenv import config, hartogs
from discenv.discs import AnalyticDisc, _analytic_log_coeffs, \
    outer_interior, roots_of_unity, taylor_eval
from discenv.domains import Obstacle, ball
from discenv.errors import (
    ConfigurationError,
    DegenerateInputError,
    NonHolomorphicError,
    PreconditionError,
)
from discenv.families import VerticalFamily
from discenv.functionals import poisson_functional
from discenv.hartogs import (
    HartogsPair,
    classify_component,
    hartogs_homotopy,
    homotopy_trace,
    vertical_disc,
)


def hartogs_pair(r=0.25, R=1.0):
    return HartogsPair(ball(1.0, 1),
                       lambda zp: np.full(zp.shape[:-1], r),
                       lambda zp: np.full(zp.shape[:-1], R))


def admissible_disc(seed, k, m=256):
    """A random disc with boundary in the standard Hartogs shell and a
    last component with k zeros in the disc."""
    rng = np.random.default_rng(seed)
    zeta = roots_of_unity(m)
    c = 0.3 * (rng.standard_normal() + 1j * rng.standard_normal())
    fp = c + 0.1 * (rng.standard_normal() + 1j * rng.standard_normal()) * zeta
    fn = np.full(m, 0.55 + 0.0j)
    for _ in range(k):
        a = 0.35 * (rng.standard_normal() + 1j * rng.standard_normal())
        fn = fn * (zeta - a) / (1.0 - np.conj(a) * zeta)
    fn = fn * np.exp(0.08 * (rng.standard_normal()
                             + 1j * rng.standard_normal()) * zeta)
    return AnalyticDisc(np.stack([fp, fn], axis=1))


@st.composite
def admissible_discs(draw, m=256):
    """(f, k): an admissible_disc-style disc with boundary in the standard
    Hartogs shell and k zeros, each of modulus at most 0.8, in its last
    component."""
    def point(radius):
        return draw(st.floats(0.0, radius)) \
            * np.exp(2j * np.pi * draw(st.floats(0.0, 1.0)))

    zeta = roots_of_unity(m)
    k = draw(st.integers(0, 2))
    fp = point(0.6) + point(0.1) * zeta
    fn = np.full(m, 0.55 + 0.0j)
    for _ in range(k):
        a = point(0.8)
        fn = fn * (zeta - a) / (1.0 - np.conj(a) * zeta)
    # |fn| stays within 0.55 * exp(+-0.2), inside (1/4, 1)
    fn = fn * np.exp(point(0.2) * zeta)
    return AnalyticDisc(np.stack([fp, fn], axis=1)), k


# ---------------------------------------------------------------------------
# vertical_disc
# ---------------------------------------------------------------------------

def test_vertical_disc_boundary_and_centre():
    pair = hartogs_pair()
    disc = vertical_disc(pair, [0.0], 0.5)
    assert np.min(pair.W.margin(disc.samples)) > 0
    assert np.max(np.abs(disc.centre - np.array([0.0, 0.0]))) <= 1e-14
    assert np.max(np.abs(np.abs(disc.samples[:, 1]) - 0.5)) <= 1e-14


def test_vertical_disc_winding():
    pair = hartogs_pair()
    disc = vertical_disc(pair, [0.2j], 0.5, k=2)
    assert classify_component(disc) == 2


def test_vertical_disc_average_of_rotation_invariant_obstacle():
    pair = hartogs_pair()
    phi = Obstacle(lambda p: np.real(p[..., 0]) + np.abs(p[..., 1]) ** 2,
                   rotation_invariant_last=True)
    disc = vertical_disc(pair, [0.3], 0.6)
    assert abs(poisson_functional(disc, phi) - (0.3 + 0.36)) <= 1e-12


def test_vertical_disc_preconditions():
    pair = hartogs_pair()
    with pytest.raises(PreconditionError):
        vertical_disc(pair, [0.0], 0.1)
    with pytest.raises(PreconditionError):
        vertical_disc(pair, [1.5], 0.5)
    with pytest.raises(ConfigurationError):
        vertical_disc(pair, [0.0], 0.5, k=0)
    with pytest.raises(ConfigurationError, match="dimension mismatch"):
        vertical_disc(pair, [0.0, 0.0], 0.5)
    with pytest.raises(ConfigurationError, match="base must be a DomainSpec"):
        HartogsPair("ball", pair.r_fn, pair.R_fn)


@pytest.mark.parametrize("m", [8, 256])
def test_vertical_disc_refuses_a_winding_that_aliases(m):
    """A winding k needs 2k < m nodes, as VerticalFamily.build_many
    checks: at k = m/2 and above the samples alias, at m/2 - 1 the disc
    winds k times."""
    pair = hartogs_pair()
    for k in (m // 2, m - 1):
        with pytest.raises(ConfigurationError,
                           match="sample grid too small for winding"):
            vertical_disc(pair, [0.0], 0.5, k=k, m=m)
    disc = vertical_disc(pair, [0.0], 0.5, k=m // 2 - 1, m=m)
    assert classify_component(disc) == m // 2 - 1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_vertical_family_builds_the_tiled_discs_and_vertical_disc(k):
    """build_many writes the discs that np.tile of the centre, with the
    last column overwritten, gave, and vertical_disc's samples, bit for
    bit."""
    m, centre = 256, np.array([0.3 - 0.2j, 0.1j, 0.0])
    family = VerticalFamily(centre, winding=k)
    P = np.log([[0.3], [0.55], [0.9]])
    built, excess = family.build_many(P, m)
    s = np.exp(P[:, 0])
    tiled = np.tile(centre, (len(P), m, 1))
    tiled[:, :, -1] = s[:, None] * roots_of_unity(m) ** k
    assert built.tobytes() == tiled.tobytes()
    assert not np.any(excess)
    pair = HartogsPair(ball(1.0, 2), lambda zp: 0.25, lambda zp: 1.0)
    for row, scale in zip(built, s):
        disc = vertical_disc(pair, centre[:-1], scale, k=k, m=m)
        assert disc.samples.tobytes() == row.tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(r=st.floats(-0.5, 1.0), width=st.floats(1e-9, 2.0),
       base_radius=st.floats(0.1, 2.0), seed=st.integers(0, 2 ** 32 - 1))
def test_scalar_radii_give_the_margins_of_full_arrays(r, width, base_radius,
                                                     seed):
    """The config pair's number radii, callables that return a float,
    give the W and X margins of radii spread by np.full, bit for bit."""
    R = r + width
    W, X, _, pair = config._hartogs_pair(base_radius=base_radius, r=r, R=R)
    full = HartogsPair(ball(base_radius, 1),
                       lambda zp: np.full(zp.shape[:-1], r),
                       lambda zp: np.full(zp.shape[:-1], R))
    rng = np.random.default_rng(seed)
    points = (rng.uniform(-2, 2, (3, 64, 2))
              + 1j * rng.uniform(-2, 2, (3, 64, 2)))
    points[0, :8, 1] = r  # on the radii, where a margin is 0
    points[0, 8:16, 1] = R
    for domain, other in ((W, full.W), (X, full.X)):
        assert domain.margin(points).tobytes() == \
            other.margin(points).tobytes()
    assert pair.radii(points[0, 0, :1]) == full.radii(points[0, 0, :1])


# ---------------------------------------------------------------------------
# hartogs_homotopy
# ---------------------------------------------------------------------------

def test_homotopy_at_one_is_identity():
    f = admissible_disc(0, 1)
    ft = hartogs_homotopy(f, 1.0)
    assert np.max(np.abs(ft.samples - f.samples)) <= 1e-10


def test_homotopy_fixes_vertical_discs():
    pair = hartogs_pair()
    f = vertical_disc(pair, [0.1], 0.5, k=2)
    for t in [0.0, 0.3, 1.0]:
        ft = hartogs_homotopy(f, t)
        assert np.max(np.abs(ft.samples - f.samples)) <= 1e-10


def test_homotopy_endpoint_is_vertical_type():
    f = admissible_disc(3, 1)
    f0 = hartogs_homotopy(f, 0.0)
    # constant base, constant last-component modulus
    assert np.max(np.abs(f0.samples[:, 0] - f.centre[0])) <= 1e-10
    mods = np.abs(f0.samples[:, 1])
    assert np.max(np.abs(mods - mods[0])) <= 1e-10
    assert abs(mods[0] - abs(outer_interior(f.component(1),
                                            np.array([0.0]))[0])) <= 1e-10


def test_homotopy_boundary_modulus_matches_outer_function():
    f = admissible_disc(4, 2)
    zeta = roots_of_unity(f.M)
    for t in [0.25, 0.75]:
        ft = hartogs_homotopy(f, t)
        expected = np.abs(outer_interior(f.component(1), t * zeta))
        assert np.max(np.abs(np.abs(ft.component(1)) - expected)) <= 1e-8


@pytest.mark.parametrize("k", [0, 1, 2])
def test_homotopy_matches_horner_formulation(k):
    # reference: the same formula evaluated pointwise by Horner's rule
    f = admissible_disc(10 + k, k)
    fn = f.component(1)
    zeta = roots_of_unity(f.M)
    a = _analytic_log_coeffs(fn)[:f.M // 2 + 1]
    for t in [0.0, 0.3, 1.0]:
        ratio = np.exp(taylor_eval(a, t * zeta) - taylor_eval(a, zeta))
        expected = np.stack([f.evaluate(t * zeta)[:, 0], fn * ratio], axis=1)
        ft = hartogs_homotopy(f, t)
        assert np.max(np.abs(ft.samples - expected)) <= 1e-12


def test_homotopy_parameter_validation():
    f = admissible_disc(5, 0)
    with pytest.raises(ConfigurationError):
        hartogs_homotopy(f, 1.5)
    zeta = roots_of_unity(64)
    bad = AnalyticDisc(np.stack([np.zeros(64), zeta - 1.0], axis=1))
    with pytest.raises(DegenerateInputError):
        hartogs_homotopy(bad, 0.5)
    with pytest.raises(ConfigurationError, match="dimension >= 2"):
        homotopy_trace(hartogs_pair(), AnalyticDisc(zeta), steps=4)
    # a NaN sample of the last component, which no comparison refuses
    last = np.where(np.arange(16) == 3, np.nan, roots_of_unity(16))
    nan = AnalyticDisc(np.stack([np.zeros(16), last], axis=1))
    with pytest.raises(DegenerateInputError, match="not finite"):
        homotopy_trace(hartogs_pair(), nan, steps=4)


# ---------------------------------------------------------------------------
# classify_component
# ---------------------------------------------------------------------------

def test_classify_constant_disc():
    pair = hartogs_pair()
    samples = np.tile(np.array([0.0, 0.5 + 0.0j]), (64, 1))
    assert classify_component(AnalyticDisc(samples)) == 0


def test_classify_constructed_blaschke_factorization():
    f = admissible_disc(6, 2)
    assert classify_component(f) == 2


def test_classify_a_batch_gives_one_label_per_disc():
    zeta = roots_of_unity(64)
    batch = np.stack([np.stack([np.zeros(64), 0.5 * zeta ** k], axis=1)
                      for k in (0, 1, 3)])
    assert classify_component(batch).tolist() == [0, 1, 3]
    batch[1, :, 1] = 0.5 * np.conj(zeta)
    with pytest.raises(NonHolomorphicError, match="negative winding -1"):
        classify_component(batch)


def test_classify_rejects_negative_winding():
    zeta = roots_of_unity(64)
    samples = np.stack([np.zeros(64), 0.5 * np.conj(zeta)], axis=1)
    with pytest.raises(NonHolomorphicError):
        classify_component(AnalyticDisc(samples))


def test_zero_winding_homotopy_ends_constant():
    f = admissible_disc(7, 0)
    f0 = hartogs_homotopy(f, 0.0)
    assert np.max(np.abs(f0.samples - f0.centre[None, :])) <= 1e-8


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

def test_trace_invariants_and_sandwich():
    pair = hartogs_pair()
    for seed, k in [(10, 0), (11, 1), (12, 2)]:
        f = admissible_disc(seed, k)
        trace = homotopy_trace(pair, f, steps=16)
        assert np.max(trace.centre_deviations) <= 1e-10
        assert np.min(trace.min_margins) > 0
        assert np.all(trace.windings == k)
        # boundary modulus of the last component stays between the radii
        zeta = roots_of_unity(f.M)
        for t in [0.0, 0.5, 1.0]:
            mods = np.abs(hartogs_homotopy(f, t).component(1))
            assert np.all(mods > 0.25)
            assert np.all(mods < 1.0)


def test_trace_json_round_trip():
    pair = hartogs_pair()
    trace = homotopy_trace(pair, admissible_disc(13, 1), steps=4)
    rows = json.loads(trace.to_json())
    assert len(rows) == 5
    assert set(rows[0]) == {"t", "min_margin", "centre_deviation", "winding"}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(disc=admissible_discs(), steps=st.integers(1, 40))
def test_trace_keeps_centre_and_winding_and_matches_the_one_t_view(disc,
                                                                    steps):
    """Every row of a trace holds the centre and the winding, and is what
    the one-t view hartogs_homotopy(f, t) gives at its t, bit for bit."""
    f, k = disc
    pair = hartogs_pair()
    trace = homotopy_trace(pair, f, steps=steps)
    assert trace.t_values.size == steps + 1
    assert np.max(trace.centre_deviations) <= 1e-10
    assert np.all(trace.windings == k)
    for t, margin, deviation, winding in zip(
            trace.t_values, trace.min_margins, trace.centre_deviations,
            trace.windings):
        ft = hartogs_homotopy(f, t)
        assert margin == np.min(pair.W.margin(ft.samples))
        assert deviation == np.max(np.abs(ft.centre - f.centre))
        assert winding == classify_component(ft)


@pytest.mark.parametrize("nodes, batches", [(5 * 256, 7), (100, 34)])
def test_trace_in_several_batches_equals_one_batch(monkeypatch, nodes,
                                                   batches):
    pair = hartogs_pair()
    f = admissible_disc(14, 2)
    one = homotopy_trace(pair, f, steps=33).to_json()
    calls = []
    kernel = hartogs._homotopy_samples
    monkeypatch.setattr(hartogs, "_homotopy_samples",
                        lambda f, ts: calls.append(ts) or kernel(f, ts))
    monkeypatch.setattr(hartogs, "TRACE_BATCH_NODES", nodes)
    assert homotopy_trace(pair, f, steps=33).to_json() == one
    assert len(calls) == batches
