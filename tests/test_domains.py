"""Domain pairs, signed margins, the shell disc, and the two-component
counterexample pair."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from discenv import domains
from discenv.domains import (
    CURVE_SAMPLES,
    _curve_points,
    _curve_table,
    _dist_to_curve,
    ball,
    counterexample_pair,
    planar_annulus_pair,
    shell_disc,
    shell_pair,
)
from discenv.errors import ConfigurationError, PreconditionError
from discenv.hartogs import HartogsPair


def random_points(rng, n, count, radius):
    pts = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    scale = radius * rng.uniform(0, 1, count) ** (1.0 / (2 * n))
    return pts * (scale / np.linalg.norm(pts, axis=1))[:, None]


# ---------------------------------------------------------------------------
# margins
# ---------------------------------------------------------------------------

def test_ball_margin_at_origin():
    b = ball(4.0, 2)
    assert abs(b.margin(np.zeros((1, 2), dtype=complex))[0] - 4.0) <= 1e-14


COORD = st.floats(allow_nan=True, allow_infinity=True, width=64)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(r=st.floats(-1e300, 1e300), n=st.integers(1, 3),
       coords=st.lists(st.tuples(COORD, COORD), min_size=12, max_size=12),
       rows=st.integers(0, 4))
def test_ball_margin_is_r_minus_the_norm_bit_for_bit(r, n, coords, rows):
    """The ball's margin has the bits of r - np.linalg.norm(p, axis=-1)."""
    p = np.array([complex(a, b) for a, b in coords[:rows * n]]
                 ).reshape(rows, n)
    with np.errstate(all="ignore"):  # huge coordinates overflow alike
        got = ball(r, n).margin(p)
        ref = r - np.linalg.norm(p, axis=-1)
    assert got.tobytes() == ref.tobytes()


def test_shell_margin_between_spheres():
    w, x = shell_pair(2)
    p = np.array([[3.0 + 0.0j, 0.0 + 0.0j]])
    assert abs(w.margin(p)[0] - 1.0) <= 1e-14


def test_annulus_margin_negative_at_origin():
    w, x = planar_annulus_pair()
    assert w.margin(np.zeros((1, 1), dtype=complex))[0] < 0
    assert x.margin(np.zeros((1, 1), dtype=complex))[0] > 0


def test_margin_rejects_dimension_mismatch():
    b = ball(1.0, 2)
    with pytest.raises(ConfigurationError):
        b.margin(np.zeros((4, 3), dtype=complex))


def test_shell_pair_containment_sweep():
    w, x = shell_pair(2)
    rng = np.random.default_rng(0)
    pts = random_points(rng, 2, 10_000, 4.5)
    in_w = w.margin(pts) > 0
    assert np.all(x.margin(pts[in_w]) > 0)


def test_hartogs_membership_matches_radii():
    pair = HartogsPair(ball(1.0, 1),
                       lambda zp: np.full(zp.shape[:-1], 0.25),
                       lambda zp: np.full(zp.shape[:-1], 1.0))
    rng = np.random.default_rng(1)
    pts = np.stack([random_points(rng, 1, 10_000, 1.3)[:, 0],
                    random_points(rng, 1, 10_000, 1.3)[:, 0]], axis=1)
    zp, zn = pts[:, 0], pts[:, 1]
    expected = (np.abs(zp) < 1.0) & (np.abs(zn) > 0.25) & (np.abs(zn) < 1.0)
    assert np.array_equal(pair.W.margin(pts) > 0, expected)
    in_w = pair.W.margin(pts) > 0
    assert np.all(pair.X.margin(pts[in_w]) > 0)


# ---------------------------------------------------------------------------
# shell_disc
# ---------------------------------------------------------------------------

def test_shell_disc_at_origin_is_scaled_identity():
    disc = shell_disc(np.zeros(2))
    zeta = np.exp(2j * np.pi * np.arange(disc.M) / disc.M)
    assert np.max(np.abs(disc.samples[:, 0] - 3.0 * zeta)) <= 1e-12
    assert np.max(np.abs(disc.samples[:, 1])) <= 1e-12


def test_shell_disc_with_zero_first_coordinate():
    x = np.array([0.0, 0.8 + 0.3j])
    disc = shell_disc(x)
    rho = np.sqrt(9.0 - abs(x[1]) ** 2)
    zeta = np.exp(2j * np.pi * np.arange(disc.M) / disc.M)
    assert np.max(np.abs(disc.samples[:, 0] - rho * zeta)) <= 1e-12
    assert np.max(np.abs(np.linalg.norm(disc.samples, axis=1) - 3.0)) <= 1e-12


def test_shell_disc_random_sweep():
    rng = np.random.default_rng(4)
    w, _ = shell_pair(3)
    for _ in range(100):
        n = int(rng.integers(2, 4))
        x = random_points(rng, n, 1, 1.99)[0]
        disc = shell_disc(x)
        assert np.max(np.abs(disc.centre - x)) <= 1e-12
        norms = np.linalg.norm(disc.samples, axis=1)
        assert np.max(np.abs(norms - 3.0)) <= 1e-12
        assert disc.holomorphy_residual <= 1e-10


def test_shell_disc_boundary_margin():
    # the sphere of radius 3 sits one unit away from both shell boundaries
    w, _ = shell_pair(2)
    disc = shell_disc(np.array([1.0 + 0.5j, 0.3]))
    assert np.min(w.margin(disc.samples)) >= 1.0 - 1e-9


def test_shell_disc_preconditions():
    with pytest.raises(PreconditionError):
        shell_disc(np.array([2.5, 0.0]))
    with pytest.raises(PreconditionError):
        shell_disc(np.array([0.5]))


# ---------------------------------------------------------------------------
# counterexample pair
# ---------------------------------------------------------------------------

def test_counterexample_origin_membership():
    w, x, phi = counterexample_pair()
    origin = np.zeros((1, 2), dtype=complex)
    assert w.margin(origin)[0] > 0
    assert x.margin(origin)[0] > 0


def test_counterexample_curve_endpoint_in_tube_and_w2():
    w, x, phi = counterexample_pair()
    delta = 0.3
    z1 = 1.0 + np.exp(2j * np.pi / 3.0)
    z2 = 1.0 - delta / 2.0
    p = np.array([[z1, z2]])
    assert w.margin(p)[0] > 0
    assert 1.0 - delta < abs(z2) < 1.0


def test_counterexample_obstacle_is_minus_one_on_v1():
    w, x, phi = counterexample_pair()
    p = np.array([[0.5j, 0.0]])
    assert abs(phi(p)[0] + 1.0) <= 1e-12


def test_counterexample_obstacle_range_and_containment():
    w, x, phi = counterexample_pair()
    rng = np.random.default_rng(9)
    pts = np.stack([random_points(rng, 1, 10_000, 1.2)[:, 0],
                    random_points(rng, 1, 10_000, 1.2)[:, 0]], axis=1)
    in_w = w.margin(pts) > 0
    assert np.all(x.margin(pts[in_w]) > 0)
    vals = phi(pts[in_w])
    assert np.all(vals >= -1.0 - 1e-12)
    assert np.all(vals <= 0.0 + 1e-12)


def test_counterexample_parameter_validation():
    with pytest.raises(ConfigurationError):
        counterexample_pair(delta=0.6)
    with pytest.raises(ConfigurationError):
        counterexample_pair(tau=0.5)
    for eps_moll in (0.0, -1.0):
        with pytest.raises(ConfigurationError, match="eps_moll"):
            counterexample_pair(eps_moll=eps_moll)


@pytest.mark.parametrize("tau", [0.05, 0.1, 0.15, 0.19])
def test_counterexample_margins_take_the_tube_wherever_it_is_larger(tau):
    delta = 0.3
    w, x, _ = counterexample_pair(delta=delta, tau=tau)
    rng = np.random.default_rng(5)
    near = curve_samples(delta)[rng.integers(0, CURVE_SAMPLES, 2000)]
    near += 0.25 * (rng.standard_normal(near.shape)
                    + 1j * rng.standard_normal(near.shape))
    # 0.94 times the curve's start: slab margins 0.06, tube margin tau - 0.06
    start = 0.94 * curve_samples(delta)[:1]
    pts = np.concatenate([start, near])
    a1, a2 = np.abs(pts[:, 0]), np.abs(pts[:, 1])
    slabs = np.maximum(np.minimum(1.0 - a1, delta - a2),
                       np.minimum(1.0 - a1, np.minimum(a2 - (1.0 - delta),
                                                       1.0 - a2)))
    box = np.minimum(1.0 - a1, 1.0 - a2)
    tube = tau - _dist_to_curve(pts, _curve_table(delta))
    assert np.array_equal(w.margin(pts), np.maximum(slabs, tube))
    assert np.array_equal(x.margin(pts), np.maximum(box, tube))
    assert abs(w.margin(start)[0] - max(0.06, tau - 0.06)) <= 1e-12


def brute_dist_to_curve(points, delta):
    """Reference: the distance to every curve sample, 512 points at a time."""
    c1, c2 = _curve_points(delta, np.linspace(0.0, 1.0, CURVE_SAMPLES))
    flat = points.reshape(-1, 2)
    out = np.empty(flat.shape[0])
    block = 512
    for lo in range(0, flat.shape[0], block):
        chunk = flat[lo:lo + block]
        d2 = (np.abs(chunk[:, 0:1] - c1[None, :]) ** 2
              + np.abs(chunk[:, 1:2] - c2[None, :]) ** 2)
        out[lo:lo + block] = np.sqrt(d2.min(axis=1))
    return out.reshape(points.shape[:-1])


def assert_tube_distance_exact(points, delta):
    """The pruned distance, and the W and X margins built on it, equal bit
    for bit what the full scan gives."""
    points = np.asarray(points, dtype=complex).reshape(-1, 2)
    expected = brute_dist_to_curve(points, delta)
    got = _dist_to_curve(points, _curve_table(delta))
    assert np.array_equal(got, expected, equal_nan=True)
    w, x, _ = counterexample_pair(delta=delta)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(domains, "_dist_to_curve",
                   lambda p, table: brute_dist_to_curve(p, delta))
        w_ref, x_ref = w.margin(points), x.margin(points)
    assert np.array_equal(w.margin(points), w_ref, equal_nan=True)
    assert np.array_equal(x.margin(points), x_ref, equal_nan=True)
    return got


def curve_samples(delta):
    c1, c2 = _curve_points(delta, np.linspace(0.0, 1.0, CURVE_SAMPLES))
    return np.stack([c1, c2], axis=1)


_placement = st.tuples(
    st.sampled_from(["sample", "midway"]),
    st.integers(0, CURVE_SAMPLES - 1),
    st.sampled_from([0.0, 1e-9, 1e-4, 0.01, 0.05, 0.3]),
    st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(delta=st.sampled_from([0.1, 0.45]),
       placements=st.lists(_placement, min_size=1, max_size=12))
def test_tube_distance_equals_full_scan_near_curve(delta, placements):
    """Points on curve samples and midway between two block centres (where
    the nearest centre's block need not hold the nearest sample), each
    with an offset from none to 0.3."""
    s = curve_samples(delta)
    centres = s[32::64]
    points = []
    for kind, k, scale, off in placements:
        if kind == "sample":
            base = s[k]
        else:
            b = min(k // 64, len(centres) - 2)
            base = 0.5 * (centres[b] + centres[b + 1])
        points.append(base + scale * (np.array(off[:2]) + 1j * np.array(off[2:])))
    assert_tube_distance_exact(np.array(points), delta)


@pytest.mark.parametrize("delta", [0.1, 0.45])
def test_curve_table_radius_covers_each_block(delta):
    """Exactness rests on each radius covering its block.  The comparisons
    with the full scan cannot see a radius 1 % short: that cuts the block
    holding the nearest sample only if its centre is farther than the
    nearest centre by 0.99 of its radius, and on this curve no point
    searched came closer than 0.72."""
    c1, c2, mid, radius = _curve_table(delta)
    assert np.array_equal(mid, np.arange(32, CURVE_SAMPLES, 64))
    blocks = curve_samples(delta).reshape(-1, 64, 2)
    centres = np.stack([c1[mid], c2[mid]], axis=1)
    spread = np.linalg.norm(blocks - centres[:, None, :], axis=-1).max(axis=1)
    assert np.allclose(radius, spread, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("delta", [0.1, 0.45])
def test_tube_distance_far_points_and_empty_batch(delta):
    rng = np.random.default_rng(4)
    far = 50.0 * (rng.standard_normal((300, 2)) + 1j * rng.standard_normal((300, 2)))
    box = np.stack([rng.uniform(-0.5, 2.5, 700) + 1j * rng.uniform(-1.5, 1.5, 700),
                    rng.uniform(-1.0, 2.0, 700) + 1j * rng.uniform(-1.0, 1.0, 700)],
                   axis=1)
    huge = np.array([[1.0 + 0j, 1e6j], [1e8, -1e8]])
    assert_tube_distance_exact(np.concatenate([far, box, huge]), delta)
    assert assert_tube_distance_exact(np.zeros((0, 2)), delta).shape == (0,)


@pytest.mark.parametrize("delta", [0.1, 0.45])
def test_tube_distance_non_finite_coordinates(delta):
    nan, inf = float("nan"), float("inf")
    pts = np.array([[nan, 0.5], [1.5, complex(0.2, nan)], [inf, 0.3],
                    [1.5, complex(0.2, -inf)], [2.0, 0.5]])
    d = assert_tube_distance_exact(pts, delta)
    assert np.isnan(d[:2]).all()
    assert np.isposinf(d[2:4]).all()
    assert np.isfinite(d[4])


def test_obstacle_rotation_invariance_flag():
    from discenv.domains import Obstacle
    phi = Obstacle(lambda p: np.real(p[..., 0]) + np.abs(p[..., 1]) ** 2,
                   rotation_invariant_last=True)
    rng = np.random.default_rng(12)
    pts = np.stack([random_points(rng, 1, 50, 1.0)[:, 0],
                    random_points(rng, 1, 50, 1.0)[:, 0]], axis=1)
    eta = np.exp(2j * np.pi * rng.uniform(0, 1, 50))
    rotated = pts.copy()
    rotated[:, 1] = rotated[:, 1] * eta
    assert np.max(np.abs(phi(rotated) - phi(pts))) <= 1e-10
