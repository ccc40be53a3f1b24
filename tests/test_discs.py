"""Disc representation: Fourier round trips, winding numbers, outer
functions and Cesaro smoothing."""

import numpy as np
import pytest

from conftest import constant_disc
from discenv.discs import (
    AnalyticDisc,
    DiscLoop,
    cesaro_mean,
    circle_eval,
    outer_function,
    outer_interior,
    random_smooth_loop,
    root_powers,
    roots_of_unity,
    taylor_eval,
    winding_number,
)
from discenv.errors import ConfigurationError, DegenerateInputError, \
    UndersampledError


def blaschke(zeta, a):
    return (zeta - a) / (1.0 - np.conj(a) * zeta)


# ---------------------------------------------------------------------------
# AnalyticDisc
# ---------------------------------------------------------------------------

def test_constant_disc_centre_and_residual():
    p = np.array([1.0 + 2.0j, -0.5j])
    disc = constant_disc(p, m=64)
    assert np.allclose(disc.centre, p, atol=1e-14)
    assert disc.holomorphy_residual == 0.0


def test_identity_disc_coefficients():
    zeta = roots_of_unity(64)
    disc = AnalyticDisc(zeta)
    assert abs(disc.coeffs[1, 0] - 1.0) <= 1e-12
    mask = np.ones(64, dtype=bool)
    mask[1] = False
    assert np.max(np.abs(disc.coeffs[mask, 0])) <= 1e-12
    assert abs(disc.centre[0]) <= 1e-12


def test_conjugate_samples_flagged_non_holomorphic():
    zeta = roots_of_unity(64)
    disc = AnalyticDisc(np.conj(zeta))
    assert abs(disc.holomorphy_residual - 1.0) <= 1e-12


def test_sample_count_must_be_power_of_two():
    with pytest.raises(ConfigurationError):
        AnalyticDisc(np.ones(12, dtype=complex))
    with pytest.raises(ConfigurationError):
        AnalyticDisc(np.ones(4, dtype=complex))
    with pytest.raises(ConfigurationError, match=r"an \(M, n\) array"):
        AnalyticDisc(np.ones((8, 2, 2), dtype=complex))


@pytest.mark.parametrize("m", [8, 64, 512, 4096])
def test_fourier_round_trip(m):
    rng = np.random.default_rng(m)
    samples = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
    disc = AnalyticDisc(samples)
    back = np.fft.ifft(disc.coeffs * m, axis=0)
    rel = np.max(np.abs(back - samples)) / np.max(np.abs(samples))
    assert rel <= 1e-12


def test_evaluate_matches_polynomial():
    zeta = roots_of_unity(128)
    disc = AnalyticDisc(1.0 + 0.5 * zeta + 0.25j * zeta ** 3)
    z = np.array([0.0, 0.3 + 0.1j, -0.6j])
    expected = 1.0 + 0.5 * z + 0.25j * z ** 3
    assert np.max(np.abs(disc.evaluate(z)[:, 0] - expected)) <= 1e-12


@pytest.mark.parametrize("coeff_shape", [(1,), (7,), (1, 2), (7, 3)])
@pytest.mark.parametrize("z", [
    0.4 - 0.3j,
    np.array([0.0, 0.5j, -0.9]),
    np.array([[0.1, 0.2j, 0.0], [-0.7 + 0.1j, 0.95, -0.3 - 0.6j]]),
])
def test_taylor_eval_matches_power_sum(coeff_shape, z):
    rng = np.random.default_rng(len(coeff_shape) * 10 + coeff_shape[0])
    c = rng.standard_normal(coeff_shape) \
        + 1j * rng.standard_normal(coeff_shape)
    z = np.asarray(z, dtype=complex)
    zz = z[(...,) + (None,) * (c.ndim - 1)]
    expected = sum(c[j] * zz ** j for j in range(c.shape[0]))
    got = taylor_eval(c, z)
    assert got.shape == z.shape + c.shape[1:]
    assert np.max(np.abs(got - expected)) <= 1e-13


@pytest.mark.parametrize("coeff_shape", [(1,), (5,), (16,), (48,),
                                         (5, 2), (16, 3), (48, 2),
                                         (21,), (37, 2)])
def test_circle_eval_matches_taylor_eval(coeff_shape):
    # n = 16: K < n or K not a multiple of n (zero padding), K = n, and K
    # a multiple of n
    n = 16
    radii = np.array([0.0, 0.25, 0.95, 1.0])
    rng = np.random.default_rng(sum(coeff_shape))
    c = rng.standard_normal(coeff_shape) \
        + 1j * rng.standard_normal(coeff_shape)
    # decay like 1/j keeps the sums O(1) against the absolute tolerance
    c /= np.arange(1, coeff_shape[0] + 1).reshape(
        (-1,) + (1,) * (c.ndim - 1))
    got = circle_eval(c[None], radii, n)
    points = radii[:, None] * roots_of_unity(n)[None, :]
    assert got.shape == (1, radii.size, n) + c.shape[1:]
    assert np.max(np.abs(got[0] - taylor_eval(c, points))) <= 1e-13


def one_series_circle_eval(coeffs, radii, n):
    """circle_eval of one series (K,) or (K, d), with the coefficient axis
    first, as it was written before it took batches."""
    k = coeffs.shape[0]
    powers = np.asarray(radii)[:, None] ** np.arange(k)
    scaled = coeffs * powers[(...,) + (None,) * (coeffs.ndim - 1)]
    if k % n:
        pad = [(0, 0), (0, -k % n)] + [(0, 0)] * (coeffs.ndim - 1)
        scaled = np.pad(scaled, pad)
    folded = scaled.reshape(
        (len(radii), -1, n) + coeffs.shape[1:]).sum(axis=1)
    return n * np.fft.ifft(folded, axis=1)


@pytest.mark.parametrize("shape", [(5, 48), (3, 37, 2), (8, 256, 2),
                                   (2, 64, 3)])
def test_circle_eval_rows_equal_the_one_series_evaluation(shape):
    """Each series of a batch evaluates to the same floats as the
    one-series fold does for it alone."""
    rng = np.random.default_rng(shape[1])
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    radii = (0.25, 0.5, 0.75, 0.95)
    got = circle_eval(c, radii, 32)
    for b in range(shape[0]):
        assert np.array_equal(got[b], one_series_circle_eval(c[b], radii, 32))


def test_cached_tables_are_read_only_and_bounded():
    with pytest.raises(ValueError):
        roots_of_unity(16)[0] = 1.0


@pytest.mark.parametrize("m", [8, 64, 256])
def test_coarse_roots_of_unity_are_every_kth_fine_node(m):
    """The nodes of a search at m nodes are every (512/m)-th node at 512,
    bit for bit, and so are the boundaries of zeta -> zeta^k."""
    step = 512 // m
    assert roots_of_unity(m).tobytes() == roots_of_unity(512)[::step].tobytes()
    for k in (1, 2, 3):
        assert root_powers(m, k).tobytes() == \
            root_powers(512, k)[::step].tobytes()


# ---------------------------------------------------------------------------
# winding_number
# ---------------------------------------------------------------------------

def test_winding_constant_is_zero():
    assert winding_number(np.full(64, 2.0 - 1.0j)) == 0


def test_winding_of_cube():
    zeta = roots_of_unity(64)
    assert winding_number(zeta ** 3) == 3


def test_winding_blaschke_with_two_zeros():
    # zeros at 0 and 0.3, argument principle gives 2
    zeta = roots_of_unity(256)
    samples = 1.5 * zeta * blaschke(zeta, 0.3)
    assert winding_number(samples) == 2


def test_winding_rejects_sample_near_zero():
    zeta = roots_of_unity(64)
    with pytest.raises(DegenerateInputError):
        winding_number(zeta - 1.0)


def test_winding_rejects_undersampled_loop():
    zeta = roots_of_unity(8)
    with pytest.raises(UndersampledError):
        winding_number(zeta ** 4)
    # a non-finite sample is degenerate input, which no oversampling
    # mends: it is refused before any phase increment is taken
    for bad in (np.inf, np.nan):
        with pytest.raises(DegenerateInputError, match="not finite"):
            winding_number(np.where(np.arange(16) == 3, bad,
                                    roots_of_unity(16)))


def test_winding_of_a_batch_is_one_int_per_loop():
    zeta = roots_of_unity(64)
    loops = np.stack([np.full(64, 2.0 - 1.0j), zeta, zeta ** 3,
                      1.5 * zeta * blaschke(zeta, 0.3)])
    k = winding_number(loops)
    assert k.dtype.kind == "i" and k.tolist() == [0, 1, 3, 2]
    assert winding_number(np.stack([loops, loops[::-1]])).tolist() \
        == [[0, 1, 3, 2], [2, 3, 1, 0]]
    assert type(winding_number(loops[2])) is int


def test_winding_of_a_batch_rejects_any_failing_loop():
    zeta = roots_of_unity(64)
    with pytest.raises(DegenerateInputError):
        winding_number(np.stack([zeta, zeta - 1.0]))
    with pytest.raises(UndersampledError):
        winding_number(np.stack([zeta, zeta ** 32]))


def test_winding_additivity_random_blaschke():
    rng = np.random.default_rng(3)
    zeta = roots_of_unity(512)
    for _ in range(20):
        kf, kg = rng.integers(0, 4, size=2)
        f = np.full(512, 1.0 + 0.0j)
        for a in 0.7 * rng.uniform(0, 1, kf) * np.exp(
                2j * np.pi * rng.uniform(0, 1, kf)):
            f = f * blaschke(zeta, a)
        g = np.full(512, 2.0 + 0.0j)
        for a in 0.7 * rng.uniform(0, 1, kg) * np.exp(
                2j * np.pi * rng.uniform(0, 1, kg)):
            g = g * blaschke(zeta, a)
        assert winding_number(f * g) == winding_number(f) + winding_number(g)


# ---------------------------------------------------------------------------
# outer_function
# ---------------------------------------------------------------------------

def test_outer_of_rotation_is_constant():
    zeta = roots_of_unity(128)
    H = outer_function(1.7 * zeta)
    assert np.max(np.abs(H - 1.7)) <= 1e-10
    assert np.max(np.abs(1.7 * zeta / H - zeta)) <= 1e-10


def test_outer_of_blaschke_product_has_constant_modulus():
    zeta = roots_of_unity(256)
    f = 1.5 * zeta * blaschke(zeta, 0.4 - 0.1j)
    H = outer_function(f)
    assert np.max(np.abs(np.abs(H) - 1.5)) <= 1e-8
    # the ratio is unimodular on the circle
    assert np.max(np.abs(np.abs(f / H) - 1.0)) <= 1e-8


def test_outer_of_nonvanishing_function_recovers_modulus():
    zeta = roots_of_unity(256)
    f = 2.0 + 0.5 * zeta
    H = outer_function(f)
    ratio = f / H
    assert np.max(np.abs(np.abs(ratio) - 1.0)) <= 1e-8
    # a zero-free disc component equals its outer part up to a constant phase
    assert np.max(np.abs(ratio - ratio[0])) <= 1e-8


def test_outer_function_is_a_valid_disc_component():
    rng = np.random.default_rng(11)
    zeta = roots_of_unity(256)
    f = 2.0 + 0.4 * zeta + 0.2j * zeta ** 2 \
        + 0.05 * (rng.standard_normal() + 1j * rng.standard_normal()) * zeta ** 3
    H = outer_function(f)
    assert AnalyticDisc(H).holomorphy_residual <= 1e-8
    assert np.max(np.abs(np.abs(H) - np.abs(f))) <= 1e-8


def test_outer_rejects_vanishing_boundary():
    zeta = roots_of_unity(64)
    with pytest.raises(DegenerateInputError):
        outer_function(zeta - 1.0)
    with pytest.raises(DegenerateInputError, match="not finite"):
        outer_function(np.where(np.arange(64) == 3, np.nan, zeta))


def test_outer_bounds_ratio_on_interior():
    # |f/H| <= 1 on the interior for components with zeros inside
    rng = np.random.default_rng(5)
    zeta = roots_of_unity(256)
    z = 0.8 * roots_of_unity(64)
    for _ in range(10):
        nz = rng.integers(1, 4)
        zeros = 0.6 * rng.uniform(0, 1, nz) ** 0.5 * np.exp(
            2j * np.pi * rng.uniform(0, 1, nz))
        f = np.full(256, 1.2 + 0.0j)
        for a in zeros:
            f = f * (zeta - a)
        fz = AnalyticDisc(f).evaluate(z)[:, 0]
        Hz = outer_interior(f, z)
        assert np.max(np.abs(fz / Hz)) <= 1.0 + 1e-8


# ---------------------------------------------------------------------------
# cesaro_mean
# ---------------------------------------------------------------------------

def base_loop(m=32, m_w=256):
    wv = roots_of_unity(m_w)
    h = AnalyticDisc((0.5 + 0.2 * wv)[:, None])
    return h, wv


def test_cesaro_fixes_loops_without_w_dependence():
    h, wv = base_loop()
    F = DiscLoop(np.tile(h.samples[:, None, :], (1, 32, 1)))
    for j in [0, 3, 16]:
        sm = cesaro_mean(F, h, j)
        assert np.max(np.abs(sm.samples - F.samples)) <= 1e-12


def test_cesaro_single_frequency_weight():
    h, wv = base_loop()
    zeta = roots_of_unity(32)
    c = 1.0 + 0.4 * zeta
    for freq, j in [(1, 8), (3, 8), (5, 16)]:
        bump = (c[None, :] * (wv ** freq)[:, None])[:, :, None]
        F = DiscLoop(h.samples[:, None, :] + bump)
        sm = cesaro_mean(F, h, j)
        expected = h.samples[:, None, :] + (j + 1.0 - freq) / (j + 1.0) * bump
        assert np.max(np.abs(sm.samples - expected)) <= 1e-12


def test_cesaro_requires_enough_w_samples():
    h, wv = base_loop()
    F = DiscLoop(np.tile(h.samples[:, None, :], (1, 32, 1)))
    with pytest.raises(UndersampledError):
        cesaro_mean(F, h, 100)
    with pytest.raises(ConfigurationError, match="must be a DiscLoop"):
        cesaro_mean(F.samples, h, 0)
    with pytest.raises(ConfigurationError, match="the loop's w-grid"):
        cesaro_mean(F, AnalyticDisc(h.samples[::2]), 0)
    for shape in [(256, 32), (6, 32, 1), (256, 12, 1)]:
        with pytest.raises(ConfigurationError, match="DiscLoop"):
            DiscLoop(np.ones(shape, dtype=complex))


def test_cesaro_uniform_convergence_on_smooth_loop():
    F, h = random_smooth_loop(m=32, m_w=2048, seed=2, amplitude=0.02)
    errors = []
    for j in [8, 16, 32, 64, 128, 256]:
        sm = cesaro_mean(F, h, j)
        errors.append(np.max(np.abs(sm.samples - F.samples)))
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-3


def test_cesaro_preserves_slice_holomorphy():
    def negative_frequency_residual(loop):
        # largest negative-frequency z-coefficient over all w-slices
        c = np.fft.fft(loop.samples, axis=1) / loop.M
        return float(np.max(np.abs(c[:, loop.M // 2:, :])))

    F, h = random_smooth_loop(m=32, m_w=512, seed=7, amplitude=0.05)
    before = negative_frequency_residual(F)
    after = negative_frequency_residual(cesaro_mean(F, h, 16))
    assert before <= 1e-8
    assert after <= before + 1e-12
