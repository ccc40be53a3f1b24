"""Analytic discs on a uniform boundary grid.

A disc is represented by its boundary values at the M-th roots of unity
(M a power of two).  The discrete Fourier coefficients split into a
nonnegative-frequency part, which determines the holomorphic extension
to the interior, and a negative-frequency part whose magnitude measures
how far the samples are from being boundary values of a holomorphic map.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, UndersampledError


def _is_pow2(m):
    return m >= 1 and (m & (m - 1)) == 0


@lru_cache(maxsize=32)
def roots_of_unity(m):
    """The M-th roots of unity exp(2*pi*i*j/M), j = 0..M-1, as a cached
    read-only array."""
    zeta = np.exp(2j * np.pi * np.arange(m) / m)
    zeta.flags.writeable = False
    return zeta


@lru_cache(maxsize=32)
def root_powers(m, k):
    """``roots_of_unity(m) ** k``, the boundary of zeta -> zeta^k, as a
    cached read-only array."""
    table = roots_of_unity(m) ** k
    table.flags.writeable = False
    return table


def taylor_eval(coeffs, z):
    """The power series sum_j coeffs[j] * z**j by Horner's rule.

    ``coeffs`` has shape (K,) or (K, n) and z any shape; the result has
    shape z.shape + coeffs.shape[1:].
    """
    coeffs = np.asarray(coeffs)
    z = np.asarray(z, dtype=complex)
    zz = z[(...,) + (None,) * (coeffs.ndim - 1)]
    out = np.zeros(z.shape + coeffs.shape[1:], dtype=complex)
    for c in coeffs[::-1]:
        out = out * zz + c
    return out


def circle_eval(coeffs, radii, n):
    """The power series sum_j coeffs[b, j] * z**j of each series b of a
    batch at z = r * exp(2*pi*i*q/n), q = 0..n-1, for each r in ``radii``.

    On a circle the series is an inverse DFT of the coefficients scaled
    by r**j and folded mod n, so one FFT replaces the Horner loop.
    ``coeffs`` has shape (B, K) or (B, K, d); the result has shape
    (B, len(radii), n) + coeffs.shape[2:], radius-major.
    """
    coeffs = np.asarray(coeffs)
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    k = coeffs.shape[1]
    extra = (1,) * (coeffs.ndim - 2)
    powers = (radii[:, None] ** np.arange(k)).reshape((-1,) + extra + (k,))
    # with the coefficient axis last and contiguous, the products and the
    # fold run along rows rather than across the short trailing axes
    rows = np.ascontiguousarray(np.moveaxis(coeffs, 1, -1))
    scaled = rows[:, None] * powers
    if k % n:
        scaled = np.pad(scaled, [(0, 0)] * (scaled.ndim - 1) + [(0, -k % n)])
    folded = scaled.reshape(scaled.shape[:-1] + (-1, n)).sum(axis=-2)
    return np.moveaxis(n * np.fft.ifft(folded, axis=-1), -1, 2)


class AnalyticDisc:
    """Boundary samples of a map from the closed unit disc into C^n.

    Attributes
    ----------
    samples : (M, n) complex array, values at the M-th roots of unity.
    coeffs : (M, n) complex array, Fourier coefficients in numpy FFT
        order (index k >= M/2 stands for frequency k - M).
    holomorphy_residual : largest coefficient magnitude at a negative
        frequency, over all components.
    """

    def __init__(self, samples):
        samples = np.asarray(samples, dtype=complex)
        if samples.ndim == 1:
            samples = samples[:, None]
        if samples.ndim != 2:
            raise ConfigurationError("samples must be an (M, n) array")
        m = samples.shape[0]
        if m < 8 or not _is_pow2(m):
            raise ConfigurationError(
                f"sample count must be a power of two >= 8, got {m}")
        self.samples = samples
        self.coeffs = np.fft.fft(samples, axis=0) / m
        self.holomorphy_residual = float(
            np.max(np.abs(self.coeffs[m // 2:, :])))

    @property
    def M(self):
        return self.samples.shape[0]

    @property
    def n(self):
        return self.samples.shape[1]

    @property
    def centre(self):
        """Value at 0, the frequency-0 coefficient."""
        return self.coeffs[0].copy()

    def evaluate(self, z):
        """Holomorphic extension at interior points z (any shape).

        Uses the nonnegative-frequency (Taylor) coefficients only, so the
        result is meaningful when the disc is valid.
        """
        return taylor_eval(self.coeffs[:self.M // 2], z)

    def component(self, i):
        """Boundary samples of component i as a flat array."""
        return self.samples[:, i].copy()


def winding_number(samples):
    """Winding number about 0 of a closed loop of boundary samples.

    Computed from summed phase increments (the argument principle): for
    a disc component with no zeros on the circle this equals the number
    of zeros in the open disc, with multiplicity.  Adjacent samples must
    subtend a phase increment below pi, otherwise the loop is declared
    undersampled.  Loops run along the last axis; a batch gives an int array.
    """
    s = np.asarray(samples, dtype=complex)
    if not np.isfinite(s).all():  # NaN passes the guards below, inf the sum
        raise DegenerateInputError("sample not finite for winding number")
    if np.min(np.abs(s)) <= 1e-12:
        raise DegenerateInputError("sample too close to 0 for winding number")
    dtheta = np.angle(np.roll(s, -1, axis=-1) / s)
    if np.max(np.abs(dtheta)) >= np.pi - 1e-9:
        raise UndersampledError(
            "phase increment >= pi between adjacent samples; oversample")
    w = np.sum(dtheta, axis=-1) / (2 * np.pi)
    k = np.rint(w).astype(int)
    off = np.extract(np.abs(w - k) > 1e-6, w)
    if off.size:
        raise UndersampledError(
            f"total phase change {off[0]} is not an integer")
    return int(k) if k.ndim == 0 else k


def _analytic_log_coeffs(samples):
    """Taylor coefficients of h + i*k where h extends log|f| harmonically.

    k is the harmonic conjugate normalised to have zero mean on the
    circle, so exp of the returned series is the outer function with the
    same boundary modulus as f.
    """
    s = np.asarray(samples, dtype=complex).ravel()
    m = s.size
    if np.min(np.abs(s)) <= 1e-12:
        raise DegenerateInputError("vanishing boundary sample in outer function")
    if not np.isfinite(s).all():  # NaN passes the guard above
        raise DegenerateInputError(
            "boundary sample not finite in outer function")
    u = np.log(np.abs(s))
    uhat = np.fft.fft(u) / m
    a = np.zeros(m, dtype=complex)
    a[0] = uhat[0]
    a[1:m // 2] = 2.0 * uhat[1:m // 2]
    a[m // 2] = uhat[m // 2]
    return a


def outer_function(samples):
    """Boundary samples of the outer function H with |H| = |f| on the circle.

    H = exp(h + i*k) with h the harmonic extension of log|f| and k its
    conjugate, normalised so that k has zero mean.  H is zero-free on the
    closed disc; if f is a valid disc component then f/H is bounded by 1
    in modulus on the interior.
    """
    s = np.asarray(samples, dtype=complex).ravel()
    m = s.size
    a = _analytic_log_coeffs(s)
    boundary_log = np.fft.ifft(a * m)
    return np.exp(boundary_log)


def outer_interior(samples, z):
    """The outer function of ``samples`` evaluated at interior points z."""
    a = _analytic_log_coeffs(samples)
    return np.exp(taylor_eval(a[:a.size // 2 + 1], z))


class DiscLoop:
    """A circle's worth of analytic discs: samples F(z, w) for w on the circle.

    ``samples`` has shape (M_w, M, n); slice j is the disc F(., w_j) at
    the M_w-th root of unity w_j.
    """

    def __init__(self, samples):
        samples = np.asarray(samples, dtype=complex)
        if samples.ndim != 3:
            raise ConfigurationError("DiscLoop samples must be (M_w, M, n)")
        mw, m, _ = samples.shape
        if not (_is_pow2(mw) and _is_pow2(m) and m >= 8 and mw >= 4):
            raise ConfigurationError("DiscLoop grid sizes must be powers of two")
        self.samples = samples

    @property
    def M_w(self):
        return self.samples.shape[0]

    @property
    def M(self):
        return self.samples.shape[1]

    @property
    def n(self):
        return self.samples.shape[2]


def cesaro_mean(F, h, j):
    """Fejer-smoothed loop: weights (j+1-|k|)/(j+1) on the w-frequencies
    of F - h, with h added back.

    h must be sampled on the loop's w-grid (h.M == F.M_w).  Converges
    uniformly to F as j grows, while each w-slice stays a linear
    combination (with nonnegative kernel weights) of the input slices,
    so z-holomorphy is preserved.
    """
    if not isinstance(F, DiscLoop):
        raise ConfigurationError("F must be a DiscLoop")
    if h.M != F.M_w:
        raise ConfigurationError("h must be sampled on the loop's w-grid")
    if F.M_w < 4 * j + 4:
        raise UndersampledError(f"need M_w >= {4 * j + 4} for Cesaro order {j}")
    mw = F.M_w
    g = F.samples - h.samples[:, None, :]
    ghat = np.fft.fft(g, axis=0) / mw
    freqs = np.abs(np.fft.fftfreq(mw, 1.0 / mw))
    weights = np.clip(1.0 - freqs / (j + 1.0), 0.0, None)
    smoothed = np.fft.ifft(ghat * weights[:, None, None] * mw, axis=0)
    return DiscLoop(smoothed + h.samples[:, None, :])


def random_smooth_loop(m=64, m_w=2048, seed=0, amplitude=0.02):
    """A seeded smooth DiscLoop in C around a random base disc h.

    F(z, w) = h(w) + sum over 1 <= |k| <= 8 of c_k(z) w^k with
    geometrically decaying amplitudes; h and each c_k are polynomials of
    degree 4, so every w-slice is a valid disc.  Returns (F, h) with h
    sampled on the loop's w-grid.
    """
    rng = np.random.default_rng(seed)
    zeta = roots_of_unity(m)
    wv = roots_of_unity(m_w)
    shape = (5, 1)  # the coefficients of a polynomial of degree 4 in C

    def rand_poly(scale):
        c = scale * (rng.standard_normal(shape)
                     + 1j * rng.standard_normal(shape))
        return taylor_eval(c, zeta)

    h_coeffs = 0.3 * (rng.standard_normal(shape)
                      + 1j * rng.standard_normal(shape))
    h_vals = taylor_eval(h_coeffs, wv)
    h = AnalyticDisc(h_vals)

    samples = np.tile(h_vals[:, None, :], (1, m, 1))
    for k in range(1, 9):
        for sign in (1, -1):
            ck = rand_poly(amplitude * 0.5 ** k)
            samples += ck[None, :, :] * (wv ** (sign * k))[:, None, None]
    return DiscLoop(samples), h


def cesaro_convergence(m=64, m_w=2048, j_values=(8, 16, 32, 64, 128, 256),
                       seed=0, amplitude=0.02):
    """Sup distance between the smoothed loop and the original for each j.

    Returns a list of (j, sup_error) pairs; for a smooth loop the errors
    decrease as j grows.
    """
    loop, h = random_smooth_loop(m=m, m_w=m_w, seed=seed, amplitude=amplitude)
    out = []
    for j in j_values:
        smoothed = cesaro_mean(loop, h, j)
        err = float(np.max(np.abs(smoothed.samples - loop.samples)))
        out.append((int(j), err))
    return out
