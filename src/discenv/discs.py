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

from .errors import (
    ConfigurationError,
    DegenerateInputError,
    NonHolomorphicError,
    UndersampledError,
)

#: Default tolerance on the negative-frequency residual of a valid disc.
TAU_HOL = 1e-8


def _is_pow2(m):
    return m >= 1 and (m & (m - 1)) == 0


@lru_cache(maxsize=32)
def roots_of_unity(m):
    """The M-th roots of unity exp(2*pi*i*j/M), j = 0..M-1, as a cached
    read-only array."""
    zeta = np.exp(2j * np.pi * np.arange(m) / m)
    zeta.flags.writeable = False
    return zeta


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


@lru_cache(maxsize=16)
def _radius_powers(radii, k):
    """The read-only table r**j, j = 0..k-1, one row per r in ``radii``
    (a tuple); bounded, since the homotopy's radii vary with t."""
    powers = np.asarray(radii)[:, None] ** np.arange(k)
    powers.flags.writeable = False
    return powers


def circle_eval(coeffs, radii, n):
    """The power series sum_j coeffs[b, j] * z**j of each series b of a
    batch at z = r * exp(2*pi*i*q/n), q = 0..n-1, for each r in ``radii``.

    On a circle the series is an inverse DFT of the coefficients scaled
    by r**j and folded mod n, so one FFT replaces the Horner loop.
    ``coeffs`` has shape (B, K) or (B, K, d); the result has shape
    (B, len(radii), n) + coeffs.shape[2:], radius-major.
    """
    coeffs = np.asarray(coeffs)
    radii = tuple(np.atleast_1d(np.asarray(radii, dtype=float)).tolist())
    k = coeffs.shape[1]
    extra = (1,) * (coeffs.ndim - 2)
    powers = _radius_powers(radii, k).reshape((len(radii),) + extra + (k,))
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

    def is_valid(self, tau=TAU_HOL):
        return self.holomorphy_residual <= tau

    def evaluate(self, z):
        """Holomorphic extension at interior points z (any shape).

        Uses the nonnegative-frequency (Taylor) coefficients only, so the
        result is meaningful when the disc is valid.
        """
        return taylor_eval(self.coeffs[:self.M // 2], z)

    def component(self, i):
        """Boundary samples of component i as a flat array."""
        return self.samples[:, i].copy()

    def shrink(self, s=None):
        """The disc zeta -> f(s*zeta), computed by Abel (Poisson) damping.

        Damps coefficient k by s^|k|, so rough imported boundary data is
        smoothed while already-holomorphic data is simply precomposed
        with multiplication by s.  Default s = 1 - 1/M.
        """
        if s is None:
            s = 1.0 - 1.0 / self.M
        if not 0 < s <= 1:
            raise ConfigurationError("shrink factor must lie in (0, 1]")
        m = self.M
        freqs = np.fft.fftfreq(m, 1.0 / m)
        damped = self.coeffs * (s ** np.abs(freqs))[:, None]
        return AnalyticDisc(np.fft.ifft(damped * m, axis=0))


def constant_disc(point, m=64):
    point = np.atleast_1d(np.asarray(point, dtype=complex))
    return AnalyticDisc(np.tile(point, (m, 1)))


def winding_number(samples):
    """Winding number about 0 of a closed loop of boundary samples.

    Computed from summed phase increments (the argument principle): for
    a disc component with no zeros on the circle this equals the number
    of zeros in the open disc, with multiplicity.  Adjacent samples must
    subtend a phase increment below pi, otherwise the loop is declared
    undersampled.
    """
    s = np.asarray(samples, dtype=complex).ravel()
    if np.min(np.abs(s)) <= 1e-12:
        raise DegenerateInputError("sample too close to 0 for winding number")
    dtheta = np.angle(np.roll(s, -1) / s)
    if np.max(np.abs(dtheta)) >= np.pi - 1e-9:
        raise UndersampledError(
            "phase increment >= pi between adjacent samples; oversample")
    total = float(np.sum(dtheta))
    w = total / (2 * np.pi)
    k = int(round(w))
    if abs(w - k) > 1e-6:
        raise UndersampledError(f"total phase change {w} is not an integer")
    return k


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

    def slice(self, j):
        return AnalyticDisc(self.samples[j])

    def max_residual(self):
        c = np.fft.fft(self.samples, axis=1) / self.M
        return float(np.max(np.abs(c[:, self.M // 2:, :])))


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


def random_smooth_loop(m=64, m_w=2048, n=1, seed=0, amplitude=0.02,
                       w_band=8, z_band=4):
    """A seeded smooth DiscLoop around a random base disc h.

    F(z, w) = h(w) + sum over 1 <= |k| <= w_band of c_k(z) w^k with
    geometrically decaying amplitudes; each c_k(z) is a low-degree
    polynomial, so every w-slice is a valid disc.  Returns (F, h) with h
    sampled on the loop's w-grid.
    """
    rng = np.random.default_rng(seed)
    zeta = roots_of_unity(m)
    wv = roots_of_unity(m_w)

    def rand_poly(scale):
        c = scale * (rng.standard_normal((z_band + 1, n))
                     + 1j * rng.standard_normal((z_band + 1, n)))
        return taylor_eval(c, zeta)

    h_coeffs = 0.3 * (rng.standard_normal((z_band + 1, n))
                      + 1j * rng.standard_normal((z_band + 1, n)))
    h_vals = taylor_eval(h_coeffs, wv)
    h = AnalyticDisc(h_vals)

    samples = np.tile(h_vals[:, None, :], (1, m, 1))
    for k in range(1, w_band + 1):
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


def _torus_coeffs(G, tau=TAU_HOL):
    """2-D Fourier coefficients of torus samples G[a, b] = G(zeta_a, zeta_b).

    Raises if there is significant mass outside the nonnegative quadrant.
    """
    G = np.asarray(G, dtype=complex)
    if G.ndim == 2:
        G = G[:, :, None]
    m = G.shape[0]
    if G.shape[1] != m or not _is_pow2(m):
        raise ConfigurationError("torus grid must be square with power-of-two side")
    c = np.fft.fft2(G, axes=(0, 1)) / m ** 2
    bad = np.abs(c.copy())
    bad[:m // 2, :m // 2, :] = 0.0  # nonnegative quadrant is allowed
    if np.max(bad) > tau:
        raise NonHolomorphicError(
            f"torus samples carry mass {np.max(bad):.3e} outside the "
            "nonnegative frequency quadrant")
    return c[:m // 2, :m // 2, :]


def diagonal_disc(G, theta0, tau=TAU_HOL):
    """The disc z -> G(e^{i*theta0} z, z) for bidisc-holomorphic torus data G."""
    c = _torus_coeffs(G, tau)
    k, _, n = c.shape
    m = 2 * k
    # the frequency-f coefficient of g is the sum over p + q = f of
    # c[p, q] e^{i p theta0}; f <= 2k - 2 < m, so every term fits
    phase = np.exp(1j * theta0 * np.arange(k))
    cp = c * phase[:, None, None]
    gcoeff = np.zeros((m, n), dtype=complex)
    for p in range(k):
        gcoeff[p:p + k] += cp[p]
    return AnalyticDisc(taylor_eval(gcoeff, roots_of_unity(m)))


def select_theta0(G, objective, tau=TAU_HOL):
    """Scan theta0 over the sample grid and keep the disc minimising
    ``objective(disc)``.

    The minimum over the grid is no larger than the grid average, which
    equals the double torus average of the integrand; ties go to the
    smallest grid index.

    Returns (theta0, value, disc).
    """
    G = np.asarray(G, dtype=complex)
    if G.ndim == 2:
        G = G[:, :, None]
    _torus_coeffs(G, tau)  # validate once
    m = G.shape[0]
    best = None
    for p in range(m):
        rows = (np.arange(m) + p) % m
        disc = AnalyticDisc(G[rows, np.arange(m), :])
        val = objective(disc)
        if best is None or val < best[1]:
            best = (2 * np.pi * p / m, val, disc)
    return best
