"""Domain pairs W inside X in C^n, with membership via signed margins.

A margin function is positive inside the domain, negative outside, and
behaves like the Euclidean distance to the boundary near the boundary.
Points are complex arrays of shape (..., n).
"""

from __future__ import annotations

import numpy as np

from .discs import AnalyticDisc, roots_of_unity
from .errors import ConfigurationError, PreconditionError


class DomainSpec:
    """A domain given by a vectorised signed margin function."""

    def __init__(self, name, n, margin_fn):
        self.name = name
        self.n = n
        self._margin_fn = margin_fn

    def margin(self, points):
        points = np.asarray(points, dtype=complex)
        if points.shape[-1] != self.n:
            raise ConfigurationError(
                f"{self.name}: expected points in C^{self.n}, "
                f"got last axis {points.shape[-1]}")
        return self._margin_fn(points)

    def __repr__(self):
        return f"DomainSpec({self.name!r}, n={self.n})"


class Obstacle:
    """The function phi on W: a vectorised evaluator plus metadata."""

    def __init__(self, eval_fn, description="", rotation_invariant_last=False):
        self._eval_fn = eval_fn
        self.description = description
        self.rotation_invariant_last = rotation_invariant_last

    def __call__(self, points):
        points = np.asarray(points, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.asarray(self._eval_fn(points), dtype=float)

    def __repr__(self):
        return f"Obstacle({self.description!r})"


def ball(r, n):
    """The Euclidean ball of radius r in C^n."""
    def margin(p):
        return r - np.linalg.norm(p, axis=-1)
    return DomainSpec(f"ball(r={r}, n={n})", n, margin)


def shell_pair(n):
    """W = (ball of radius 4) minus (closed ball of radius 1), X = ball of radius 4."""
    def w_margin(p):
        nr = np.linalg.norm(p, axis=-1)
        return np.minimum(4.0 - nr, nr - 1.0)
    w = DomainSpec(f"shell(n={n})", n, w_margin)
    return w, ball(4.0, n)


def planar_annulus_pair():
    """W = annulus 1 < |z| < 2 in C, X = disc of radius 2."""
    def w_margin(p):
        a = np.abs(p[..., 0])
        return np.minimum(2.0 - a, a - 1.0)
    w = DomainSpec("planar_annulus", 1, w_margin)
    return w, ball(2.0, 1)


def shell_disc(x, m=256):
    """The radius-3 sphere disc through a centre x in the ball of radius 2.

    First component is a Moebius rescaling
        zeta -> rho * (rho*zeta + x1) / (rho + conj(x1)*zeta),
    rho = sqrt(9 - |x2|^2 - ... - |xn|^2); the remaining components are
    constant.  The boundary lies exactly on the sphere of radius 3 and
    the centre is exactly x.
    """
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    n = x.size
    if n < 2:
        raise PreconditionError("shell disc needs dimension >= 2")
    if np.linalg.norm(x) >= 2.0:
        raise PreconditionError("centre must lie in the ball of radius 2")
    rho = np.sqrt(9.0 - np.sum(np.abs(x[1:]) ** 2))
    zeta = roots_of_unity(m)
    samples = np.tile(x, (m, 1))
    samples[:, 0] = rho * (rho * zeta + x[0]) / (rho + np.conj(x[0]) * zeta)
    return AnalyticDisc(samples)


# ---------------------------------------------------------------------------
# The two-component counterexample pair in C^2.
# ---------------------------------------------------------------------------

def _curve_points(delta, t):
    """The joining curve t -> (1 + e^{2 pi i (2t-1)/3}, (1 - delta/2) t)."""
    z1 = 1.0 + np.exp(2j * np.pi * (2.0 * t - 1.0) / 3.0)
    z2 = (1.0 - delta / 2.0) * t + 0j
    return z1, z2


CURVE_SAMPLES = 4096
_BLOCK = 64       # consecutive samples per pruning block; divides CURVE_SAMPLES
# points per pass: a pass holds a few complex (_CHUNK, 64) arrays of block
# distances; 128 points (one M = 128 disc) keep that near 0.5 MB when the
# envelope search hands over batches of discs
_CHUNK = 128


def _curve_table(delta):
    """The sampled curve and its blocks of _BLOCK consecutive samples.

    Returns (c1, c2, mid, radius): the curve samples, the index of each
    block's middle sample (its centre) and the block's covering radius
    max |sample - centre| in C^2.
    """
    c1, c2 = _curve_points(delta, np.linspace(0.0, 1.0, CURVE_SAMPLES))
    mid = np.arange(_BLOCK // 2, CURVE_SAMPLES, _BLOCK)
    radius = np.sqrt(np.max(
        np.abs(c1.reshape(-1, _BLOCK) - c1[mid, None]) ** 2
        + np.abs(c2.reshape(-1, _BLOCK) - c2[mid, None]) ** 2, axis=1))
    return c1, c2, mid, radius


def _dist_to_curve(points, table):
    """Euclidean distance in C^2 from each point to the sampled curve.

    Equal bit for bit to the minimum over all samples, found by branch and
    bound over the blocks of ``table``: the nearest block centre bounds
    the distance from above, and only blocks whose centre distance minus
    covering radius does not exceed that bound are scanned.
    """
    c1, c2, mid, radius = table
    flat = points.reshape(-1, 2)
    out = np.empty(flat.shape[0])
    for lo in range(0, flat.shape[0], _CHUNK):
        p1, p2 = flat[lo:lo + _CHUNK, 0:1], flat[lo:lo + _CHUNK, 1:2]
        centre = np.sqrt(np.abs(p1 - c1[mid]) ** 2 + np.abs(p2 - c2[mid]) ** 2)
        upper = centre.min(axis=1, keepdims=True)
        # Computed distances and radii are within a few roundoff units
        # (u = 1.1e-16) of exact, so a skipped block's samples compute to
        # at least its bound minus about 10 u (upper + curve diameter); the
        # slack 1e-9 upper + 1e-12 exceeds that 300-fold.  NaN fails every
        # comparison, so a NaN point keeps all blocks and gets NaN.
        rows, blocks = np.nonzero(
            ~(centre - radius > upper * (1.0 + 1e-9) + 1e-12))
        idx = blocks[:, None] * _BLOCK + np.arange(_BLOCK)
        d2 = np.abs(p1[rows] - c1[idx]) ** 2 + np.abs(p2[rows] - c2[idx]) ** 2
        best = np.full(p1.shape[0], np.inf)
        with np.errstate(invalid="ignore"):      # NaN rows, as in the scan
            np.minimum.at(best, rows, d2.min(axis=1))
        out[lo:lo + _CHUNK] = np.sqrt(best)
    return out.reshape(points.shape[:-1])


def _semicircle_dist(z, upper):
    """Distance to the radius-1/2 semicircle (upper or lower half)."""
    on_half = np.imag(z) >= 0 if upper else np.imag(z) <= 0
    radial = np.abs(np.abs(z) - 0.5)
    ends = np.minimum(np.abs(z - 0.5), np.abs(z + 0.5))
    return np.where(on_half, radial, ends)


def counterexample_pair(delta=0.3, tau=0.05, rho_u=0.05, eps_moll=0.01):
    """The pair in C^2 on which the disc formula has a gap.

    W is the union of a flat slab W1 = D x {|z2| < delta}, an annular
    slab W2 = D x {1-delta < |z2| < 1}, and a tube W3 of radius tau
    around the curve joining them.  X = D^2 union W3.  The obstacle is
    -1 on thickened semicircle products V1 in W1 and V2 in W2 and 0
    elsewhere, mollified linearly over a band of width eps_moll.

    Returns (W, X, phi).
    """
    if not 0 < delta < 0.5:
        raise ConfigurationError("delta must lie in (0, 1/2)")
    if not 0 < tau < 0.2:
        raise ConfigurationError("tube radius out of range")
    table = _curve_table(delta)

    def m1(p):
        return np.minimum(1.0 - np.abs(p[..., 0]), delta - np.abs(p[..., 1]))

    def m2(p):
        a2 = np.abs(p[..., 1])
        return np.minimum(1.0 - np.abs(p[..., 0]),
                          np.minimum(a2 - (1.0 - delta), 1.0 - a2))

    def m3(p, where):
        # tube margin is expensive and at most tau; evaluate it only where
        # it can exceed the other margin
        out = np.full(p.shape[:-1], -np.inf)
        out[where] = tau - _dist_to_curve(p[where], table)
        return out

    def w_margin(p):
        base = np.maximum(m1(p), m2(p))
        need = base < tau
        return np.maximum(base, m3(p, need))

    def x_margin(p):
        base = np.minimum(1.0 - np.abs(p[..., 0]), 1.0 - np.abs(p[..., 1]))
        need = base < tau
        return np.maximum(base, m3(p, need))

    w = DomainSpec(f"counterexample_W(delta={delta}, tau={tau})", 2, w_margin)
    x = DomainSpec(f"counterexample_X(delta={delta}, tau={tau})", 2, x_margin)

    def ramp(margin):
        return np.clip(1.0 + margin / eps_moll, 0.0, 1.0)

    def phi_eval(p):
        v1 = np.minimum(rho_u - _semicircle_dist(p[..., 0], upper=True),
                        delta - np.abs(p[..., 1]))
        a2 = np.abs(p[..., 1])
        v2 = np.minimum(rho_u - _semicircle_dist(p[..., 0], upper=False),
                        np.minimum(a2 - (1.0 - delta), 1.0 - a2))
        return -np.maximum(ramp(v1), ramp(v2))

    phi = Obstacle(phi_eval, description="counterexample step obstacle")
    return w, x, phi


def counterexample_projection_interval(delta=0.3, tau=0.05, samples=20001):
    """Probe the real-axis interval (a, b) cut out by the tube projection.

    Takes ``samples`` points of the joining curve whose z1 lies within tau
    of the real axis, and reports the extent on the real axis of their
    radius-tau discs in the z1-plane.  Used to document the probed values
    of a and b rather than assuming them.
    """
    t = np.linspace(0.0, 1.0, samples)
    z1, _ = _curve_points(delta, t)
    # a point x on the real axis is in the projection iff some curve point
    # has |z1 - x| <= tau in the z1-plane (the tube is a C^2 ball, so this
    # is a slight overestimate; adequate for documentation probes)
    reachable = np.abs(np.imag(z1)) <= tau
    if not np.any(reachable):
        return None
    lo = np.min(np.real(z1[reachable]) - np.sqrt(
        np.maximum(tau ** 2 - np.imag(z1[reachable]) ** 2, 0.0)))
    hi = np.max(np.real(z1[reachable]) + np.sqrt(
        np.maximum(tau ** 2 - np.imag(z1[reachable]) ** 2, 0.0)))
    return float(lo), float(hi)
