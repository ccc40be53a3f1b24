"""Independent reference computations for envelope cross-checks.

Three oracles: the fiberwise infimum of a rotation-invariant obstacle on
a Hartogs pair, a planar grid solver for the largest subharmonic function
below a capped obstacle, and a sampled sub-mean-value check of
(pluri)subharmonicity along complex lines.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    EvaluationError,
    PreconditionError,
    UnsupportedDimensionError,
)


# ---------------------------------------------------------------------------
# Kiselman infimum function
# ---------------------------------------------------------------------------

#: Uniform samples of the radial interval, and of its refinement around the
#: argmin.
KISELMAN_SAMPLES = 512


def kiselman_psi(pair, phi, zp, return_spacing=False):
    """Fiberwise infimum of a rotation-invariant obstacle over a Hartogs shell.

    psi(z') = inf over r(z') < s < R(z') of phi(z', s), found on a hybrid
    grid (uniform plus geometric clustering at both endpoints) and refined
    once around the argmin.  The error is bounded by the Lipschitz
    constant of s -> phi(z', s) times the final spacing.
    """
    if not phi.rotation_invariant_last:
        raise PreconditionError("obstacle is not rotation-invariant in z_n")
    zp = np.atleast_1d(np.asarray(zp, dtype=complex))
    if not np.all(pair.base.margin(zp) > 0):
        raise PreconditionError("base point outside Y")
    r, R = pair.radii(zp)

    def values(svals):
        pts = np.concatenate(
            [np.tile(zp, (svals.size, 1)), svals[:, None].astype(complex)],
            axis=1)
        return phi(pts)

    width = R - r
    edge = width * np.geomspace(1e-9, 1e-2, 24)
    s = np.concatenate([r + edge, np.linspace(r + 1e-9 * width,
                                              R - 1e-9 * width,
                                              KISELMAN_SAMPLES),
                        R - edge])
    s = np.unique(np.clip(s, r + 1e-12 * width, R - 1e-12 * width))
    vals = values(s)
    i = int(np.argmin(vals))
    lo = s[max(i - 1, 0)]
    hi = s[min(i + 1, s.size - 1)]
    fine = np.linspace(lo, hi, KISELMAN_SAMPLES)
    fvals = values(fine)
    spacing = (hi - lo) / (KISELMAN_SAMPLES - 1)
    best = float(min(vals[i], np.min(fvals)))
    if return_spacing:
        return best, float(spacing)
    return best


# ---------------------------------------------------------------------------
# Planar grid obstacle solver
# ---------------------------------------------------------------------------

#: Relaxation sweep cap per grid level, and the number of coarser levels
#: (each of twice the spacing) that warm-start a grid solve.
MAX_SWEEPS = 200_000
CASCADE_LEVELS = 4


@dataclass
class GridConfig:
    """Settings for the planar obstacle relaxation.

    ``spacing`` is the coarse spacing h; the solver also runs at h/2 and
    returns the finer field, recording the probe-wise difference as a
    Richardson-style error estimate.
    """
    bounds: tuple  # (x_min, x_max, y_min, y_max)
    spacing: float = 1.0 / 128
    tol: float = 1e-10
    probes: tuple = ()


class GridField:
    """A real field on a uniform planar grid with a W / X-only / outside mask.

    Mask codes: 0 outside, 1 inside X only, 2 inside W.
    """

    def __init__(self, x0, y0, h, values, mask):
        self.x0 = x0
        self.y0 = y0
        self.h = h
        self.values = values
        self.mask = mask
        self.per_cap_probe_values = {}
        self.richardson = {}

    def points(self):
        ny, nx = self.values.shape
        xs = self.x0 + self.h * np.arange(nx)
        ys = self.y0 + self.h * np.arange(ny)
        return xs, ys

    def interpolate(self, z):
        """Bilinear interpolation at complex points z; raises off-grid."""
        z = np.asarray(z, dtype=complex)
        fx = (np.real(z) - self.x0) / self.h
        fy = (np.imag(z) - self.y0) / self.h
        ny, nx = self.values.shape
        ix = np.floor(fx).astype(int)
        iy = np.floor(fy).astype(int)
        if np.any(ix < 0) or np.any(iy < 0) or np.any(ix >= nx - 1) \
                or np.any(iy >= ny - 1):
            raise EvaluationError("interpolation point outside grid")
        tx = fx - ix
        ty = fy - iy
        v = self.values
        return ((1 - tx) * (1 - ty) * v[iy, ix]
                + tx * (1 - ty) * v[iy, ix + 1]
                + (1 - tx) * ty * v[iy + 1, ix]
                + tx * ty * v[iy + 1, ix + 1])

    def in_region(self, z, code=1):
        """True where all four surrounding nodes have mask >= code."""
        z = np.asarray(z, dtype=complex)
        fx = (np.real(z) - self.x0) / self.h
        fy = (np.imag(z) - self.y0) / self.h
        ny, nx = self.values.shape
        ix = np.floor(fx).astype(int)
        iy = np.floor(fy).astype(int)
        ok = (ix >= 0) & (iy >= 0) & (ix < nx - 1) & (iy < ny - 1)
        out = np.zeros(np.shape(z), dtype=bool)
        m = self.mask
        ixs = np.clip(ix, 0, nx - 2)
        iys = np.clip(iy, 0, ny - 2)
        out = ok & (m[iys, ixs] >= code) & (m[iys, ixs + 1] >= code) \
            & (m[iys + 1, ixs] >= code) & (m[iys + 1, ixs + 1] >= code)
        return out

    def to_csv(self, path):
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        xs, ys = self.points()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y", "value", "mask"])
            for iy, y in enumerate(ys):
                for ix, x in enumerate(xs):
                    writer.writerow([repr(float(x)), repr(float(y)),
                                     repr(float(self.values[iy, ix])),
                                     int(self.mask[iy, ix])])


def _build_grid(pair, phi, cap, cfg, h):
    w_spec, x_spec = pair
    x_min, x_max, y_min, y_max = cfg.bounds
    # enough nodes to reach the bounds, also where h does not divide them
    nx = int(np.ceil((x_max - x_min) / h - 1e-9)) + 1
    ny = int(np.ceil((y_max - y_min) / h - 1e-9)) + 1
    xs = x_min + h * np.arange(nx)
    ys = y_min + h * np.arange(ny)
    zz = (xs[None, :] + 1j * ys[:, None])[:, :, None]
    mw = w_spec.margin(zz)
    mx = x_spec.margin(zz)
    mask = np.zeros((ny, nx), dtype=np.int8)
    mask[mx > 0] = 1
    mask[mw > 0] = 2
    obst = np.full((ny, nx), cap, dtype=float)
    inside_w = mask == 2
    obst[inside_w] = phi(zz[inside_w])
    bad = inside_w & ~np.isfinite(obst)
    if np.any(bad):
        node = complex(zz[bad][0, 0])
        raise EvaluationError(
            f"obstacle not finite at grid node {node} (spacing {h})")
    # ghost ring: outside-X nodes adjacent to inside nodes carry the
    # obstacle value there when it is finite (the obstacle is assumed
    # evaluable on a thin ring beyond the outer boundary)
    inside = mask > 0
    near = np.zeros_like(inside)
    near[1:, :] |= inside[:-1, :]
    near[:-1, :] |= inside[1:, :]
    near[:, 1:] |= inside[:, :-1]
    near[:, :-1] |= inside[:, 1:]
    ghost = near & ~inside
    if np.any(ghost):
        with np.errstate(divide="ignore", invalid="ignore"):
            gvals = phi(zz[ghost])
        gvals = np.where(np.isfinite(gvals), gvals, cap)
        obst[ghost] = gvals
    return xs, ys, mask, obst


def _relax(u, obst, active, omega, tol):
    """Red-black projected SOR on u <- min(obst, relaxed mean of neighbours).

    Fixed sweep order (red then black) for determinism.  Returns the
    number of sweeps run; a grid with no active interior node (a coarse
    cascade level) runs none.  Raises EvaluationError when MAX_SWEEPS
    sweeps leave an update above tol.
    """
    ny, nx = u.shape
    iy, ix = np.mgrid[0:ny, 0:nx]
    parity = (ix + iy) % 2
    inner = np.zeros_like(active)
    inner[1:-1, 1:-1] = active[1:-1, 1:-1]
    if not inner.any():
        return 0
    colours = [inner & (parity == 0), inner & (parity == 1)]
    core = np.s_[1:-1, 1:-1]
    for sweep in range(MAX_SWEEPS):
        biggest = 0.0
        for colour in colours:
            mean = u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:]
            new = np.minimum(obst[core],
                             u[core] + omega * (0.25 * mean - u[core]))
            delta = np.where(colour[core], new - u[core], 0.0)
            biggest = max(biggest, float(np.max(np.abs(delta))))
            u[core] += delta
        if biggest <= tol:
            return sweep + 1
    raise EvaluationError(
        f"grid relaxation on {ny}x{nx} nodes not converged after "
        f"{MAX_SWEEPS} sweeps (last update {biggest:.3e} > tol {tol:.3e})")


def _solve_level(pair, phi, cap, cfg, h, init_field=None):
    xs, ys, mask, obst = _build_grid(pair, phi, cap, cfg, h)
    active = mask > 0
    if init_field is None:
        start = cap
    elif init_field.h == h:
        # a previous cap's field on this very grid starts as it is
        start = init_field.values
    else:
        # prolong a coarser solution where possible
        zz = xs[None, :] + 1j * ys[:, None]
        try_pts = init_field.in_region(zz, code=1)
        start = np.full(mask.shape, cap)
        if np.any(try_pts):
            start[try_pts] = init_field.interpolate(zz[try_pts])
    u = obst.copy()
    u[active] = np.minimum(obst, start)[active]
    omega = 2.0 / (1.0 + np.sin(np.pi / max(mask.shape)))
    _relax(u, obst, active, omega, cfg.tol)
    return GridField(xs[0], ys[0], h, u, mask)


def grid_obstacle_solver(pair, phi, cap_sequence, cfg):
    """Largest subharmonic minorant of the capped obstacle on a planar pair.

    For each cap n in the increasing ``cap_sequence`` the obstacle is phi
    on W and n on X \\ W; the relaxation u <- min(obstacle, four-neighbour
    mean) is iterated to a fixed point.  Beyond the point where the cap
    exceeds sup phi the fixed points coincide, so the per-cap probe values
    saturate.  The first cap is solved coarse to fine from CASCADE_LEVELS
    doublings of cfg.spacing, each later cap at cfg.spacing from the
    previous cap's field; the field for the largest cap is returned,
    solved once more at cfg.spacing / 2 with the probe-wise difference
    kept as an error estimate.
    """
    w_spec, x_spec = pair
    if w_spec.n != 1 or x_spec.n != 1:
        raise UnsupportedDimensionError(
            "grid obstacle solver is planar only (one complex dimension)")
    caps = list(cap_sequence)
    if caps != sorted(caps):
        raise ConfigurationError("cap sequence must be increasing")
    per_cap = {}
    coarse = None
    for cap in caps:
        levels = CASCADE_LEVELS if coarse is None else 0
        for k in range(levels, -1, -1):
            coarse = _solve_level(pair, phi, cap, cfg, cfg.spacing * 2 ** k,
                                  init_field=coarse)
        if cfg.probes:
            per_cap[cap] = [float(v) for v in
                            coarse.interpolate(np.asarray(cfg.probes))]
    fine = _solve_level(pair, phi, caps[-1], cfg, cfg.spacing / 2,
                        init_field=coarse)
    fine.per_cap_probe_values = per_cap
    if cfg.probes:
        pts = np.asarray(cfg.probes)
        fine.richardson = {
            "probe_abs_diff": [float(abs(a - b)) for a, b in
                               zip(coarse.interpolate(pts),
                                   fine.interpolate(pts))]}
    return fine


# ---------------------------------------------------------------------------
# Sub-mean-value (plurisubharmonicity) check
# ---------------------------------------------------------------------------

@dataclass
class SubmeanReport:
    max_violation: float
    checked: int
    skipped: int
    tol: float
    details: list = field(default_factory=list)

    @property
    def passed(self):
        return self.max_violation <= self.tol


def submean_check(u, region_margin, probes, radii, n_dirs=4, angles=64,
                  tol=1e-3, seed=0):
    """Sampled sub-mean-value inequality along complex lines.

    For each probe x, radius rho, and unit direction v, compares u(x) with
    the average of u over the circle x + rho * zeta * v.  Probes whose
    circle exits the region (margin <= 0 at some circle point) are skipped
    and counted.  Violations are scaled by the local oscillation of u on
    the circle when that exceeds 1, so the tolerance is relative on wildly
    varying fields.
    """
    probes = np.atleast_2d(np.asarray(probes, dtype=complex))
    n = probes.shape[1]
    rng = np.random.default_rng(seed)
    zeta = np.exp(2j * np.pi * np.arange(angles) / angles)
    worst = 0.0
    checked = skipped = 0
    details = []
    for x in probes:
        ux = float(u(x[None, :])[0])
        for rho in radii:
            if n == 1:
                dirs = np.ones((1, 1), dtype=complex)
            else:
                raw = rng.standard_normal((n_dirs, n)) \
                    + 1j * rng.standard_normal((n_dirs, n))
                dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
            for v in dirs:
                circle = x[None, :] + rho * zeta[:, None] * v[None, :]
                if not np.all(region_margin(circle) > 0):
                    skipped += 1
                    continue
                vals = u(circle)
                if not np.all(np.isfinite(vals)):
                    skipped += 1
                    continue
                avg = float(np.mean(vals))
                osc = float(np.max(vals) - np.min(vals))
                viol = max(0.0, ux - avg) / max(1.0, osc)
                worst = max(worst, viol)
                checked += 1
                details.append((x.tolist(), float(rho), viol))
    return SubmeanReport(max_violation=worst, checked=checked,
                         skipped=skipped, tol=tol, details=details)
