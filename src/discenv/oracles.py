"""Independent reference computations for envelope cross-checks.

Three oracles: the fiberwise infimum of a rotation-invariant obstacle on
a Hartogs pair, a planar grid solver for the largest subharmonic function
below an obstacle on W, and a sampled sub-mean-value check of
(pluri)subharmonicity along complex lines.
"""

from __future__ import annotations

import itertools
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


def kiselman_psi(pair, phi, zp):
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
    if not r < R:
        raise PreconditionError(
            f"empty fiber: r = {r} >= R = {R} at the base point")

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
    return float(min(vals[i], np.min(values(fine))))


# ---------------------------------------------------------------------------
# Planar grid obstacle solver
# ---------------------------------------------------------------------------

#: Multigrid cycle cap per solve, and sweeps per coarse level of a
#: V-cycle.
MAX_CYCLES = 1_000
COARSE_SWEEPS = 3


def _nodes(lo, hi, h):
    """Nodes at spacing h from lo: enough to reach hi, also where h does
    not divide hi - lo.  A float: inf where the count overflows one, or
    where h is 0 (half of the least float spacing)."""
    steps = (hi - lo) / h if h else np.inf
    return float(np.ceil(steps - 1e-9)) + 1


class GridField:
    """A real field on a uniform planar grid with a W / X-only / outside mask.

    Mask codes: 0 outside, 1 inside X only, 2 inside W.
    """

    #: the end of a grid_field.csv row, by mask code
    _ROW_ENDS = {m: f",{m}\r\n" for m in range(3)}

    def __init__(self, x0, y0, h, values, mask):
        self.x0 = x0
        self.y0 = y0
        self.h = h
        self.values = values
        self.mask = mask

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
        if not np.all((fx >= 0) & (fx < nx - 1) & (fy >= 0) & (fy < ny - 1)):
            raise EvaluationError("interpolation point outside grid")
        ix = np.floor(fx).astype(int)
        iy = np.floor(fy).astype(int)
        tx = fx - ix
        ty = fy - iy
        v = self.values
        return ((1 - tx) * (1 - ty) * v[iy, ix]
                + tx * (1 - ty) * v[iy, ix + 1]
                + (1 - tx) * ty * v[iy + 1, ix]
                + tx * ty * v[iy + 1, ix + 1])

    def to_csv(self, path):
        """Rows x,y,value,mask per node, row by row of the grid, numbers
        as repr and CRLF line ends: the bytes csv.writer would write, put
        together as one string per grid row."""
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        xs, ys = self.points()
        xr = [repr(x) + "," for x in xs.tolist()]
        with open(path, "w", newline="") as fh:
            fh.write("x,y,value,mask\r\n")
            for y, vals, mask in zip(ys.tolist(), self.values, self.mask):
                fh.write("".join(itertools.chain.from_iterable(zip(
                    xr, itertools.repeat(repr(y) + ","),
                    map(repr, vals.tolist()),
                    map(self._ROW_ENDS.__getitem__, mask.tolist())))))


def _build_grid(pair, phi, bounds, h):
    """Nodes, mask, obstacle and top = max of phi over the W nodes at
    spacing h.  The obstacle is phi on W and +inf on X \\ W; a node
    outside X holds phi on the ghost ring where phi is finite and top
    elsewhere, a finite value that keeps the multigrid defect free of
    inf - inf."""
    w_spec, x_spec = pair
    x_min, x_max, y_min, y_max = bounds
    nx, ny = int(_nodes(x_min, x_max, h)), int(_nodes(y_min, y_max, h))
    xs = x_min + h * np.arange(nx)
    ys = y_min + h * np.arange(ny)
    zz = (xs[None, :] + 1j * ys[:, None])[:, :, None]
    mw = w_spec.margin(zz)
    mx = x_spec.margin(zz)
    mask = np.zeros((ny, nx), dtype=np.int8)
    mask[mx > 0] = 1
    mask[mw > 0] = 2
    # _relax holds the box's edge at its start, so the box must contain X
    if any(e.any() for e in (mask[0], mask[-1], mask[:, 0], mask[:, -1])):
        raise ConfigurationError(f"grid box {tuple(bounds)} cuts X: a node "
                                 f"of X lies on its edge at spacing {h}")
    inside_w = mask == 2
    if not inside_w.any():
        raise ConfigurationError(
            f"no grid node lies in W at spacing {h} within bounds "
            f"{tuple(bounds)}")
    phi_w = phi(zz[inside_w])
    bad = ~np.isfinite(phi_w)
    if np.any(bad):
        node = complex(zz[inside_w][bad][0, 0])
        raise EvaluationError(
            f"obstacle not finite at grid node {node} (spacing {h})")
    top = float(np.max(phi_w))
    obst = np.where(mask == 1, np.inf, top)
    obst[inside_w] = phi_w
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
        gvals = phi(zz[ghost])
        obst[ghost] = np.where(np.isfinite(gvals), gvals, top)
    return xs, ys, mask, obst, top


def _sweep(u, lo, hi, rhs=None):
    """One red-black Gauss-Seidel sweep of u <- clip(mean of neighbours +
    rhs, lo, hi) over the interior nodes, on strided sublattices."""
    ny, nx = u.shape
    for a, b in ((1, 1), (2, 2), (1, 2), (2, 1)):
        t = u[a - 1:ny - 2:2, b:nx - 1:2] + u[a + 1:ny:2, b:nx - 1:2]
        t += u[a:ny - 1:2, b - 1:nx - 2:2] + u[a:ny - 1:2, b + 1:nx:2]
        t *= 0.25
        node = np.s_[a:ny - 1:2, b:nx - 1:2]
        if rhs is not None:
            t += rhs[node]
        np.minimum(np.maximum(t, lo[node], out=t), hi[node], out=u[node])


def _defect(u):
    """Mean of neighbours - u on the interior nodes, 0 on the rim."""
    d = np.zeros_like(u)
    d[1:-1, 1:-1] = 0.25 * (u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2]
                            + u[1:-1, 2:]) - u[1:-1, 1:-1]
    return d


def _coarse_taps(a):
    """a on the 3x3 neighbourhood of each interior node of the grid of every
    other node, as taps[dy][dx]; a grid of even size is padded by one."""
    pad = np.pad(a, ((0, 1 - a.shape[0] % 2), (0, 1 - a.shape[1] % 2)))
    py, px = pad.shape
    return [[pad[k:py - 3 + k:2, j:px - 3 + j:2] for j in (1, 2, 3)]
            for k in (1, 2, 3)]


def _correction(d, free):
    """Correction e, zero off free, for e - (mean of neighbours of e) = d
    on free: a linear V-cycle on the grid of every other node, with d
    restricted by full weighting (times 4 for the doubled spacing).

    A coarse node is free when the fine five-point stencil at it is: its
    fine image and that node's four fine neighbours (a truncated monotone
    multigrid after Kornhuber).  The defect is zeroed off free before it
    is restricted, so a coarse node at the edge of free does not pull in
    the defect of contact nodes, and the prolonged correction is cut back
    to free.  Eroding by the whole 3x3 neighbourhood loses a band of free
    set per level and converges slower; coarse sets made by injection,
    or by 5 of the 8 neighbours, do not converge.
    """
    taps = _coarse_taps(free)
    coarse = np.pad(taps[1][1] & taps[0][1] & taps[2][1] & taps[1][0]
                    & taps[1][2], 1)
    if not coarse.any():
        return 0.0
    rows = [a + 2 * b + c for a, b, c in _coarse_taps(d * free)]
    dc = np.pad(0.25 * (rows[0] + 2 * rows[1] + rows[2]), 1)
    e = np.zeros_like(dc)
    hi = np.where(coarse, np.inf, 0.0)
    for _ in range(COARSE_SWEEPS):
        _sweep(e, -hi, hi, dc)
    e += _correction(_defect(e) + dc, coarse)
    for _ in range(COARSE_SWEEPS):
        _sweep(e, -hi, hi, dc)
    return _prolong(e, d.shape) * free


def _prolong(e, shape):
    """Bilinear prolongation of e to the grid of half its spacing with the
    same first node, cut to shape."""
    fine = np.zeros((2 * e.shape[0] - 1, 2 * e.shape[1] - 1))
    fine[::2, ::2] = e
    fine[1::2, ::2] = 0.5 * (e[:-1] + e[1:])
    fine[:, 1::2] = 0.5 * (fine[:, :-2:2] + fine[:, 2::2])
    return fine[:shape[0], :shape[1]]


def _scaled_correction(d, free):
    """e = _correction(d, free) times the step that minimises the energy
    along it, <d, e> / <e, (I - M) e> with M the four-neighbour mean, or 1
    when either product is not positive (Graeser and Kornhuber's line
    search): the free set settles within a few cycles, and a unit step
    then leaves half of the change to the next cycle.  e is zero on the
    rim, so <e, M e> is half the sum of e times its lower and right
    neighbours; the products allocate no grid."""
    e = _correction(d, free)
    if not np.ndim(e):
        return e
    de = np.vdot(d, e)
    eae = np.vdot(e, e) - 0.5 * (np.vdot(e[:-1], e[1:])
                                 + np.einsum("ij,ij->", e[:, :-1], e[:, 1:]))
    if de > 0 and eae > 0:
        e *= de / eae
    return e


def _relax(u, obst, active, tol):
    """Projected multigrid V-cycles for u <- min(obst, mean of neighbours).

    A cycle: a projected red-black Gauss-Seidel sweep, u <- min(obst, u + e)
    with e from _scaled_correction on the free set (active interior nodes
    below obst), a second sweep.  Returns the cycle count once a cycle
    changes u by at most tol, 0 with no active interior node; raises
    EvaluationError when MAX_CYCLES cycles do not get there, or when the
    stopping cycle leaves a fixed-point step |min(obst, mean of
    neighbours) - u| above 10 tol (a coarse correction that undoes its
    sweeps stalls that way).
    """
    inner = np.zeros_like(active)
    inner[1:-1, 1:-1] = active[1:-1, 1:-1]
    if not inner.any():
        return 0
    # nodes off the interior keep their value: lo = hi = u there
    hi = np.where(inner, obst, u)
    lo = np.where(inner, -np.inf, u)
    # one buffer: a copy per cycle alternates between two heap blocks, and
    # the cycle count's parity then sets how often later solves page-fault
    before = np.empty_like(u)
    for cycle in range(MAX_CYCLES):
        np.copyto(before, u)
        _sweep(u, lo, hi)
        free = inner & (u < obst)
        np.minimum(u + _scaled_correction(_defect(u), free), hi, out=u)
        _sweep(u, lo, hi)
        change = float(np.max(np.abs(u - before)))
        if change <= tol:
            step = float(np.max(np.abs(
                np.minimum(obst, u + _defect(u)) - u)[inner]))
            if step > 10 * tol:
                raise EvaluationError(
                    f"grid relaxation on {u.shape[0]}x{u.shape[1]} nodes "
                    f"stalled after {cycle + 1} cycles (fixed-point step "
                    f"{step:.3e} > {10 * tol:.3e})")
            return cycle + 1
    raise EvaluationError(
        f"grid relaxation on {u.shape[0]}x{u.shape[1]} nodes not converged "
        f"after {MAX_CYCLES} cycles (last change {change:.3e} > {tol:.3e})")


def grid_obstacle_solver(pair, phi,
                         bounds=(-2.0625, 2.0625, -2.0625, 2.0625),
                         spacing=1.0 / 128, tol=1e-10):
    """Largest subharmonic function on the planar X that is at most phi on
    W (the largest subextension), at spacing / 2 on the box ``bounds`` =
    (x_min, x_max, y_min, y_max); a box with a node of X on its edge raises.

    The obstacle is phi on W and +inf on X \\ W; the relaxation
    u <- min(obstacle, four-neighbour mean) is iterated to a fixed point
    from top, the largest W-node value of phi, which bounds the solution
    by the maximum principle.
    """
    w_spec, x_spec = pair
    if w_spec.n != 1 or x_spec.n != 1:
        raise UnsupportedDimensionError(
            "grid obstacle solver is planar only (one complex dimension)")
    h = spacing / 2
    xs, ys, mask, obst, top = _build_grid(pair, phi, bounds, h)
    active = mask > 0
    u = np.where(active, np.minimum(obst, top), obst)
    _relax(u, obst, active, tol)
    return GridField(xs[0], ys[0], h, u, mask)


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
