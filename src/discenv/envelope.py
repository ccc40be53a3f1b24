"""Upper approximation of disc-functional envelopes by penalised search.

The boundary-in-W and interior-in-X constraints are enforced by squared
hinge penalties on the signed margins (with a small feasibility slack so
reported optima sit strictly inside), while the centre constraint is
structural in every disc family.  The interior is probed only where X
does not have the maximum principle; where it does, the boundary nodes
in X place the disc in X.  Each (family, start) pair is minimised
independently by adaptive Nelder-Mead (``nelder_mead``) from seeded
initial parameters.  The starts of every family at the point run in
lockstep: each round scores the next point of every live start as one
batch of discs, of all families.  Recorded discs rank by (not strictly
feasible, violation, value); ties keep the first recorded, then the
lowest (family, start) index.  ``minimize_envelope`` searches at a coarse
size, then at the configured M if need be, and scores each winner at M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import groupby
from operator import add

import numpy as np

from . import hartogs
from .discs import AnalyticDisc, circle_eval
from .errors import ConfigurationError, EvaluationError, \
    InfeasibleEnvelope, PreconditionError
from .functionals import QuadratureGrid, boundary_averages, partial_stats
# the one-disc views stay importable here, where perfbench/tracing.py
# wraps them
from .functionals import partial_boundary_stats, \
    poisson_functional  # noqa: F401

#: Interior containment is probed on this polar grid (design default).
INTERIOR_RADII = (0.25, 0.5, 0.75, 0.95)
INTERIOR_ANGLES = 32

BARRIER = 1e6
FEAS_MARGIN = 1e-5  # slack inside the penalty hinge
SEARCH_M = 64  # the fewest boundary nodes the coarse search runs at
AGREEMENT = 1e-12  # relative bound on a coarse winner's value change at M

#: Sampling scores its draws in batches of at most this many boundary
#: nodes, which bounds the working memory of a batch (the search cuts
#: its rounds at ``hartogs.TRACE_BATCH_NODES`` nodes instead).
SAMPLE_BATCH_NODES = 4096


@dataclass
class MinimizeResult:
    """The best simplex vertex, its value and the evaluations spent."""
    x: np.ndarray
    fun: float
    nfev: int


def _along(xbar, worst, c):
    """The point xbar + c (xbar - worst), as scipy computes it."""
    return [(1 + c) * b - c * w for b, w in zip(xbar, worst)]


def _by_value(sim, fsim):
    """The vertices and their values in the order of numpy's argsort of
    the values."""
    order = np.array(fsim).argsort().tolist()
    return [sim[i] for i in order], [fsim[i] for i in order]


def nelder_mead(x0, budget):
    """Adaptive Nelder-Mead (Gao & Han, Comput. Optim. Appl. 51, 2012) as
    an ask/tell generator.

    Yields each point to evaluate as a new list of floats, which the
    simplex keeps as it is (do not change it), and takes its value by
    ``send``; returns the MinimizeResult when it stops.  The points are
    those that scipy.optimize.minimize(fun, x0, method="Nelder-Mead",
    options={"maxfev": budget, "xatol": 1e-9, "fatol": 1e-12,
    "adaptive": True}) evaluates, in the same order, and it stops as soon
    as ``budget`` evaluations are spent, even mid-shrink.  The simplex is
    kept as Python floats in scipy's arithmetic: the centroid is summed
    from 0.0, as numpy's ``add.reduce`` sums it (a column of -0.0 gives
    0.0), and the vertices are ordered by numpy's argsort, which is not
    stable (with AVX-512, from 4 elements up), so ties fall as in scipy.
    """
    x0 = np.asarray(x0, dtype=float).ravel().tolist()
    n = len(x0)
    chi, psi, sigma = 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    sim = [x0] + [x0[:k] + [1.05 * x0[k] if x0[k] != 0 else 0.00025]
                  + x0[k + 1:] for k in range(n)]
    fsim = [math.inf] * (n + 1)
    nfev = min(n + 1, budget)
    for k in range(nfev):
        fsim[k] = float((yield sim[k]))
    # scipy sorts the first simplex twice; where argsort does not keep
    # the order of ties (at numpy's baseline SIMD level), the second sort
    # moves them again
    sim, fsim = _by_value(sim, fsim)
    while True:
        sim, fsim = _by_value(sim, fsim)
        if nfev >= budget or (
                all(abs(a - b) <= 1e-9 for v in sim[1:]
                    for a, b in zip(v, sim[0]))
                and all(abs(fsim[0] - f) <= 1e-12 for f in fsim[1:])):
            break
        xbar = [reduce(add, column, 0.0) / n for column in zip(*sim[:-1])]
        xr = _along(xbar, sim[-1], 1)
        nfev += 1
        fxr = float((yield xr))
        if fxr < fsim[0]:
            if nfev < budget:
                xe = _along(xbar, sim[-1], chi)
                nfev += 1
                fxe = float((yield xe))
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif nfev < budget:
            outside = fxr < fsim[-1]  # else an inside contraction
            xc = _along(xbar, sim[-1], psi if outside else -psi)
            nfev += 1
            fxc = float((yield xc))
            if fxc <= fxr if outside else fxc < fsim[-1]:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink; a vertex whose evaluation the budget refuses
                # is moved all the same, and keeps its old value
                for j in range(1, n + 1):
                    sim[j] = [b + sigma * (a - b)
                              for a, b in zip(sim[j], sim[0])]
                    if nfev >= budget:
                        break
                    nfev += 1
                    fsim[j] = float((yield sim[j]))
    return MinimizeResult(np.array(sim[0]), fsim[0], nfev)


def minimize(fun, x0, budget):
    """Minimise ``fun`` from x0 by ``nelder_mead`` within ``budget``
    evaluations; ``fun`` gets a copy of each point."""
    search = nelder_mead(x0, budget)
    try:
        x = next(search)
        while True:
            x = search.send(fun(np.array(x)))
    except StopIteration as stop:
        return stop.value


def interior_probe_points():
    rr = np.asarray(INTERIOR_RADII)
    zeta = np.exp(2j * np.pi * np.arange(INTERIOR_ANGLES) / INTERIOR_ANGLES)
    return (rr[:, None] * zeta[None, :]).ravel()


@dataclass
class EnvelopeRequest:
    pair: tuple                # (W, X) DomainSpecs
    phi: object                # Obstacle
    x: np.ndarray              # centre point in X
    families: list
    penalty_weight: float = 1e3
    starts: int = 8
    budget: int = 400
    seed: int = 0
    grid: QuadratureGrid = None

    def __post_init__(self):
        self.x = np.atleast_1d(np.asarray(self.x, dtype=complex))
        if self.grid is None:
            self.grid = QuadratureGrid(512)
        if self.starts < 1 or self.budget < 1:
            raise ConfigurationError(
                f"need starts >= 1 and budget >= 1, got starts="
                f"{self.starts} and budget={self.budget}")
        if not 0 < self.penalty_weight < math.inf:  # NaN fails too
            raise ConfigurationError(f"need a finite penalty_weight > 0, got "
                                     f"{self.penalty_weight}")
        if not self.families:
            raise ConfigurationError("need at least one disc family")
        w, x_spec = self.pair
        if not np.all(x_spec.margin(self.x[None, :]) > 0):
            raise PreconditionError(
                f"centre {tuple(self.x.tolist())} lies outside X")
        for fam in self.families:
            if not np.array_equal(fam.centre, self.x):
                raise ConfigurationError(
                    f"family {fam.name!r} is centred at {fam.centre}, "
                    f"not at the point {self.x}")


@dataclass
class EnvelopeResult:
    value: float
    best_params: np.ndarray
    family: str
    start_index: int
    max_violation: float
    feasible: bool
    trace: list = field(default_factory=list)
    disc: object = None
    certificate: str = "probes"  # or "max_principle": how X was checked
    search_m: int = None  # the boundary nodes the winner was found at


def _hinge(margins):
    """Squared hinge penalty on margins below FEAS_MARGIN, one per disc."""
    return np.add.reduce(np.maximum(0.0, FEAS_MARGIN - margins) ** 2,
                         axis=-1)


def _probes(samples):
    """The values of each disc of a batch of boundary samples (B, M, n) at
    its interior probes, in ``interior_probe_points`` order: (B, P, n)."""
    b, m, n = samples.shape
    coeffs = np.fft.fft(samples, axis=1)[:, :m // 2] / m
    return circle_eval(coeffs, INTERIOR_RADII,
                       INTERIOR_ANGLES).reshape(b, -1, n)


def _constraints(boundary, x_spec, samples, pen=0.0):
    """The admissibility test of a batch of boundary samples (B, M, n):
    each disc's nodes in ``boundary`` and, where X lacks the maximum
    principle, its interior probes in X (else the nodes place it in X).
    Returns pen plus the hinge penalties of the nodes then the probes, the
    max violation (NaN at a NaN margin) and strictness (every node and
    probe strictly inside), one each per disc."""
    margins = boundary.margin(samples)
    pen = pen + _hinge(margins)
    lo = np.minimum.reduce(margins, axis=-1)
    strict = lo > 0
    if not x_spec.max_principle:
        margins = x_spec.margin(_probes(samples))
        pen = pen + _hinge(margins)
        lo_probes = np.minimum.reduce(margins, axis=-1)
        lo = np.minimum(lo, lo_probes)
        strict &= lo_probes > 0
    return pen, np.maximum(0.0, -lo), strict


def _evaluate(req, groups, objective):
    """Build and score the disc of each row of each (family, P) group as
    one batch, rows in group order.

    ``objective(samples)`` maps the built discs' boundary samples to
    their penalised objective, value, violation and strictness.  Returns
    those four per row, and the boundary samples of all rows.  A row
    whose disc cannot be built gets the barrier BARRIER * (1 + excess), a
    row whose objective is not finite gets BARRIER, and both get the
    value NaN: they record no disc.
    """
    # over a generator, so each family's part is freed at the concatenate:
    # parts kept in a list past it put a Hartogs round's page faults up
    # twelvefold (glibc's heap trimming)
    samples, excess = map(np.concatenate, zip(*(
        family.build_many(P, req.grid.M) for family, P in groups)))
    built = excess == 0
    every = built.all()
    rows = samples if every else samples[built]
    if len(rows):
        o, v, vio, st = objective(rows)
        finite = np.isfinite(o)
        if every and finite.all():  # nothing to bar: the objective's arrays
            return o, v, vio, st, samples
    with np.errstate(over="ignore"):  # a huge excess: an infinite barrier
        obj = BARRIER * (1.0 + excess)
    value = np.full(len(excess), np.nan)
    violation = np.full(len(excess), np.inf)
    strict = np.zeros(len(excess), dtype=bool)
    if len(rows):
        violation[built], strict[built] = vio, st
        obj[built] = np.where(finite, o, BARRIER)
        value[built] = np.where(finite, v, np.nan)
    return obj, value, violation, strict, samples


def _once(x):
    """The search of a family without parameters: its one point."""
    yield x


class _Start:
    """Start ``s_idx`` of family ``f_idx``, from the RNG key [seed, f_idx,
    s_idx]: its family, index and search (``nelder_mead``, or ``_once``
    without parameters), the point it waits on, its least-keyed record
    (key, params) and the trace of its best objective so far."""

    def __init__(self, req, f_idx, s_idx):
        self.family = req.families[f_idx]
        self.index = s_idx
        p0 = self.family.initial(
            np.random.default_rng([req.seed, f_idx, s_idx]), s_idx)
        self.search = nelder_mead(p0, req.budget) \
            if self.family.n_params > 0 else _once(p0)
        self.point = next(self.search)
        self.record = None
        self.trace = []

    def tell(self, obj, value, violation, strict):
        """Record the pending point, now evaluated, and send its
        objective to the search; False once the search has stopped."""
        if not math.isnan(value):
            # a strict disc's violation is 0.0, so strict discs rank by value
            key = (not strict, violation, value)
            if self.record is None or key < self.record[0]:
                self.record = (key, self.point)
            self.trace.append(min(self.trace[-1], obj) if self.trace else obj)
        try:
            self.point = self.search.send(obj)
        except StopIteration:
            return False
        return True


def _search(req, objective):
    """The winning start: the first in (family, start) order whose record
    has the least key, so ties go to the lowest index.

    Every live start of every family advances in lockstep: each round
    scores the pending point of each as one batch, in (family, start)
    order, cut into consecutive batches of at most
    ``hartogs.TRACE_BATCH_NODES`` boundary nodes (at least one row each).
    Each start keeps its own budget, record and trace."""
    starts = [_Start(req, f_idx, s_idx)
              for f_idx, family in enumerate(req.families)
              for s_idx in range(req.starts if family.n_params > 0 else 1)]
    per_batch = max(1, hartogs.TRACE_BATCH_NODES // req.grid.M)
    live = starts
    while live:
        todo, live = live, []
        for lo in range(0, len(todo), per_batch):
            batch = todo[lo:lo + per_batch]
            groups = [(family, np.array([s.point for s in rows]))
                      for family, rows in groupby(batch, lambda s: s.family)]
            # the samples are only held, until the next batch is scored:
            # freeing them sooner runs slower (glibc heap placement)
            obj, value, violation, strict, samples = _evaluate(
                req, groups, objective)
            live += [start for start, o, v, vio, st in zip(
                batch, obj.tolist(), value.tolist(), violation.tolist(),
                strict.tolist()) if start.tell(o, v, vio, st)]
    recorded = [start for start in starts if start.record is not None]
    if not recorded:
        point = " ".join(repr(complex(c)) for c in req.x)
        raise InfeasibleEnvelope(
            f"no disc centred at {point} had a finite boundary average")
    return min(recorded, key=lambda start: start.record[0])


def _envelope_objective(req):
    """The objective of the full search: the boundary average plus the
    penalties of the constraints, boundary nodes in W."""
    w, x_spec = req.pair

    def objective(samples):
        value = boundary_averages(samples, req.phi)
        pen, violation, strict = _constraints(w, x_spec, samples)
        return value + req.penalty_weight * pen, value, violation, strict

    return objective


def minimize_envelope(req):
    """Best feasible boundary average of the obstacle over the disc families:
    the plain average (penalties removed) at the configured M along the
    winning disc, an upper bound for the true envelope, which in turn
    dominates the largest plurisubharmonic subextension.

    The levels M_c (the least power of two >= SEARCH_M where every family
    builds; if below M) and M each search.  A winner, scored at M as one
    row, stands at M, or if strict there within AGREEMENT of its M_c value.
    On a small budget a coarse winner can be the looser bound, and one
    that misses strictness at M by a rounding error sends the search to M,
    which can report a far looser one (on the annulus at 1.9 * 0.4357... *
    exp(1e-12 i), at numpy's baseline SIMD level: 9.5e-16 at 64 nodes, a
    violation of 1.1e-16 at 256, then 5.6e-6; ROADMAP items 18 and 24)."""
    objective = _envelope_objective(req)
    m_c = SEARCH_M
    while any(m_c // 2 <= family.order for family in req.families):
        m_c *= 2
    for m in sorted({m_c, req.grid.M}):  # stops at M
        try:
            best = _search(replace(req, grid=QuadratureGrid(m)), objective)
        except InfeasibleEnvelope:
            if m == req.grid.M:
                raise
            continue
        (_, _, v), params = best.record
        _, value, violation, strict, samples = _evaluate(
            req, [(best.family, np.array([params]))], objective)
        if m == req.grid.M or strict[0] and abs(value.item() - v) <= (
                AGREEMENT * max(1.0, abs(v))):
            break
    return EnvelopeResult(
        value=value.item(), best_params=np.array(params),
        family=best.family.name, start_index=best.index,
        max_violation=violation.item(), feasible=bool(strict[0]),
        trace=best.trace, disc=AnalyticDisc(samples[0]), search_m=m,
        certificate="max_principle" if req.pair[1].max_principle
        else "probes")


def _partial_objective(req, eps):
    """The objective of the partial search at tolerance eps: the integral
    over the in-W nodes plus the penalties of a short in-W mass and of the
    constraints, nodes in X.  A disc with in-W mass at most 1 - eps is not
    strictly feasible, and its shortfall counts as violation."""
    need = 1.0 - eps + 0.5 / req.grid.M
    w, x_spec = req.pair

    def objective(samples):
        mass, integral = partial_stats(samples, req.phi, w)
        # Python's float power: numpy's square can differ in the last bit
        short = np.array([max(0.0, need - m) ** 2 for m in mass.tolist()])
        pen, violation, strict = _constraints(x_spec, x_spec, samples, short)
        thin = mass <= 1.0 - eps
        violation = np.where(
            thin, np.maximum(violation, (1.0 - eps) - mass + 1e-12),
            violation)
        return (integral + req.penalty_weight * pen, integral, violation,
                strict & ~thin)

    return objective


def partial_envelope(req, eps):
    """Upper bound on the partial-boundary infimum at tolerance eps.

    Minimises the integral of the obstacle over the in-W part of the
    boundary subject to that part having measure above 1 - eps, with the
    disc itself confined to X.  Full-boundary discs always qualify, so
    the exact infimum is nonincreasing in eps and below the envelope; the
    reported bounds, each from its own search, need not be (planar
    annulus, phi = |z1|, degree-3 polynomials, x = 0: 1.1567 at
    eps = 0.05, 0.15 above the full envelope's 1.0091).
    """
    if not 0.0 < eps < 1.0:
        raise ConfigurationError("eps must lie in (0, 1)")
    if eps <= 2.0 / req.grid.M:
        raise ConfigurationError(
            f"eps={eps} unresolvable at M={req.grid.M}; need eps > 2/M")
    return _search(req, _partial_objective(req, eps)).record[0][2]


def sample_feasible_values(req, n_samples):
    """Draw random parameter vectors across the request's families, keep
    the feasible discs, and return their boundary averages.

    Each family's draws are scored in batches of at most
    SAMPLE_BATCH_NODES boundary nodes.  Used for sampled gap
    demonstrations; this is evidence about the searched family only, not
    a bound over all discs.
    """
    objective = _envelope_objective(req)
    values = []
    for f_idx, family in enumerate(req.families):
        rng = np.random.default_rng([req.seed, 7919, f_idx])
        draws = n_samples if family.n_params > 0 else min(n_samples, 1)
        P = np.array([family.initial(rng, start_index=s_idx + 1)
                      for s_idx in range(draws)]).reshape(draws, family.n_params)
        rows = max(1, SAMPLE_BATCH_NODES // req.grid.M)
        for lo in range(0, draws, rows):
            _, value, _, strict, _ = _evaluate(
                req, [(family, P[lo:lo + rows])], objective)
            if np.any(strict & np.isnan(value)):
                raise EvaluationError(
                    "obstacle evaluation not finite along a feasible disc")
            values.extend(value[strict].tolist())
    return np.asarray(values)
