"""Upper approximation of disc-functional envelopes by penalised search.

The boundary-in-W and interior-in-X constraints are enforced by squared
hinge penalties on the signed margins (with a small feasibility slack so
reported optima sit strictly inside), while the centre constraint is
structural in every disc family.  Each (family, start) pair is minimised
independently by adaptive Nelder-Mead (``nelder_mead``) from seeded
initial parameters.  The starts of a family run in lockstep: each round
takes the next point of every live start and evaluates them as one batch
of discs.  Recorded discs rank by (not strictly feasible, violation,
value); ties keep the first recorded, then the lowest (family, start)
index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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

#: Sampling scores its draws in batches of at most this many boundary
#: nodes, which bounds the working memory of a batch (the search's own
#: batches, one disc per live start, stay below it at the default 8
#: starts and M = 512).
SAMPLE_BATCH_NODES = 4096


class _BudgetSpent(Exception):
    """Raised inside ``nelder_mead`` when the evaluation budget is spent."""


@dataclass
class MinimizeResult:
    """The best simplex vertex, its value and the evaluations spent."""
    x: np.ndarray
    fun: float
    nfev: int


def nelder_mead(x0, budget):
    """Adaptive Nelder-Mead (Gao & Han, Comput. Optim. Appl. 51, 2012) as
    an ask/tell generator.

    Yields a copy of each point to evaluate and takes its value by
    ``send``; returns the MinimizeResult when it stops.  The points are
    those that scipy.optimize.minimize(fun, x0, method="Nelder-Mead",
    options={"maxfev": budget, "xatol": 1e-9, "fatol": 1e-12,
    "adaptive": True}) evaluates, in the same order, and it stops as soon
    as ``budget`` evaluations are spent, even mid-shrink.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    n = x0.size
    chi, psi, sigma = 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.full(n + 1, np.inf)
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= budget:
            raise _BudgetSpent
        nfev += 1
        return (yield np.copy(x))

    try:
        for k in range(n + 1):
            fsim[k] = yield from f(sim[k])
    except _BudgetSpent:
        pass
    order = np.argsort(fsim)
    sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)
    while nfev < budget:
        if (np.max(np.abs(sim[1:] - sim[0])) <= 1e-9
                and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-12):
            break
        try:
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = yield from f(xr)
            if fxr < fsim[0]:
                xe = (1 + chi) * xbar - chi * sim[-1]
                fxe = yield from f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = (1 + psi) * xbar - psi * sim[-1]
                    fxc = yield from f(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = (1 - psi) * xbar + psi * sim[-1]
                    fxc = yield from f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = yield from f(sim[j])
        except _BudgetSpent:
            pass
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)
    return MinimizeResult(sim[0], float(fsim[0]), nfev)


def minimize(fun, x0, budget):
    """Minimise ``fun`` from x0 by ``nelder_mead`` within ``budget``
    evaluations; ``fun`` gets a copy of each point."""
    search = nelder_mead(x0, budget)
    try:
        x = next(search)
        while True:
            x = search.send(fun(x))
    except StopIteration as stop:
        return stop.value


def interior_probe_points(radii=INTERIOR_RADII, angles=INTERIOR_ANGLES):
    rr = np.asarray(radii)
    zeta = np.exp(2j * np.pi * np.arange(angles) / angles)
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
        w, x_spec = self.pair
        if not np.all(x_spec.margin(self.x[None, :]) > 0):
            raise PreconditionError("centre lies outside X")
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


def _margins(boundary_domain, x_spec, samples):
    """Signed margins of the boundary nodes in ``boundary_domain`` and of
    the interior probes in X (positive means strictly inside) of each disc
    of a batch of boundary samples (B, M, n): arrays (B, M) and (B, P).

    The probes are evaluated in ``interior_probe_points`` order."""
    b, m, n = samples.shape
    coeffs = np.fft.fft(samples, axis=1)[:, :m // 2] / m
    probes = circle_eval(coeffs, INTERIOR_RADII,
                         INTERIOR_ANGLES).reshape(b, -1, n)
    return boundary_domain.margin(samples), x_spec.margin(probes)


def _violation(bm, im):
    """Max constraint violation of the boundary and interior margins of
    each disc (the last axis runs over nodes and probes).

    Returns (violation, strict) where strict certifies that every boundary
    node and every interior probe lies strictly inside its domain.  A NaN
    margin gives a NaN violation.
    """
    lo_b, lo_i = np.min(bm, axis=-1), np.min(im, axis=-1)
    violation = np.maximum(0.0, -np.minimum(lo_b, lo_i))
    return violation, (lo_b > 0) & (lo_i > 0)


def _hinge(margins):
    """Squared hinge penalty on margins that fall below FEAS_MARGIN, one
    per disc."""
    return np.sum(np.maximum(0.0, FEAS_MARGIN - margins) ** 2, axis=-1)


def _no_disc(req):
    """The error for a search that recorded no disc."""
    if not req.families:
        return ConfigurationError("no family produced any disc")
    point = " ".join(repr(complex(c)) for c in req.x)
    return InfeasibleEnvelope(
        f"no disc centred at {point} had a finite boundary average")


def _evaluate(req, family, P, boundary, objective):
    """Build and score the disc of each row of P as one batch.

    ``objective(samples, bm, im)`` maps the built discs' samples and
    margins (boundary nodes in ``boundary``, interior probes in X) to
    their penalised objective, value, violation and strictness.  Returns
    those four per row, and the boundary samples of all rows.  A row
    whose disc cannot be built gets the barrier BARRIER * (1 + excess), a
    row whose objective is not finite gets BARRIER, and both get the
    value NaN: they record no disc.
    """
    samples, excess = family.build_many(P, req.grid.M)
    built = excess == 0
    with np.errstate(over="ignore"):  # a huge excess: an infinite barrier
        obj = BARRIER * (1.0 + excess)
    value = np.full(len(P), np.nan)
    violation = np.full(len(P), np.inf)
    strict = np.zeros(len(P), dtype=bool)
    if built.any():
        rows = samples if built.all() else samples[built]
        o, v, violation[built], strict[built] = objective(
            rows, *_margins(boundary, req.pair[1], rows))
        finite = np.isfinite(o)
        obj[built] = np.where(finite, o, BARRIER)
        value[built] = np.where(finite, v, np.nan)
    return obj, value, violation, strict, samples


def _once(x):
    """The search of a family without parameters: its one point."""
    yield x


class _Start:
    """One start of the lockstep search: its search generator, the point
    it waits on, its least-keyed record (key, params, samples) and the
    trace of its best objective so far."""

    def __init__(self, search):
        self.search = search
        self.point = next(search)
        self.record = None
        self.trace = []

    def tell(self, params, samples, obj, value, violation, strict):
        """Record the evaluated point and send its objective to the
        search; False once the search has stopped."""
        if not math.isnan(value):
            # a strict disc's violation is 0.0, so strict discs rank by value
            key = (not strict, violation, value)
            if self.record is None or key < self.record[0]:
                self.record = (key, params, samples.copy())
            self.trace.append(min(self.trace[-1], obj) if self.trace else obj)
        try:
            self.point = self.search.send(obj)
        except StopIteration:
            return False
        return True


def _search(req, boundary, objective):
    """The least-keyed record over every (family, start):
    (key, f_idx, s_idx, params, samples, trace).

    The starts of a family advance in lockstep, one point each per
    batch, and each keeps its own budget, record and trace.  Records are
    then merged in (family, start) order and only a smaller key replaces
    the best, so ties keep the lowest (family, start) index."""
    best = None
    for f_idx, family in enumerate(req.families):
        starts = []
        for s_idx in range(req.starts if family.n_params > 0 else 1):
            rng = np.random.default_rng([req.seed, f_idx, s_idx])
            p0 = family.initial(rng, s_idx)
            starts.append(_Start(nelder_mead(p0, req.budget)
                                 if family.n_params > 0 else _once(p0)))
        live = starts
        while live:
            P = np.array([start.point for start in live])
            obj, value, violation, strict, samples = _evaluate(
                req, family, P, boundary, objective)
            live = [start for start, *row in zip(
                live, P, samples, obj.tolist(), value.tolist(),
                violation.tolist(), strict.tolist()) if start.tell(*row)]
        for s_idx, start in enumerate(starts):
            record = start.record
            if record is not None and (best is None or record[0] < best[0]):
                best = (record[0], f_idx, s_idx, *record[1:], start.trace)
    if best is None:
        raise _no_disc(req)
    return best


def _envelope_objective(req):
    """The objective of the full search: the boundary average plus the
    hinge penalties of the boundary and interior margins."""

    def objective(samples, bm, im):
        value = boundary_averages(samples, req.phi)
        pen = req.penalty_weight * (_hinge(bm) + _hinge(im))
        return (value + pen, value, *_violation(bm, im))

    return objective


def minimize_envelope(req):
    """Best feasible boundary average of the obstacle over the disc families.

    The value is the plain quadrature average (penalties removed) along
    the least-ranked disc recorded in the search; it is an upper bound
    for the true envelope, which in turn dominates the largest
    plurisubharmonic subextension.
    """
    (blocked, violation, value), f_idx, s_idx, params, samples, trace = \
        _search(req, req.pair[0], _envelope_objective(req))
    return EnvelopeResult(
        value=value, best_params=params, family=req.families[f_idx].name,
        start_index=s_idx, max_violation=violation, feasible=not blocked,
        trace=trace, disc=AnalyticDisc(samples))


def _partial_objective(req, eps):
    """The objective of the partial search at tolerance eps: the integral
    over the in-W nodes plus the penalties of a short in-W mass and of
    the margins in X.  A disc with in-W mass at most 1 - eps is not
    strictly feasible, and its shortfall counts as violation."""
    need = 1.0 - eps + 0.5 / req.grid.M

    def objective(samples, bm, im):
        mass, integral = partial_stats(samples, req.phi, req.pair[0])
        # Python's float power: numpy's square can differ in the last bit
        short = np.array([max(0.0, need - m) ** 2 for m in mass.tolist()])
        pen = req.penalty_weight * (short + _hinge(bm) + _hinge(im))
        violation, strict = _violation(bm, im)
        thin = mass <= 1.0 - eps
        violation = np.where(
            thin, np.maximum(violation, (1.0 - eps) - mass + 1e-12),
            violation)
        return integral + pen, integral, violation, strict & ~thin

    return objective


def partial_envelope(req, eps):
    """Upper bound on the partial-boundary infimum at tolerance eps.

    Minimises the integral of the obstacle over the in-W part of the
    boundary subject to that part having measure above 1 - eps, with the
    disc itself confined to X.  Full-boundary discs always qualify, so
    the bound is nonincreasing as eps grows (up to solver noise).
    """
    if not 0.0 < eps < 1.0:
        raise ConfigurationError("eps must lie in (0, 1)")
    if eps <= 2.0 / req.grid.M:
        raise ConfigurationError(
            f"eps={eps} unresolvable at M={req.grid.M}; need eps > 2/M")
    return _search(req, req.pair[1], _partial_objective(req, eps))[0][2]


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
                req, family, P[lo:lo + rows], req.pair[0], objective)
            if np.any(strict & np.isnan(value)):
                raise EvaluationError(
                    "obstacle evaluation not finite along a feasible disc")
            values.extend(value[strict].tolist())
    return np.asarray(values)
