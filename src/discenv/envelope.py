"""Upper approximation of disc-functional envelopes by penalised search.

The boundary-in-W and interior-in-X constraints are enforced by squared
hinge penalties on the signed margins (with a small feasibility slack so
reported optima sit strictly inside), while the centre constraint is
structural in every disc family.  Each (family, start) pair is minimised
independently by adaptive Nelder-Mead (``minimize``) from seeded initial
parameters.  Recorded discs rank by (not strictly feasible, violation,
value); ties keep the first recorded, then the lowest (family, start)
index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .discs import circle_eval
from .errors import ConfigurationError, EvaluationError, \
    InfeasibleEnvelope, InfeasibleParameters, PreconditionError
from .functionals import QuadratureGrid, partial_boundary_stats, \
    poisson_functional

#: Interior containment is probed on this polar grid (design default).
INTERIOR_RADII = (0.25, 0.5, 0.75, 0.95)
INTERIOR_ANGLES = 32

BARRIER = 1e6
FEAS_MARGIN = 1e-5  # slack inside the penalty hinge


class _BudgetSpent(Exception):
    """Raised inside ``minimize`` when the evaluation budget is spent."""


@dataclass
class MinimizeResult:
    """The best simplex vertex, its value and the evaluations spent."""
    x: np.ndarray
    fun: float
    nfev: int


def minimize(fun, x0, budget):
    """Adaptive Nelder-Mead (Gao & Han, Comput. Optim. Appl. 51, 2012).

    Evaluates the points that scipy.optimize.minimize(fun, x0,
    method="Nelder-Mead", options={"maxfev": budget, "xatol": 1e-9,
    "fatol": 1e-12, "adaptive": True}) evaluates, in the same order, and
    stops as soon as ``budget`` evaluations are spent, even mid-shrink.
    ``fun`` gets a copy of each point.
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
        return fun(np.copy(x))

    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
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
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = (1 + chi) * xbar - chi * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = (1 + psi) * xbar - psi * sim[-1]
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = (1 - psi) * xbar + psi * sim[-1]
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)
    return MinimizeResult(sim[0], float(fsim[0]), nfev)


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


def _margins(boundary_domain, x_spec, disc):
    """Signed margins of the boundary nodes in ``boundary_domain`` and of
    the interior probes in X (positive means strictly inside).

    The probes are evaluated in ``interior_probe_points`` order."""
    probes = circle_eval(disc.coeffs[:disc.M // 2], INTERIOR_RADII,
                         INTERIOR_ANGLES).reshape(-1, disc.n)
    return boundary_domain.margin(disc.samples), x_spec.margin(probes)


def _violation(bm, im):
    """Max constraint violation of the boundary and interior margins.

    Returns (violation, strict) where strict certifies that every boundary
    node and every interior probe lies strictly inside its domain.  A NaN
    margin gives a NaN violation.
    """
    lo_b, lo_i = np.min(bm), np.min(im)
    violation = float(np.maximum(0.0, -np.minimum(lo_b, lo_i)))
    strict = bool(lo_b > 0 and lo_i > 0)
    return violation, strict


def _hinge(margins):
    """Squared hinge penalty on margins that fall below FEAS_MARGIN."""
    return float(np.sum(np.maximum(0.0, FEAS_MARGIN - margins) ** 2))


def _no_disc(req):
    """The error for a search that recorded no disc."""
    if not req.families:
        return ConfigurationError("no family produced any disc")
    point = " ".join(repr(complex(c)) for c in req.x)
    return InfeasibleEnvelope(
        f"no disc centred at {point} had a finite boundary average")


def _run_start(req, family, objective_fn, rng, start_index):
    """Minimise one start.  Returns its least-keyed record
    (key, params, disc), or None when no disc was recorded, and the
    trace of the best objective so far."""
    best = None
    trace = []

    def wrapped(params):
        nonlocal best
        try:
            disc = family.build(params, req.grid.M)
        except InfeasibleParameters as exc:
            return BARRIER * (1.0 + exc.excess)
        try:
            obj, value, violation, strict = objective_fn(disc)
        except EvaluationError:
            # obstacle undefined along this disc (always infeasible territory)
            return BARRIER
        if not np.isfinite(obj):
            return BARRIER
        # a strict disc's violation is 0.0, so strict discs rank by value
        key = (not strict, violation, value)
        if best is None or key < best[0]:
            best = (key, np.array(params, dtype=float), disc)
        trace.append(min(trace[-1], obj) if trace else obj)
        return obj

    p0 = family.initial(rng, start_index)
    if family.n_params == 0:
        wrapped(p0)
    else:
        minimize(wrapped, p0, req.budget)
    return best, trace


def _search(req, objective_fn):
    """The least-keyed record over every (family, start):
    (key, f_idx, s_idx, params, disc, trace).  Starts run in index order
    and only a smaller key replaces the record, so ties keep the lowest
    (family, start) index."""
    best = None
    for f_idx, family in enumerate(req.families):
        n_starts = req.starts if family.n_params > 0 else 1
        for s_idx in range(n_starts):
            rng = np.random.default_rng([req.seed, f_idx, s_idx])
            record, trace = _run_start(req, family, objective_fn, rng, s_idx)
            if record is not None and (best is None or record[0] < best[0]):
                best = (record[0], f_idx, s_idx, *record[1:], trace)
    if best is None:
        raise _no_disc(req)
    return best


def minimize_envelope(req):
    """Best feasible boundary average of the obstacle over the disc families.

    The value is the plain quadrature average (penalties removed) along
    the least-ranked disc recorded in the search; it is an upper bound
    for the true envelope, which in turn dominates the largest
    plurisubharmonic subextension.
    """
    w, x_spec = req.pair

    def objective_fn(disc):
        value = poisson_functional(disc, req.phi)
        bm, im = _margins(w, x_spec, disc)
        violation, strict = _violation(bm, im)
        pen = req.penalty_weight * (_hinge(bm) + _hinge(im))
        return value + pen, value, violation, strict

    (blocked, violation, value), f_idx, s_idx, params, disc, trace = \
        _search(req, objective_fn)
    return EnvelopeResult(
        value=value, best_params=params, family=req.families[f_idx].name,
        start_index=s_idx, max_violation=violation, feasible=not blocked,
        trace=trace, disc=disc)


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
    w, x_spec = req.pair
    need = 1.0 - eps + 0.5 / req.grid.M

    def objective_fn(disc):
        mass, integral = partial_boundary_stats(disc, req.phi, w)
        bm, im = _margins(x_spec, x_spec, disc)
        pen = req.penalty_weight * (
            max(0.0, need - mass) ** 2 + _hinge(bm) + _hinge(im))
        violation, strict = _violation(bm, im)
        if mass <= 1.0 - eps:
            violation = max(violation, (1.0 - eps) - mass + 1e-12)
            strict = False
        return integral + pen, integral, violation, strict

    return _search(req, objective_fn)[0][2]


def sample_feasible_values(req, n_samples):
    """Draw random parameter vectors across the request's families, keep
    the feasible discs, and return their boundary averages.

    Used for sampled gap demonstrations; this is evidence about the
    searched family only, not a bound over all discs.
    """
    w, x_spec = req.pair
    values = []
    for f_idx, family in enumerate(req.families):
        rng = np.random.default_rng([req.seed, 7919, f_idx])
        for s_idx in range(n_samples):
            params = family.initial(rng, start_index=s_idx + 1)
            try:
                disc = family.build(params, req.grid.M)
            except InfeasibleParameters:
                continue
            if _violation(*_margins(w, x_spec, disc))[1]:
                values.append(poisson_functional(disc, req.phi))
            if family.n_params == 0:
                break
    return np.asarray(values)
