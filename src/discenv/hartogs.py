"""Hartogs domain pairs and the centre-preserving homotopy to vertical discs.

A Hartogs pair over a base Y in C^{n-1} is the rotation-invariant shell
W = {r(z') < |z_n| < R(z')} inside its completion X = {|z_n| < R(z')}.
Every disc with boundary in W deforms, with fixed centre, onto a vertical
disc by sliding the base to its centre value and replacing the last
component's outer part by its value along a shrinking circle.
"""

from __future__ import annotations

import json

import numpy as np

from .discs import (
    AnalyticDisc,
    _analytic_log_coeffs,
    circle_eval,
    roots_of_unity,
    winding_number,
)
from .domains import DomainSpec
from .errors import (
    ConfigurationError,
    DegenerateInputError,
    NonHolomorphicError,
    PreconditionError,
)


class HartogsPair:
    """Base domain plus radius profiles r < R, with derived W and X specs.

    ``r_fn`` and ``R_fn`` are vectorised callables on base points of
    shape (..., n-1).  Pseudoconvexity of W (log r plurisubharmonic,
    log R plurisuperharmonic) is the caller's responsibility; it can be
    spot-checked with ``oracles.submean_check`` but is never enforced.
    """

    def __init__(self, base, r_fn, R_fn):
        if not isinstance(base, DomainSpec):
            raise ConfigurationError("base must be a DomainSpec")
        self.base = base
        self.r_fn = r_fn
        self.R_fn = R_fn
        self.n = base.n + 1

        def w_margin(p):
            zp, zn = p[..., :-1], p[..., -1]
            rv = np.asarray(r_fn(zp), dtype=float)
            Rv = np.asarray(R_fn(zp), dtype=float)
            a = np.abs(zn)
            return np.minimum(base.margin(zp), np.minimum(a - rv, Rv - a))

        def x_margin(p):
            zp, zn = p[..., :-1], p[..., -1]
            Rv = np.asarray(R_fn(zp), dtype=float)
            return np.minimum(base.margin(zp), Rv - np.abs(zn))

        self.W = DomainSpec(f"hartogs_W({base.name})", self.n, w_margin)
        self.X = DomainSpec(f"hartogs_X({base.name})", self.n, x_margin)

    def radii(self, zp):
        zp = np.asarray(zp, dtype=complex)
        return float(self.r_fn(zp)), float(self.R_fn(zp))


def vertical_disc(pair, zp, s, k=1, m=256):
    """The disc zeta -> (z', s * zeta^k) with centre (z', 0)."""
    zp = np.atleast_1d(np.asarray(zp, dtype=complex))
    if zp.size != pair.n - 1:
        raise ConfigurationError("base point dimension mismatch")
    if not np.all(pair.base.margin(zp) > 0):
        raise PreconditionError("base point outside Y")
    r, R = pair.radii(zp)
    if not r < s < R:
        raise PreconditionError(f"scale {s} outside radial range ({r}, {R})")
    if k < 1:
        raise ConfigurationError("winding must be >= 1 for a vertical disc")
    zeta = roots_of_unity(m)
    samples = np.tile(zp, (m, 1))
    samples = np.concatenate([samples, (s * zeta ** k)[:, None]], axis=1)
    return AnalyticDisc(samples)


def hartogs_homotopy(f, t):
    """The disc f^t(zeta) = (f'(t zeta), f_n(zeta) H(t zeta) / H(zeta)).

    H is the outer function of the last component, so |f_n^t| = |H(t zeta)|
    on the circle and the centre is preserved for every t.  f^1 recovers f
    and f^0 is of vertical type: constant base, last component a constant
    modulus times a Blaschke factor per zero of f_n.
    """
    if f.n < 2:
        raise ConfigurationError("homotopy needs dimension >= 2")
    if not 0.0 <= t <= 1.0:
        raise ConfigurationError("homotopy parameter must lie in [0, 1]")
    fn = f.component(f.n - 1)
    if np.min(np.abs(fn)) <= 1e-12:
        raise DegenerateInputError("last component vanishes on the circle")
    m = f.M
    a = _analytic_log_coeffs(fn)[:m // 2 + 1]

    base = circle_eval(f.coeffs[None, :m // 2, :-1], t, m)[0, 0]
    log_t, log_1 = circle_eval(a[None], (t, 1.0), m)[0]
    ratio = np.exp(log_t - log_1)
    samples = np.concatenate([base, (fn * ratio)[:, None]], axis=1)
    return AnalyticDisc(samples)


def classify_component(f):
    """Winding number of the last component; labels the connected component
    of the space of boundary-in-W discs that f belongs to."""
    k = winding_number(f.component(f.n - 1))
    if k < 0:
        raise NonHolomorphicError(
            f"negative winding {k}: last component is not a holomorphic "
            "disc component without zeros on the circle")
    return k


class HomotopyTrace:
    """Per-step summaries of the centre-preserving homotopy of one disc."""

    def __init__(self, t_values, min_margins, centre_deviations, windings):
        self.t_values = np.asarray(t_values, dtype=float)
        self.min_margins = np.asarray(min_margins, dtype=float)
        self.centre_deviations = np.asarray(centre_deviations, dtype=float)
        self.windings = np.asarray(windings, dtype=int)

    def rows(self):
        return [
            {"t": float(t), "min_margin": float(mg),
             "centre_deviation": float(cd), "winding": int(wd)}
            for t, mg, cd, wd in zip(self.t_values, self.min_margins,
                                     self.centre_deviations, self.windings)
        ]

    def to_json(self):
        return json.dumps(self.rows(), indent=2, sort_keys=True)


def homotopy_trace(pair, f, steps=32):
    """Run the homotopy over a uniform t-grid and record boundary margins,
    centre drift, and the winding label at each step."""
    centre = f.centre
    t_values = np.linspace(0.0, 1.0, steps + 1)
    margins, deviations, windings = [], [], []
    for t in t_values:
        ft = hartogs_homotopy(f, t)
        margins.append(float(np.min(pair.W.margin(ft.samples))))
        deviations.append(float(np.max(np.abs(ft.centre - centre))))
        windings.append(classify_component(ft))
    return HomotopyTrace(t_values, margins, deviations, windings)
