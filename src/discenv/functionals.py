"""Quadrature of boundary averages of an obstacle along a disc.

The average over the unit circle is taken against normalised arc length,
realised as the uniform trapezoidal rule on the sample grid; for
band-limited discs and smooth obstacles this rule is spectrally accurate.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, EvaluationError


class QuadratureGrid:
    """The size M of the uniform boundary grid (a power of two >= 8)."""

    def __init__(self, m):
        if m < 8 or (m & (m - 1)) != 0:
            raise ConfigurationError(
                f"quadrature size must be a power of two >= 8, got {m}")
        self.M = m


def poisson_functional(disc, phi):
    """The boundary average of phi along the disc: mean of phi(f(node))
    over the disc's own sample grid."""
    values = phi(disc.samples)
    if not np.all(np.isfinite(values)):
        bad = int(np.argmax(~np.isfinite(values)))
        raise EvaluationError(
            f"obstacle evaluation not finite at boundary node {bad}")
    return float(np.mean(values))


def partial_boundary_stats(disc, phi, w):
    """Mass and integral of phi over the part of the boundary inside W.

    Returns (mass, integral) where mass is the fraction of boundary nodes
    with positive W-margin and integral sums phi only over those nodes
    with weight 1/M.  A boundary entirely outside W yields (0.0, 0.0).
    """
    inside = w.margin(disc.samples) > 0
    mass = float(np.count_nonzero(inside)) / disc.M
    if mass == 0.0:
        return 0.0, 0.0
    values = phi(disc.samples[inside])
    if not np.all(np.isfinite(values)):
        raise EvaluationError("obstacle evaluation not finite on boundary arc")
    integral = float(np.sum(values)) / disc.M
    return mass, integral
