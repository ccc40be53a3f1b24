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


def boundary_averages(samples, phi):
    """The boundary average of phi along each disc of a batch: the mean of
    phi over the nodes of samples (B, M, n), one value per disc.  A disc
    along which phi is not finite gets a value that is not finite."""
    values = phi(samples)
    # np.mean's own sum and division, without its Python wrapper
    return np.add.reduce(values, axis=-1) / values.shape[-1]


def poisson_functional(disc, phi):
    """The boundary average of phi along the disc: mean of phi(f(node))
    over the disc's own sample grid."""
    value = float(boundary_averages(disc.samples[None], phi)[0])
    if not np.isfinite(value):
        raise EvaluationError(
            "obstacle evaluation not finite at a boundary node")
    return value


def partial_stats(samples, phi, w):
    """Mass and integral of phi over the part of each disc's boundary
    inside W, for samples (B, M, n).

    The mass is the fraction of nodes with positive W-margin; the
    integral sums phi over those nodes only, with weight 1/M.  phi is
    evaluated at no other node.  A disc whose in-W values are not all
    finite gets an integral that is not finite.
    """
    m = samples.shape[1]
    inside = w.margin(samples) > 0
    counts = np.count_nonzero(inside, axis=1)
    values = phi(samples[inside])
    ends = np.cumsum(counts).tolist()
    # each disc's sum runs over its own values alone, as for one disc
    integral = np.array([np.add.reduce(values[e - c:e])
                         for c, e in zip(counts.tolist(), ends)]) / m
    return counts / m, integral


def partial_boundary_stats(disc, phi, w):
    """Mass and integral of phi over the part of the boundary inside W
    (``partial_stats`` of one disc).  A boundary entirely outside W
    yields (0.0, 0.0)."""
    mass, integral = partial_stats(disc.samples[None], phi, w)
    if not np.isfinite(integral[0]):
        raise EvaluationError("obstacle evaluation not finite on boundary arc")
    return float(mass[0]), float(integral[0])
