"""Helpers shared by the test modules."""

import numpy as np

from discenv.discs import AnalyticDisc


def constant_disc(point, m=64):
    """The disc with every one of its m boundary samples at ``point``."""
    point = np.atleast_1d(np.asarray(point, dtype=complex))
    return AnalyticDisc(np.tile(point, (m, 1)))
