"""Helpers shared by the test modules."""

import numpy as np

from discenv import envelope
from discenv.discs import AnalyticDisc


def constant_disc(point, m=64):
    """The disc with every one of its m boundary samples at ``point``."""
    point = np.atleast_1d(np.asarray(point, dtype=complex))
    return AnalyticDisc(np.tile(point, (m, 1)))


def searched_at(monkeypatch):
    """Record the M of every ``envelope._search`` call; returns that
    list."""
    sizes = []
    search = envelope._search
    monkeypatch.setattr(envelope, "_search", lambda req, *args: (
        sizes.append(req.grid.M) or search(req, *args)))
    return sizes
