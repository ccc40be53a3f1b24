"""Parametric families of analytic discs with structurally exact centres.

Each family maps a real parameter vector to the boundary samples of a
disc whose value at 0 equals the prescribed centre by construction
(never by penalty).  ``build_many(P, m)`` is the one construction: it
maps the rows of P to boundary samples at m nodes, shape (B, m, n), and
to each row's infeasibility excess, which is positive where a row cannot
realise the centre (a free or solved-for Blaschke zero falls outside the
unit disc) and 0 elsewhere.  The samples of such a row are unspecified;
the search gives it a barrier.
"""

from __future__ import annotations

import numpy as np

from .discs import root_powers, roots_of_unity
from .domains import shell_centre, shell_disc
from .errors import ConfigurationError, PreconditionError

ZERO_CAP = 1.0 - 1e-6  # Blaschke zeros stay strictly inside the unit disc


class DiscFamily:
    """A parametric disc family: ``build_many``, ``initial``, ``n_params``,
    ``order`` (``build_many`` needs m // 2 > order) and ``centre``, which
    the search checks against its point, and ``name``, which names the
    family in messages and results."""

    name = "family"
    n_params = 0
    order = 0

    def build_many(self, P, m):
        """Boundary samples (B, m, n) of the rows of P, shape
        (B, n_params), and each row's infeasibility excess (B,)."""
        raise NotImplementedError

    def initial(self, rng, start_index=0):
        return np.zeros(self.n_params)


class ConstantFamily(DiscFamily):
    """The constant disc at the centre; useful whenever the centre is in W."""

    name = "constant"
    n_params = 0

    def __init__(self, centre):
        self.centre = np.atleast_1d(np.asarray(centre, dtype=complex))

    def build_many(self, P, m):
        return np.tile(self.centre, (len(P), m, 1)), np.zeros(len(P))


class PolynomialFamily(DiscFamily):
    """f(zeta) = centre + sum of free coefficients times zeta^1..zeta^d."""

    name = "polynomial"

    def __init__(self, centre, degree=4, scale=0.4):
        self.centre = np.atleast_1d(np.asarray(centre, dtype=complex))
        if degree < 1:
            raise ConfigurationError("polynomial degree must be >= 1")
        self.degree = self.order = degree
        self.scale = scale
        self.n = self.centre.size
        self.n_params = 2 * degree * self.n

    def build_many(self, P, m):
        if m // 2 <= self.order:
            raise ConfigurationError("sample grid too small for degree")
        flat = P.reshape(len(P), self.degree, self.n, 2)
        c = np.zeros((len(P), m, self.n), dtype=complex)
        c[:, 0] = self.centre
        c[:, 1:self.degree + 1] = flat[..., 0] + 1j * flat[..., 1]
        return np.fft.ifft(c * m, axis=1), np.zeros(len(P))

    def initial(self, rng, start_index=0):
        raw = rng.standard_normal(self.n_params)
        decay = np.repeat(0.5 ** np.arange(self.degree), 2 * self.n)
        return self.scale * raw * decay


class VerticalFamily(DiscFamily):
    """Hartogs vertical disc (z', s * zeta^k) through a centre (z', 0).

    One parameter, the log of the radial scale s.
    """

    name = "vertical"
    n_params = 1

    def __init__(self, centre, winding=1, s_range=(0.1, 1.0)):
        self.centre = np.atleast_1d(np.asarray(centre, dtype=complex))
        if abs(self.centre[-1]) > 1e-14:
            raise ConfigurationError(
                f"{self.name} family: centre {tuple(self.centre.tolist())} "
                f"must have last coordinate 0")
        if winding < 1:
            raise ConfigurationError("winding must be >= 1")
        self.k = self.order = winding
        self.s_range = s_range

    def build_many(self, P, m):
        if m // 2 <= self.order:
            raise ConfigurationError("sample grid too small for winding")
        s = np.exp(P[:, 0])
        samples = np.empty((len(P), m, self.centre.size), dtype=complex)
        samples[:, :, :-1] = self.centre[:-1]
        np.multiply(s[:, None], root_powers(m, self.k), out=samples[:, :, -1])
        return samples, np.zeros(len(P))

    def initial(self, rng, start_index=0):
        lo, hi = self.s_range
        s = lo + (hi - lo) * rng.uniform(0.05, 0.95)
        return np.array([np.log(s)])


class BlaschkeFamily(DiscFamily):
    """Last component s * e^{i theta} times a k-factor Blaschke product;
    any leading components are held constant.

    The centre's last coordinate is matched structurally: if it is 0 one
    zero is pinned at the origin, otherwise the last zero is solved from
    the remaining parameters.  Parameters: log s, theta, then real and
    imaginary parts of the k-1 free zeros.
    """

    name = "blaschke"

    def __init__(self, centre, n_zeros=1, s_range=(1.0, 2.0)):
        self.centre = np.atleast_1d(np.asarray(centre, dtype=complex))
        if n_zeros < 1:
            raise ConfigurationError("need at least one Blaschke zero")
        self.k = self.order = n_zeros
        self.s_range = s_range
        self.target = complex(self.centre[-1])
        self.n_params = 2 + 2 * (n_zeros - 1)

    def _zeros(self, P):
        """(s, theta, zeros, excess) of each row: zeros has the free
        zeros then the solved one; excess is how far the outermost free
        zero, or else the solved zero, lies beyond ZERO_CAP (0 inside it,
        and where a zero is undefined)."""
        s, theta = np.exp(P[:, 0]), P[:, 1]
        free = P[:, 2:].reshape(len(P), -1, 2)
        zeros = free[..., 0] + 1j * free[..., 1]
        excess = np.zeros(len(P))
        if zeros.shape[1]:
            excess = np.fmax(np.max(np.abs(zeros), axis=1) - ZERO_CAP, 0.0)
        if abs(self.target) < 1e-14:
            solved = np.zeros(len(P), dtype=complex)
        else:
            # numpy rounds a complex product of scalars differently from
            # one of arrays, so the rotated target is formed row by row
            rotated = np.array([-self.target * np.exp(-1j * t)
                                for t in theta.tolist()])
            denom = s * np.prod(-zeros, axis=1) if zeros.shape[1] else s
            with np.errstate(divide="ignore", over="ignore",
                             invalid="ignore"):
                solved = rotated / denom
            over = np.hypot(solved.real, solved.imag) - ZERO_CAP
            excess = np.where(excess > 0, excess, np.fmax(over, 0.0))
        return s, theta, np.concatenate([zeros, solved[:, None]], axis=1), \
            excess

    def build_many(self, P, m):
        if m // 2 <= self.order:
            raise ConfigurationError("sample grid too small for zeros")
        s, theta, zeros, excess = self._zeros(P)
        zeta = roots_of_unity(m)
        samples = np.empty((len(P), m, self.centre.size), dtype=complex)
        samples[:, :, :-1] = self.centre[:-1]
        fn = samples[:, :, -1]
        fn[...] = (s * np.exp(1j * theta))[:, None]
        # rows past ZERO_CAP are built too, and may divide by zero
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for a in zeros.T[:, :, None]:
                fn *= (zeta - a) / (1.0 - np.conj(a) * zeta)
        return samples, excess

    def initial(self, rng, start_index=0):
        lo, hi = self.s_range
        if start_index == 0:
            # deterministic heuristic start near the low end of the range
            s = lo + 0.02 * (hi - lo)
            theta = 0.0
        else:
            s = lo + (hi - lo) * rng.uniform(0.02, 0.6)
            theta = rng.uniform(0.0, 2 * np.pi)
        params = [np.log(s), theta]
        target_mag = abs(self.target)
        for _ in range(self.k - 1):
            if target_mag > 1e-14:
                mag = min(0.95, (target_mag / s) ** (1.0 / self.k))
                mag = np.clip(mag + 0.02 * rng.standard_normal(), 0.0, 0.95)
            else:
                mag = rng.uniform(0.0, 0.5)
            ang = rng.uniform(0.0, 2 * np.pi)
            params.extend([mag * np.cos(ang), mag * np.sin(ang)])
        return np.asarray(params)


class ShellFamily(DiscFamily):
    """The closed-form radius-3 sphere disc through a centre in the small ball."""

    name = "shell"
    n_params = 0

    def __init__(self, centre):
        try:
            self.centre = shell_centre(centre)
        except PreconditionError as exc:
            raise PreconditionError(f"{self.name} family: {exc}") from None

    def build_many(self, P, m):
        samples = shell_disc(self.centre, m=m).samples
        return np.repeat(samples[None], len(P), axis=0), np.zeros(len(P))
