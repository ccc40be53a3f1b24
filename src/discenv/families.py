"""Parametric families of analytic discs with structurally exact centres.

Each family maps a real parameter vector to an AnalyticDisc whose value
at 0 equals the prescribed centre by construction (never by penalty).
``build`` is the only call per parameter vector.  When a vector cannot
realise the centre (a free or solved-for Blaschke zero falls outside the
unit disc) it raises InfeasibleParameters, which the optimiser turns into
a barrier.
"""

from __future__ import annotations

import numpy as np

from .discs import AnalyticDisc, roots_of_unity
from .domains import shell_disc
from .errors import ConfigurationError, InfeasibleParameters

ZERO_CAP = 1.0 - 1e-6  # Blaschke zeros stay strictly inside the unit disc


class DiscFamily:
    name = "family"
    n_params = 0

    def build(self, params, m):
        """The AnalyticDisc for ``params`` sampled at m boundary nodes;
        raises InfeasibleParameters when ``params`` admit no such disc."""
        raise NotImplementedError

    def initial(self, rng, start_index=0):
        return np.zeros(self.n_params)


class ConstantFamily(DiscFamily):
    """The constant disc at the centre; useful whenever the centre is in W."""

    name = "constant"
    n_params = 0

    def __init__(self, centre):
        self.centre = np.atleast_1d(np.asarray(centre, dtype=complex))

    def build(self, params, m):
        return AnalyticDisc(np.tile(self.centre, (m, 1)))


class PolynomialFamily(DiscFamily):
    """f(zeta) = centre + sum of free coefficients times zeta^1..zeta^d."""

    name = "polynomial"

    def __init__(self, centre, degree=4, scale=0.4):
        self.centre = np.atleast_1d(np.asarray(centre, dtype=complex))
        if degree < 1:
            raise ConfigurationError("polynomial degree must be >= 1")
        self.degree = degree
        self.scale = scale
        self.n = self.centre.size
        self.n_params = 2 * degree * self.n

    def _coeffs(self, params):
        flat = params[:self.n_params].reshape(self.degree, self.n, 2)
        return flat[..., 0] + 1j * flat[..., 1]

    def build(self, params, m):
        if m // 2 <= self.degree:
            raise ConfigurationError("sample grid too small for degree")
        c = np.zeros((m, self.n), dtype=complex)
        c[0] = self.centre
        c[1:self.degree + 1] = self._coeffs(np.asarray(params, dtype=float))
        return AnalyticDisc(np.fft.ifft(c * m, axis=0))

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
                "vertical family needs a centre with last coordinate 0")
        if winding < 1:
            raise ConfigurationError("winding must be >= 1")
        self.k = winding
        self.s_range = s_range

    def build(self, params, m):
        s = float(np.exp(params[0]))
        zeta = roots_of_unity(m)
        samples = np.tile(self.centre, (m, 1))
        samples[:, -1] = s * zeta ** self.k
        return AnalyticDisc(samples)

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
        self.k = n_zeros
        self.s_range = s_range
        self.target = complex(self.centre[-1])
        self.n_params = 2 + 2 * (n_zeros - 1)

    def _zeros(self, params):
        """(s, theta, zeros) of the product; raises InfeasibleParameters
        when a free or the solved zero lies beyond ZERO_CAP."""
        s = float(np.exp(params[0]))
        theta = float(params[1])
        free = np.asarray(params[2:], dtype=float).reshape(-1, 2)
        zeros = free[:, 0] + 1j * free[:, 1] if free.size else \
            np.zeros(0, dtype=complex)
        if zeros.size and np.max(np.abs(zeros)) > ZERO_CAP:
            raise InfeasibleParameters(
                float(np.max(np.abs(zeros)) - ZERO_CAP))
        if abs(self.target) < 1e-14:
            solved = 0.0 + 0.0j
        else:
            denom = s * np.prod(-zeros) if zeros.size else s
            solved = -self.target * np.exp(-1j * theta) / denom
            if abs(solved) > ZERO_CAP:
                raise InfeasibleParameters(abs(solved) - ZERO_CAP)
        return s, theta, np.append(zeros, solved)

    def build(self, params, m):
        s, theta, zeros = self._zeros(np.asarray(params, dtype=float))
        zeta = roots_of_unity(m)
        fn = np.full(m, s * np.exp(1j * theta), dtype=complex)
        for a in zeros:
            fn *= (zeta - a) / (1.0 - np.conj(a) * zeta)
        samples = np.tile(self.centre, (m, 1))
        samples[:, -1] = fn
        return AnalyticDisc(samples)

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
        self.centre = np.atleast_1d(np.asarray(centre, dtype=complex))

    def build(self, params, m):
        return shell_disc(self.centre, m=m)
