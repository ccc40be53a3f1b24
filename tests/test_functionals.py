"""Quadrature of boundary averages and partial-boundary statistics."""

import numpy as np
import pytest

from conftest import constant_disc
from discenv.discs import AnalyticDisc, roots_of_unity
from discenv.domains import Obstacle, planar_annulus_pair, shell_disc
from discenv.errors import ConfigurationError, EvaluationError
from discenv.expressions import obstacle_from_expression
from discenv.functionals import (
    QuadratureGrid,
    boundary_averages,
    partial_boundary_stats,
    partial_stats,
    poisson_functional,
)

LOG_ABS = obstacle_from_expression("log(abs(z1))", 1)


def test_grid_weights_are_normalised():
    assert QuadratureGrid(256).M == 256
    with pytest.raises(ConfigurationError):
        QuadratureGrid(100)


def test_constant_disc_average_is_point_value():
    phi = obstacle_from_expression("re(z1) + im(z2)", 2)
    p = np.array([0.3 + 0.4j, -1.0 + 2.0j])
    assert abs(poisson_functional(constant_disc(p), phi)
               - (0.3 + 2.0)) <= 1e-14


def test_circle_disc_average_of_log_modulus():
    zeta = roots_of_unity(512)
    for s in [1.2, 1.7]:
        disc = AnalyticDisc(s * zeta)
        assert abs(poisson_functional(disc, LOG_ABS) - np.log(s)) <= 1e-10


def test_shell_disc_average_of_squared_norm():
    phi = Obstacle(lambda p: np.sum(np.abs(p) ** 2, axis=-1))
    disc = shell_disc(np.array([0.7 - 0.2j, 0.5j]))
    assert abs(poisson_functional(disc, phi) - 9.0) <= 1e-10


def test_poisson_functional_reports_bad_node():
    disc = constant_disc(np.array([0.0 + 0.0j]), m=16)
    with pytest.raises(EvaluationError, match="node"):
        poisson_functional(disc, LOG_ABS)


def test_monotone_in_obstacle():
    phi_small = obstacle_from_expression("re(z1)", 1)
    phi_big = obstacle_from_expression("re(z1) + 0.5", 1)
    zeta = roots_of_unity(128)
    disc = AnalyticDisc(1.5 + 0.3 * zeta)
    assert poisson_functional(disc, phi_small) \
        <= poisson_functional(disc, phi_big) + 1e-12


def test_exact_invariance_under_grid_rotation():
    zeta = roots_of_unity(128)
    disc = AnalyticDisc(1.5 + 0.3 * zeta + 0.1 * zeta ** 2)
    rotated = AnalyticDisc(np.roll(disc.samples, 5, axis=0))
    # identical weights on a permuted node set; only summation order differs
    assert abs(poisson_functional(disc, LOG_ABS)
               - poisson_functional(rotated, LOG_ABS)) <= 1e-15


def test_quadrature_convergence_rate():
    # halving the spacing changes the average by at most C/M on a
    # Lipschitz integrand; record the constant rather than assume it
    values = {}
    for m in [64, 128, 256]:
        zeta = roots_of_unity(m)
        disc = AnalyticDisc(1.5 + 0.4 * zeta)
        values[m] = poisson_functional(disc, LOG_ABS)
    c = max(abs(values[64] - values[128]) * 64,
            abs(values[128] - values[256]) * 128)
    assert c <= 1.0


# ---------------------------------------------------------------------------
# partial_boundary_stats
# ---------------------------------------------------------------------------

def test_full_boundary_in_w():
    w, _ = planar_annulus_pair()
    zeta = roots_of_unity(256)
    disc = AnalyticDisc(1.5 * zeta)
    mass, integral = partial_boundary_stats(disc, LOG_ABS, w)
    assert mass == 1.0
    assert abs(integral - poisson_functional(disc, LOG_ABS)) <= 1e-14


def test_boundary_entirely_outside_w():
    w, _ = planar_annulus_pair()
    disc = constant_disc(np.array([0.0 + 0.0j]), m=64)
    assert partial_boundary_stats(disc, LOG_ABS, w) == (0.0, 0.0)


def test_obstacle_not_finite_on_the_arc_in_w_raises():
    # log|z1 - 1.5| is -inf at the node 1.5, which lies in W
    w, _ = planar_annulus_pair()
    disc = AnalyticDisc(1.5 * roots_of_unity(64))
    phi = obstacle_from_expression("log(abs(z1 - 1.5))", 1)
    with np.errstate(divide="ignore"), \
            pytest.raises(EvaluationError, match="boundary arc"):
        partial_boundary_stats(disc, phi, w)


def test_constant_obstacle_weighs_every_node_in_w():
    # "1" has no coordinate in it, yet gives one value per point
    w, _ = planar_annulus_pair()
    disc = constant_disc(np.array([1.5 + 0.0j]), m=256)
    phi = obstacle_from_expression("1", 1)
    assert phi(disc.samples).shape == (256,)
    assert partial_boundary_stats(disc, phi, w) == (1.0, 1.0)


def test_partial_mass_against_refined_grid():
    w, _ = planar_annulus_pair()
    m = 1024
    zeta = roots_of_unity(m)
    disc = AnalyticDisc(0.8 + 0.8 * zeta)
    mass, integral = partial_boundary_stats(disc, LOG_ABS, w)
    fine = roots_of_unity(100 * m)
    fine_mass = np.mean(np.abs(0.8 + 0.8 * fine) > 1.0)
    assert abs(mass - fine_mass) <= 2.0 / m
    assert 0.0 <= mass <= 1.0
    sampled = disc.samples[w.margin(disc.samples) > 0]
    assert abs(integral) <= mass * np.max(np.abs(LOG_ABS(sampled))) + 1e-14


def test_batched_stats_equal_the_one_disc_sums():
    """Each disc of a batch sums phi over its own in-W nodes alone, as
    one disc does; a zero-filled row would round differently."""
    w, _ = planar_annulus_pair()
    rng = np.random.default_rng(5)
    centres = rng.uniform(-1.0, 1.0, 20) + 1j * rng.uniform(-1.0, 1.0, 20)
    radii = rng.uniform(0.5, 1.5, 20)
    samples = (centres[:, None] + radii[:, None] * roots_of_unity(256))
    samples = samples[..., None]
    mass, integral = partial_stats(samples, LOG_ABS, w)
    averages = boundary_averages(samples, LOG_ABS)
    for i, one in enumerate(samples):
        inside = w.margin(one) > 0
        assert mass[i] == np.count_nonzero(inside) / 256
        assert integral[i] == np.sum(LOG_ABS(one[inside])) / 256
        assert averages[i] == np.mean(LOG_ABS(one))
