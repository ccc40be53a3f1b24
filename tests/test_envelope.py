"""Penalised envelope search: feasibility, determinism, monotonicity."""

import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import discenv
from conftest import searched_at
from discenv import config, envelope
from discenv.discs import AnalyticDisc, roots_of_unity
from discenv.domains import DomainSpec, Obstacle, ball, \
    counterexample_pair, planar_annulus_pair, shell_pair
from discenv.envelope import (
    BARRIER,
    FEAS_MARGIN,
    EnvelopeRequest,
    _constraints,
    _envelope_objective,
    _evaluate,
    _partial_objective,
    _probes,
    interior_probe_points,
    minimize,
    minimize_envelope,
    nelder_mead,
    partial_envelope,
    sample_feasible_values,
)
from hypothesis import assume, given, settings, strategies as st

from discenv.errors import ConfigurationError, EvaluationError, \
    InfeasibleEnvelope, PreconditionError
from discenv.expressions import obstacle_from_expression
from discenv.families import ZERO_CAP, BlaschkeFamily, ConstantFamily, \
    PolynomialFamily, ShellFamily, VerticalFamily
from discenv.functionals import QuadratureGrid, boundary_averages, \
    poisson_functional
from discenv.hartogs import HartogsPair
from discenv.oracles import kiselman_psi

LOG_ABS = obstacle_from_expression("log(abs(z1))", 1)


def assert_recorded_disc(res, req):
    """The result's value, violation and feasibility are those of its own
    disc, bit for bit."""
    w, x_spec = req.pair
    _, violation, strict = _constraints(w, x_spec, res.disc.samples[None])
    assert res.value == poisson_functional(res.disc, req.phi)
    assert res.max_violation == violation[0]
    assert res.feasible == strict[0]


def build_one(family, params, m):
    """One parameter row through ``build_many``: (its disc, or None when
    the row is infeasible, and its excess)."""
    samples, excess = family.build_many(
        np.asarray(params, dtype=float).reshape(1, family.n_params), m)
    return (AnalyticDisc(samples[0]) if excess[0] == 0 else None,
            float(excess[0]))


def annulus_request(x, families, **overrides):
    w, x_spec = planar_annulus_pair()
    kwargs = dict(pair=(w, x_spec), phi=LOG_ABS, x=[x], families=families,
                  grid=QuadratureGrid(256), seed=0, starts=4, budget=300)
    kwargs.update(overrides)
    return EnvelopeRequest(**kwargs)


def test_constant_family_attains_point_value():
    x = 1.5
    req = annulus_request(x, [ConstantFamily([x])])
    res = minimize_envelope(req)
    assert res.feasible
    assert res.value <= np.log(x) + 1e-10
    assert res.family == "constant"
    assert_recorded_disc(res, req)


def test_centre_outside_x_rejected():
    with pytest.raises(PreconditionError):
        annulus_request(2.5, [ConstantFamily([2.5])])


def test_family_centred_elsewhere_rejected():
    with pytest.raises(ConfigurationError, match="blaschke"):
        annulus_request(1.5, [ConstantFamily([1.5]), BlaschkeFamily([1.2])])
    with pytest.raises(ConfigurationError, match="constant"):
        annulus_request(1.5, [ConstantFamily([1.5, 0.0])])


def test_infeasible_point_reports_least_violating_disc():
    # a constant disc at 0.5 has its whole boundary inside the removed disc
    req = annulus_request(0.5, [ConstantFamily([0.5])])
    res = minimize_envelope(req)
    assert not res.feasible
    assert res.max_violation > 0
    assert_recorded_disc(res, req)


def test_feasible_disc_outranks_a_lower_infeasible_one():
    # the constant disc at 0.5 has value log 0.5 < 0 but its boundary
    # lies outside W; any strictly feasible disc must still win
    req = annulus_request(0.5, [ConstantFamily([0.5]),
                                BlaschkeFamily([0.5], n_zeros=1,
                                               s_range=(1.0, 2.0))])
    res = minimize_envelope(req)
    assert res.family == "blaschke"
    assert res.feasible
    assert 0.0 < res.value < 1e-5
    assert_recorded_disc(res, req)


@pytest.mark.parametrize("starts, budget", [(0, 400), (8, 0), (8, -3)])
def test_no_start_or_no_budget_is_a_configuration_error(starts, budget):
    with pytest.raises(ConfigurationError, match="starts >= 1"):
        annulus_request(1.5, [ConstantFamily([1.5])], starts=starts,
                        budget=budget)


def test_no_family_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="at least one disc family"):
        annulus_request(1.5, [])


@pytest.mark.parametrize("weight", [np.nan, 0.0, -1.0, np.inf])
def test_penalty_weight_not_finite_and_positive_is_a_configuration_error(
        weight):
    # a NaN weight made every objective NaN, so the search recorded no
    # disc and reported an infeasible envelope
    with pytest.raises(ConfigurationError, match="penalty_weight"):
        annulus_request(0.5, [BlaschkeFamily([0.5], n_zeros=1)],
                        penalty_weight=weight)


#: One search per family kind, plus an infeasible winner: (a maker of
#: the request, the winning family, whether the winner is feasible)
RECORDED_DISC_SEARCHES = {
    # won by start 2, not by start 0
    "polynomial": (lambda: annulus_request(
        1.5, [PolynomialFamily([1.5], degree=2, scale=0.1)], budget=60,
        phi=obstacle_from_expression("abs(z1 - 1.2)", 1), seed=1),
        "polynomial", True),
    "vertical-1": (lambda: hartogs_request(1), "vertical", True),
    "vertical-2": (lambda: hartogs_request(2), "vertical", True),
    "blaschke-target-0": (lambda: annulus_request(
        0.0, [BlaschkeFamily([0.0], n_zeros=2)], budget=60),
        "blaschke", True),
    "blaschke-solved-zero": (lambda: annulus_request(
        0.5, [BlaschkeFamily([0.5], n_zeros=2)], budget=60),
        "blaschke", True),
    "shell": (lambda: EnvelopeRequest(
        pair=shell_pair(2), phi=obstacle_from_expression("re(z1)", 2),
        x=[0.3, 0.2j], families=[ShellFamily([0.3, 0.2j])],
        grid=QuadratureGrid(256)), "shell", True),
    "infeasible": (lambda: annulus_request(
        0.5, [PolynomialFamily([0.5], degree=1)], starts=1, budget=4),
        "polynomial", False),
}


def hartogs_request(winding):
    """A search over one vertical family on the standard Hartogs pair,
    whose X has no maximum principle, so the probes run."""
    x = [0.2 + 0.1j, 0.0]
    return EnvelopeRequest(
        pair=(STANDARD_HARTOGS.W, STANDARD_HARTOGS.X), phi=HARTOGS_PHI,
        x=x, families=[VerticalFamily(x, winding=winding,
                                      s_range=(0.25, 1.0))],
        grid=QuadratureGrid(64), starts=2, budget=40)


@pytest.mark.parametrize("name", list(RECORDED_DISC_SEARCHES))
def test_winning_disc_is_rebuilt_from_its_parameters(name):
    """The winner's disc, built once from its parameters after the search,
    is the disc the search scored: its value, violation and feasibility
    recompute to the recorded ones, bit for bit."""
    make, family, feasible = RECORDED_DISC_SEARCHES[name]
    req = make()
    res = minimize_envelope(req)
    assert (res.family, res.feasible) == (family, feasible)
    assert_recorded_disc(res, req)


@pytest.mark.parametrize("search", [
    minimize_envelope, lambda req: partial_envelope(req, 0.3)])
def test_no_finite_disc_is_an_infeasible_envelope(search):
    # the obstacle is -inf on the boundary of the only disc there is
    phi = obstacle_from_expression("log(abs(z1 - 1.5))", 1)
    req = annulus_request(1.5, [ConstantFamily([1.5])], phi=phi)
    with pytest.raises(InfeasibleEnvelope, match="finite boundary average"):
        search(req)


def test_determinism_same_seed():
    fams = lambda: [BlaschkeFamily([0.5], n_zeros=1, s_range=(1.0, 2.0))]
    a = minimize_envelope(annulus_request(0.5, fams()))
    b = minimize_envelope(annulus_request(0.5, fams()))
    assert a.value == b.value
    assert np.array_equal(a.best_params, b.best_params)
    assert a.start_index == b.start_index


def test_ties_keep_the_first_recorded_disc_and_the_lowest_index():
    """On a constant obstacle every strictly feasible disc has the key
    (False, 0.0, 0.0).  The first strictly feasible point of start 0, its
    initial point, must win over later points, later starts and an
    identical later family."""
    x = 0.5
    twin = BlaschkeFamily([x], n_zeros=1, s_range=(1.0, 2.0))
    twin.name = "twin"
    fams = [BlaschkeFamily([x], n_zeros=1, s_range=(1.0, 2.0)), twin]
    req = annulus_request(x, fams, phi=obstacle_from_expression("0", 1))
    res = minimize_envelope(req)
    assert (res.family, res.start_index, res.value) == ("blaschke", 0, 0.0)
    p0 = fams[0].initial(np.random.default_rng([0, 0, 0]), 0)
    assert np.array_equal(res.best_params, p0)


def test_budget_monotonicity():
    fams = lambda: [BlaschkeFamily([0.5], n_zeros=1, s_range=(1.0, 2.0))]
    small = minimize_envelope(annulus_request(0.5, fams(), budget=60))
    large = minimize_envelope(annulus_request(0.5, fams(), budget=120))
    assert large.value <= small.value + 1e-12


def test_family_augmentation_never_hurts():
    fams = [BlaschkeFamily([1.5], n_zeros=1, s_range=(1.0, 2.0))]
    base = minimize_envelope(annulus_request(1.5, fams))
    more = minimize_envelope(annulus_request(
        1.5, fams + [ConstantFamily([1.5])]))
    assert more.value <= base.value + 1e-12


def test_feasible_disc_has_strictly_interior_boundary():
    w, x_spec = planar_annulus_pair()
    req = annulus_request(
        0.5, [BlaschkeFamily([0.5], n_zeros=1, s_range=(1.0, 2.0))])
    res = minimize_envelope(req)
    assert res.feasible
    assert np.min(w.margin(res.disc.samples)) > 0


def test_trace_is_nonincreasing():
    req = annulus_request(
        0.5, [BlaschkeFamily([0.5], n_zeros=1, s_range=(1.0, 2.0))])
    res = minimize_envelope(req)
    trace = np.asarray(res.trace)
    assert np.all(np.diff(trace) <= 1e-15)


def test_polynomial_family_keeps_centre():
    fam = PolynomialFamily([1.5], degree=3, scale=0.2)
    rng = np.random.default_rng(0)
    disc, _ = build_one(fam, fam.initial(rng), 128)
    assert abs(disc.centre[0] - 1.5) <= 1e-12
    assert disc.holomorphy_residual <= 1e-10


@pytest.mark.parametrize("family", [PolynomialFamily([0.0], degree=4),
                                    VerticalFamily([0.1, 0.0], winding=4),
                                    BlaschkeFamily([0.1, 0.0], n_zeros=4)])
def test_family_refuses_a_size_its_nodes_alias(family):
    """A degree, winding or zero count k on m nodes needs k < m/2."""
    with pytest.raises(ConfigurationError, match="sample grid too small"):
        build_one(family, np.zeros(family.n_params), 8)
    build_one(family, np.zeros(family.n_params), 16)


@pytest.mark.parametrize("make", [
    lambda centre: PolynomialFamily(centre, degree=0),
    lambda centre: VerticalFamily(centre, winding=0),
    lambda centre: BlaschkeFamily(centre, n_zeros=0),
])
def test_family_refuses_a_size_below_one(make):
    with pytest.raises(ConfigurationError):
        make([0.1, 0.0])


def test_sampled_feasible_disc_with_a_non_finite_average_raises():
    # the constant disc at 1.5 is strictly feasible on the annulus, and
    # the obstacle is -inf at each of its boundary samples
    phi = obstacle_from_expression("log(abs(z1 - 1.5))", 1)
    req = annulus_request(1.5, [ConstantFamily([1.5])], phi=phi)
    with pytest.raises(EvaluationError,
                       match="not finite along a feasible disc"):
        sample_feasible_values(req, 4)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["constant", "polynomial", "vertical", "shell"]),
       centre=st.lists(st.complex_numbers(max_magnitude=1.0), min_size=2,
                       max_size=3),
       degree=st.integers(1, 6),
       winding=st.integers(1, 6),
       params=st.lists(st.floats(-3.0, 1.0), min_size=36, max_size=36),
       m=st.sampled_from([128, 256, 512]))
def test_family_build_keeps_centre(kind, centre, degree, winding, params, m):
    """The node average of every built disc is the family's centre.  The
    shell centre has norm below sqrt(3), so its Moebius component aliases
    by at most (2/3)^m on m nodes."""
    centre = np.array(centre)
    if kind == "constant":
        fam = ConstantFamily(centre)
    elif kind == "polynomial":
        fam = PolynomialFamily(centre, degree=degree)
    elif kind == "vertical":
        centre[-1] = 0.0
        fam = VerticalFamily(centre, winding=winding)
    else:
        fam = ShellFamily(centre)
    disc, _ = build_one(fam, params[:fam.n_params], m)
    assert np.max(np.abs(disc.centre - fam.centre)) <= 1e-12
    # mean-value identity: re(z1) is harmonic, so its boundary average
    # is its value at the centre
    mean = boundary_averages(disc.samples[None], lambda p: np.real(p[..., 0]))
    assert abs(mean[0] - centre[0].real) <= 1e-12


@settings(max_examples=300, deadline=None, derandomize=True)
@given(target=st.sampled_from([0.0, 0.02 + 0.01j, 0.3 - 0.4j, -0.7]),
       n_zeros=st.integers(1, 3),
       log_s=st.floats(-3.0, 1.0),
       theta=st.floats(0.0, 2 * np.pi),
       free=st.lists(st.tuples(st.floats(0.05, 1.1),
                               st.floats(0.0, 2 * np.pi)),
                     min_size=2, max_size=2))
def test_blaschke_build_keeps_centre_or_raises(target, n_zeros, log_s,
                                               theta, free):
    """Target 0 pins a zero at the origin; otherwise the last zero is
    solved.  Either the zeros exceed ZERO_CAP and the row's excess is by
    how far, or the disc's centre is the target."""
    centre = np.array([0.1 - 0.2j, target])
    fam = BlaschkeFamily(centre, n_zeros=n_zeros)
    zeros = [complex(r * np.cos(a), r * np.sin(a))
             for r, a in free[:n_zeros - 1]]
    params = [log_s, theta] + [v for z in zeros for v in (z.real, z.imag)]
    free_max = max([abs(z) for z in zeros], default=0.0)
    solved = abs(target) / (np.exp(log_s) * np.prod([abs(z) for z in zeros]))
    disc, excess = build_one(fam, params, 1024)
    if excess > 0:
        expected = free_max if free_max > ZERO_CAP else solved
        assert excess == pytest.approx(expected - ZERO_CAP, rel=1e-12,
                                       abs=1e-12)
        return
    assert max(free_max, solved) <= ZERO_CAP
    # zeros nearer the circle alias on 1024 nodes: the node average then
    # differs from the product's value at 0 by quadrature error
    assume(max(free_max, solved) <= 0.95)
    assert np.max(np.abs(disc.centre - centre)) <= 1e-12


def hartogs_pair(R):
    """The (W, X) of the config's Hartogs pair over the unit disc, with
    inner radius 1/4 and outer radius R (a number or an expression)."""
    return config.build_pair(config.validate_config({
        "experiment": "x", "pair": {"variant": "hartogs", "R": R}}))[:2]


@pytest.mark.parametrize("family, pair", [
    (ConstantFamily([0.2, 0.1]), counterexample_pair()[:2]),
    (PolynomialFamily([0.2, 0.1], scale=0.1), counterexample_pair()[:2]),
    (BlaschkeFamily([0.0, 0.0], n_zeros=2, s_range=(0.71, 0.99)),
     counterexample_pair()[:2]),
    (VerticalFamily([0.1, 0.0]), hartogs_pair("1.0 - 0.25 * abs(z1)")),
    (BlaschkeFamily([0.1, 0.3], n_zeros=2, s_range=(0.5, 0.7)),
     hartogs_pair("1.0 - 0.25 * abs(z1)")),
])
def test_margins_probe_the_disc_at_interior_probe_points(family, pair):
    """On an X without the maximum principle the probes are the disc's
    values at ``interior_probe_points``, and the constraints penalise the
    nodes in W, then the probes in X."""
    w, x_spec = pair
    assert not x_spec.max_principle
    rng = np.random.default_rng(0)
    disc, _ = build_one(family, family.initial(rng, 1), 512)
    im = x_spec.margin(_probes(disc.samples[None]))
    expected = x_spec.margin(disc.evaluate(interior_probe_points()))
    assert im.shape == (1,) + expected.shape
    assert np.max(np.abs(im[0] - expected)) <= 1e-12
    bm = w.margin(disc.samples)
    pen, violation, strict = _constraints(w, x_spec, disc.samples[None],
                                          pen=0.5)
    hinge = [np.sum(np.maximum(0.0, FEAS_MARGIN - m) ** 2) for m in (bm, im)]
    assert pen.tolist() == [0.5 + hinge[0] + hinge[1]]
    lo = min(np.min(bm), np.min(im))
    assert violation.tolist() == [max(0.0, -lo)]
    assert strict.tolist() == [bool(lo > 0)]


@pytest.mark.parametrize("family, pair", [
    (ConstantFamily([1.5]), planar_annulus_pair()),
    (PolynomialFamily([1.5]), planar_annulus_pair()),
    (BlaschkeFamily([0.5], n_zeros=2), planar_annulus_pair()),
    (ShellFamily([0.3, 0.2j]), shell_pair(2)),
    (VerticalFamily([0.1, 0.0]), (ball(1.0, 2), ball(1.5, 2))),
    (VerticalFamily([0.1, 0.0]), hartogs_pair(1.0)),
])
def test_margins_skip_the_probes_on_a_max_principle_x(family, pair):
    """On a ball, or a Hartogs X of constant radius, no probe is scored:
    the boundary nodes alone give the penalty, the violation and the
    strictness, and a NaN node gives a NaN violation and no strictness."""
    w, x_spec = pair
    assert x_spec.max_principle
    rng = np.random.default_rng(0)
    disc, _ = build_one(family, family.initial(rng, 1), 512)
    samples = np.stack([disc.samples, disc.samples])
    samples[1, 3] = np.nan
    bm = w.margin(samples)
    pen, violation, strict = _constraints(w, x_spec, samples)
    hinge = np.sum(np.maximum(0.0, FEAS_MARGIN - bm) ** 2, axis=-1)
    assert np.array_equal(pen, hinge, equal_nan=True)
    lo = np.min(bm[0])
    assert violation[0] == max(0.0, -lo) and np.isnan(violation[1])
    assert strict.tolist() == [bool(lo > 0), False]


def in_disc(rng, radius, size=None):
    """Points drawn uniformly from the disc of ``radius`` about 0."""
    return radius * np.sqrt(rng.uniform(size=size)) \
        * np.exp(2j * np.pi * rng.uniform(size=size))


#: (X, a family drawn from an RNG) on the X that carry the maximum
#: principle: the balls of the annulus and shell pairs and the Hartogs X
#: of constant radius
MAX_PRINCIPLE_CASES = [
    (planar_annulus_pair()[1],
     lambda rng: ConstantFamily([in_disc(rng, 1.9)])),
    (planar_annulus_pair()[1], lambda rng: PolynomialFamily(
        [in_disc(rng, 1.0)], degree=int(rng.integers(1, 5)), scale=0.4)),
    (planar_annulus_pair()[1], lambda rng: BlaschkeFamily(
        [in_disc(rng, 0.8)], n_zeros=int(rng.integers(1, 4)),
        s_range=(1.0, 1.6))),
    (shell_pair(2)[1], lambda rng: ShellFamily(
        [in_disc(rng, 1.3), in_disc(rng, 1.3)])),
    (shell_pair(2)[1], lambda rng: PolynomialFamily(
        [in_disc(rng, 2.0), in_disc(rng, 2.0)], degree=3, scale=0.8)),
    (hartogs_pair(1.0)[1], lambda rng: VerticalFamily(
        [in_disc(rng, 0.8), 0.0], winding=int(rng.integers(1, 4)),
        s_range=(0.1, 0.9))),
    (hartogs_pair(1.0)[1], lambda rng: BlaschkeFamily(
        [in_disc(rng, 0.8), in_disc(rng, 0.4)], n_zeros=2,
        s_range=(0.6, 0.9))),
    (hartogs_pair(1.0)[1], lambda rng: PolynomialFamily(
        [in_disc(rng, 0.6), in_disc(rng, 0.6)], degree=2, scale=0.2)),
]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=st.sampled_from(MAX_PRINCIPLE_CASES),
       seed=st.integers(0, 2 ** 32 - 1), start=st.integers(0, 7),
       m=st.sampled_from([128, 256, 512]))
def test_node_certified_discs_lie_in_a_max_principle_x(case, seed, start, m):
    """A disc whose M nodes keep an X-margin above the node-to-circle gap
    (pi/M) sum k |c_k| has its whole boundary circle in X, and so, by the
    maximum principle, its interior: 10**4 random interior points of it
    keep at least the nodes' margin less the gap."""
    x_spec, draw = case
    assert x_spec.max_principle
    rng = np.random.default_rng(seed)
    family = draw(rng)
    params = family.initial(rng, start).reshape(1, family.n_params)
    if isinstance(family, BlaschkeFamily):
        _, _, zeros, _ = family._zeros(params)
        assume(np.max(np.abs(zeros)) <= 0.9)
    disc, _ = build_one(family, params, m)
    assert disc is not None
    taylor = disc.coeffs[:m // 2]
    gap = np.pi / m * np.sum(
        np.arange(m // 2) * np.linalg.norm(taylor, axis=-1))
    node_margin = np.min(x_spec.margin(disc.evaluate(roots_of_unity(m))))
    assume(node_margin > gap)
    inner = x_spec.margin(disc.evaluate(in_disc(rng, 1.0, 10 ** 4)))
    assert np.min(inner) >= node_margin - gap - 1e-12 > 0


def test_evaluate_never_reaches_circle_eval_on_a_max_principle_x(
        monkeypatch):
    def fail(*args):
        raise AssertionError("circle_eval reached")

    monkeypatch.setattr(envelope, "circle_eval", fail)
    rng = np.random.default_rng(2)
    families = [ConstantFamily([1.5]), PolynomialFamily([1.5], degree=3),
                BlaschkeFamily([1.5], n_zeros=2)]
    req = annulus_request(1.5, families)
    groups = [(fam, np.array([fam.initial(rng, s) for s in range(3)])
               .reshape(3, fam.n_params)) for fam in families]
    obj = _evaluate(req, groups, _envelope_objective(req))[0]
    assert obj.shape == (9,) and np.all(np.isfinite(obj))
    assert minimize_envelope(req).certificate == "max_principle"
    assert np.isfinite(partial_envelope(req, 0.3))
    # the patch is live: an X without the flag reaches it
    w, x_spec = hartogs_pair("1.0 - 0.25 * abs(z1)")
    centre = [0.1, 0.0]
    req = EnvelopeRequest(pair=(w, x_spec),
                          phi=obstacle_from_expression("re(z1)", 2),
                          x=centre, families=[VerticalFamily(centre)],
                          grid=QuadratureGrid(64))
    with pytest.raises(AssertionError, match="circle_eval reached"):
        minimize_envelope(req)


@pytest.mark.parametrize("family", [
    ConstantFamily([1.5, 0.5j]),
    PolynomialFamily([1.5, 0.5j], degree=3),
    VerticalFamily([0.1, 0.0], winding=2),
    BlaschkeFamily([0.1, 0.3 - 0.2j], n_zeros=2),
    BlaschkeFamily([0.1, 0.0], n_zeros=3),
    ShellFamily([0.3, 0.2j]),
])
def test_build_many_rows_are_single_builds(family):
    """Each row of a batch has the samples, or the excess, that the row
    gets when built alone."""
    rng = np.random.default_rng(4)
    P = np.array([family.initial(rng, i) for i in range(12)])
    if isinstance(family, BlaschkeFamily):
        P[::3, 2:] *= 1.7   # free zeros past ZERO_CAP
        P[1::3, 0] -= 3.0   # a small scale pushes the solved zero out
    samples, excess = family.build_many(P, 128)
    assert samples.shape == (len(P), 128, 2)
    for row, row_samples, row_excess in zip(P, samples, excess):
        disc, alone_excess = build_one(family, row, 128)
        assert row_excess == alone_excess
        if alone_excess == 0:
            assert np.array_equal(row_samples, disc.samples)


def one_row_blaschke(family, params, m):
    """The Blaschke construction of one row from numpy scalars, as the
    one-disc search built it: (samples, 0.0), or (None, excess) past
    ZERO_CAP.  Scalar and array arithmetic round complex products and
    moduli differently, so build_many must match this bit for bit."""
    s = float(np.exp(params[0]))
    theta = float(params[1])
    free = np.asarray(params[2:], dtype=float).reshape(-1, 2)
    zeros = free[:, 0] + 1j * free[:, 1]
    if zeros.size and np.max(np.abs(zeros)) > ZERO_CAP:
        return None, float(np.max(np.abs(zeros)) - ZERO_CAP)
    if abs(family.target) < 1e-14:
        solved = 0.0 + 0.0j
    else:
        denom = s * np.prod(-zeros) if zeros.size else s
        solved = -family.target * np.exp(-1j * theta) / denom
        if abs(solved) > ZERO_CAP:
            return None, abs(solved) - ZERO_CAP
    zeta = roots_of_unity(m)
    fn = np.full(m, s * np.exp(1j * theta), dtype=complex)
    for a in np.append(zeros, solved):
        fn *= (zeta - a) / (1.0 - np.conj(a) * zeta)
    samples = np.tile(family.centre, (m, 1))
    samples[:, -1] = fn
    return samples, 0.0


@pytest.mark.parametrize("target, n_zeros", [
    (0.3 + 0.4j, 1), (-0.7 + 0.1j, 2), (0.123 - 0.456j, 3), (0.0, 2)])
def test_blaschke_rows_match_the_one_row_construction(target, n_zeros):
    family = BlaschkeFamily([0.1 - 0.2j, target], n_zeros=n_zeros)
    rng = np.random.default_rng(7)
    P = np.column_stack([rng.uniform(-1.0, 1.0, 400),
                         rng.uniform(0.0, 2 * np.pi, 400),
                         rng.uniform(-0.9, 0.9, (400, 2 * n_zeros - 2))])
    samples, excess = family.build_many(P, 64)
    for row, row_samples, row_excess in zip(P, samples, excess):
        ref_samples, ref_excess = one_row_blaschke(family, row, 64)
        assert row_excess == ref_excess
        if ref_samples is not None:
            assert np.array_equal(row_samples, ref_samples)


BATCH_PAIR = planar_annulus_pair()
# log|z1|, but infinite past |z1| = 1.5, inside W: discs of scale s > 1.5
# make rows with a non-finite obstacle, for the full and the partial search
CAPPED_LOG = Obstacle(lambda p: np.where(np.abs(p[..., 0]) < 1.5,
                                         np.log(np.abs(p[..., 0])), np.inf))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(rows=st.lists(st.tuples(st.floats(-0.5, 1.0), st.floats(0.0, 6.3),
                               st.floats(0.5, 1.1), st.floats(0.0, 6.3)),
                     min_size=1, max_size=10),
       rows_1=st.lists(st.tuples(st.floats(-0.5, 1.0), st.floats(0.0, 6.3)),
                       max_size=6),
       constants=st.integers(0, 2),
       partial=st.booleans(), x=st.sampled_from([0.3, 0.5, 1.5]))
def test_batched_rows_equal_single_row_calls(rows, rows_1, constants,
                                             partial, x):
    """One batch holds rows of a constant, a 1-zero and a 2-zero Blaschke
    family (0, 2 and 4 parameters), in that order.  Each row gets the
    objective, value, violation and strictness of the same row evaluated
    alone.  Rows whose Blaschke zero lies past ZERO_CAP get
    BARRIER * (1 + excess) and rows with a non-finite obstacle (the
    constant disc at 1.5 among them) get BARRIER, both with value NaN."""
    families = [ConstantFamily([x]),
                BlaschkeFamily([x], n_zeros=1, s_range=(1.0, 2.0)),
                BlaschkeFamily([x], n_zeros=2, s_range=(1.0, 2.0))]
    req = EnvelopeRequest(pair=BATCH_PAIR, phi=CAPPED_LOG, x=[x],
                          families=families, grid=QuadratureGrid(64))
    if partial:
        args = (_partial_objective(req, 0.3),)
    else:
        args = (_envelope_objective(req),)
    params = [np.zeros((constants, 0)), np.array(rows_1).reshape(-1, 2),
              np.array([[log_s, theta, r * np.cos(a), r * np.sin(a)]
                        for log_s, theta, r, a in rows])]
    groups = [(family, P) for family, P in zip(families, params) if len(P)]
    batch = _evaluate(req, groups, *args)[:4]
    i = 0
    for family, P in groups:
        for row in P:
            alone = _evaluate(req, [(family, row[None])], *args)[:4]
            for got, ref in zip(batch, alone):
                assert np.array_equal(got[i:i + 1], ref, equal_nan=True)
            obj, value = batch[0][i], batch[1][i]
            i += 1
            disc, excess = build_one(family, row, req.grid.M)
            if excess > 0:
                assert obj == BARRIER * (1.0 + excess) and np.isnan(value)
                continue
            values = CAPPED_LOG(disc.samples)
            if partial:  # the partial search reads phi inside W only
                values = values[BATCH_PAIR[0].margin(disc.samples) > 0]
            if not np.all(np.isfinite(values)):
                assert obj == BARRIER and np.isnan(value)
            else:
                assert obj != BARRIER and np.isfinite(value)
    assert i == len(batch[0])


def old_blaschke_build(family, P, m):
    """The Blaschke batch as np.repeat, np.tile and an overwrite of the
    last column built it, the construction build_many must keep bit for
    bit."""
    s, theta, zeros, excess = family._zeros(P)
    zeta = roots_of_unity(m)
    fn = np.repeat((s * np.exp(1j * theta))[:, None], m, axis=1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for a in zeros.T[:, :, None]:
            fn *= (zeta - a) / (1.0 - np.conj(a) * zeta)
    samples = np.tile(family.centre, (len(P), m, 1))
    samples[:, :, -1] = fn
    return samples, excess


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("n_zeros", [1, 2, 3])
@pytest.mark.parametrize("target", [0.0, 0.3 - 0.4j])
def test_blaschke_batch_is_the_repeat_and_tile_construction(n, n_zeros,
                                                            target):
    """Every row, those past ZERO_CAP included, has the bits of the
    repeat/tile construction."""
    family = BlaschkeFamily([0.2 + 0.1j] * (n - 1) + [target],
                            n_zeros=n_zeros)
    rng = np.random.default_rng([n, n_zeros])
    P = np.column_stack([rng.uniform(-1.0, 1.0, 40),
                         rng.uniform(0.0, 2 * np.pi, 40),
                         rng.uniform(-1.2, 1.2, (40, 2 * n_zeros - 2))])
    for m in (8, 64):
        samples, excess = family.build_many(P, m)
        ref_samples, ref_excess = old_blaschke_build(family, P, m)
        assert samples.shape == ref_samples.shape == (40, m, n)
        assert samples.tobytes() == ref_samples.tobytes()
        assert excess.tobytes() == ref_excess.tobytes()


EVALUATE_FAMILIES = [ConstantFamily([0.5]),
                     BlaschkeFamily([0.5], n_zeros=1, s_range=(1.0, 2.0)),
                     BlaschkeFamily([0.5], n_zeros=2, s_range=(1.0, 2.0))]
# rows of the 1-zero family: scale 1.2 is finite, 1.7 puts the circle
# where CAPPED_LOG is infinite; rows of the 2-zero family: a free zero at
# 0.7 is built, one at 1.5 lies past ZERO_CAP
FINITE_1, INFINITE_1 = [np.log(1.2), 0.4], [np.log(1.7), 0.4]
BUILT_2, UNBUILT_2 = [np.log(1.2), 0.4, 0.7, 0.1], [np.log(1.2), 0.4, 1.5, 0.]


@pytest.mark.parametrize("partial", [False, True])
@pytest.mark.parametrize("rows, kinds", [
    # every row built and finite: the objective's own arrays
    ([[], [FINITE_1, [np.log(1.3), 2.0]], [BUILT_2]], "fff"),
    # every row built, one not finite: the barrier without an excess
    ([[], [FINITE_1, INFINITE_1], [BUILT_2]], "fif"),
    # every kind of row in one batch
    ([[[]], [INFINITE_1, FINITE_1], [UNBUILT_2, BUILT_2, UNBUILT_2]],
     "fifxfx"),
])
def test_evaluate_rows_are_one_row_batches_bit_for_bit(partial, rows, kinds):
    """Each row of a batch that mixes built rows, rows with an excess
    ("x") and rows whose obstacle is not finite ("i") gets the bits that
    a batch of that row alone gets."""
    req = EnvelopeRequest(pair=BATCH_PAIR, phi=CAPPED_LOG, x=[0.5],
                          families=EVALUATE_FAMILIES,
                          grid=QuadratureGrid(64))
    if partial:
        args = (_partial_objective(req, 0.3),)
    else:
        args = (_envelope_objective(req),)
    groups = [(family,
               np.array(P, dtype=float).reshape(len(P), family.n_params))
              for family, P in zip(EVALUATE_FAMILIES, rows) if P]
    batch = _evaluate(req, groups, *args)
    i = 0
    for family, P in groups:
        for row in P:
            alone = _evaluate(req, [(family, row[None])], *args)
            for got, ref in zip(batch, alone):
                assert got[i:i + 1].tobytes() == ref.tobytes()
            obj, value = batch[0][i], batch[1][i]
            if kinds[i] == "x":
                assert obj > BARRIER and np.isnan(value)
            elif kinds[i] == "i":
                assert obj == BARRIER and np.isnan(value)
            else:
                assert np.isfinite(value)
            i += 1
    assert i == len(kinds) == len(batch[0])


STANDARD_HARTOGS = HartogsPair(ball(1.0, 1),
                              lambda zp: np.full(zp.shape[:-1], 0.25),
                              lambda zp: np.full(zp.shape[:-1], 1.0))
HARTOGS_PHI = obstacle_from_expression("re(z1) + abs(z2)*abs(z2)", 2)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(r=st.floats(0.0, 0.6, exclude_max=True),
       angle=st.floats(0.0, 2 * np.pi))
def test_search_value_is_at_least_the_kiselman_psi(r, angle):
    """On the standard Hartogs pair the search over both vertical
    families is feasible at every base point |z1| < 0.6, and its value is
    at least the Kiselman psi less criterion 1's sandwich tolerance."""
    z1 = r * np.exp(1j * angle)
    x = [z1, 0.0]
    families = [VerticalFamily(x, winding=k, s_range=(0.25, 1.0))
                for k in (1, 2)]
    req = EnvelopeRequest(pair=(STANDARD_HARTOGS.W, STANDARD_HARTOGS.X),
                          phi=HARTOGS_PHI, x=x, families=families,
                          grid=QuadratureGrid(64), starts=2, budget=40)
    res = minimize_envelope(req)
    assert res.feasible
    assert res.value >= kiselman_psi(STANDARD_HARTOGS, HARTOGS_PHI,
                                     [z1]) - 1e-3


@pytest.mark.parametrize("level", ["coarse", "fine"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(pair=st.sampled_from(["annulus", "hartogs"]),
       r=st.floats(0.0, 1.0, exclude_max=True),
       angle=st.floats(0.0, 2 * np.pi))
def test_a_coarse_winner_is_reported_at_the_configured_m(level, pair, r,
                                                         angle):
    """On the planar annulus (M = 256, |x| < 1.9) and on criterion 1's
    Hartogs pair (M = 512, |z1| < 0.6), the winner of either level (the
    fine one forced by refusing every coarse winner) is reported by its
    disc at the configured M: the value is that disc's boundary average
    there, bit for bit, feasibility is its strictness there (at the nodes,
    and at the probes on the Hartogs X), and a feasible value is at least
    the closed form."""
    if pair == "annulus":
        x = 1.9 * r * np.exp(1j * angle)
        req = annulus_request(x, [
            ConstantFamily([x]), BlaschkeFamily([x], n_zeros=1),
            BlaschkeFamily([x], n_zeros=2)], starts=2, budget=60)
        closed = max(np.log(abs(x)), 0.0) if x else 0.0
    else:
        z1 = 0.6 * r * np.exp(1j * angle)
        families = [VerticalFamily([z1, 0.0], winding=k, s_range=(0.25, 1.0))
                    for k in (1, 2)]
        req = EnvelopeRequest(
            pair=(STANDARD_HARTOGS.W, STANDARD_HARTOGS.X), phi=HARTOGS_PHI,
            x=[z1, 0.0], families=families, grid=QuadratureGrid(512),
            starts=2, budget=40)
        closed = z1.real + 1.0 / 16
    with pytest.MonkeyPatch.context() as patch:
        if level == "fine":
            patch.setattr(envelope, "AGREEMENT", -1.0)
        res = minimize_envelope(req)
    assert res.disc.samples.shape[0] == req.grid.M
    # a coarse winner can be refused at M (at numpy's baseline SIMD level,
    # one misses strictness there by 1e-16)
    assert res.search_m in ((64, req.grid.M) if level == "coarse"
                            else (req.grid.M,))
    w, x_spec = req.pair
    _, violation, strict = _constraints(w, x_spec, res.disc.samples[None])
    assert res.feasible == strict[0]
    assert res.max_violation == violation[0]
    assert res.value == boundary_averages(res.disc.samples[None], req.phi)[0]
    if res.feasible:
        assert res.value >= closed - 1e-12


@pytest.mark.parametrize("m", [128, 256])
def test_a_family_unbuildable_at_64_nodes_searches_where_it_builds(
        monkeypatch, m):
    """A degree-40 polynomial needs M/2 > 40: the search runs at 128
    nodes, the least power of two that builds it, which at M = 128 is
    the one search at M."""
    sizes = searched_at(monkeypatch)
    req = annulus_request(1.5, [ConstantFamily([1.5]), PolynomialFamily(
        [1.5], degree=40, scale=0.01)], grid=QuadratureGrid(m), starts=1,
        budget=30)
    res = minimize_envelope(req)
    assert sizes == [128] and res.search_m == 128
    assert res.feasible and res.disc.samples.shape[0] == m


#: The Hartogs compare of the benchmark's seed-1 hartogs_kiselman workload
HARTOGS_COMPARE = {
    "experiment": "hartogs-faults",
    "pair": {"variant": "hartogs", "n": 2, "base_radius": 1.0, "r": 0.25,
             "R": 1.0},
    "obstacle": {"expr": "re(z1) + abs(z2)*abs(z2)",
                 "rotation_invariant": True},
    "points": [[[-0.3452527937951409, -0.016570137270586927], [0.0, 0.0]],
               [[0.26063468261494765, 0.39032308762183493], [0.0, 0.0]]],
    "families": [
        {"kind": "vertical", "winding": 1, "s_range": [0.25, 1.0]},
        {"kind": "vertical", "winding": 2, "s_range": [0.25, 1.0]}],
    "quadrature_m": 512, "starts": 8, "budget": 400, "seed": 0,
    "oracle": {"kind": "kiselman"},
    "tolerances": {"gap": 0.01},
}


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or platform.libc_ver()[0] != "glibc",
                    reason="counts the page faults of glibc's heap on Linux")
def test_search_holds_each_batch_until_the_next_is_scored(tmp_path):
    """Holding each batch's samples until the next batch is scored keeps
    glibc's heap from trimming and regrowing: a Hartogs compare round
    then takes under a thousand minor page faults, where a search that
    freed each batch at once took about 12 000 (x86-64, glibc 2.36).  The
    rounds run in a fresh process, after one round to warm it up."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(HARTOGS_COMPARE))
    code = (
        "import os, resource, sys\n"
        "from discenv.cli import main\n"
        "cfg, out = sys.argv[1:]\n"
        "def compare(i):\n"
        "    args = ['--config', cfg, '--out', f'{out}/{i}', '--quiet']\n"
        "    assert main(['compare', *args]) == 0\n"
        "compare(0)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for i in range(1, 6):\n"
        "    compare(i)\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "print((after - before) / 5)")
    src = os.path.dirname(os.path.dirname(discenv.__file__))
    done = subprocess.run(
        [sys.executable, "-c", code, str(cfg), str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) <= 5000


# ---------------------------------------------------------------------------
# partial_envelope
# ---------------------------------------------------------------------------

def test_partial_never_exceeds_full_envelope():
    fams = lambda: [BlaschkeFamily([0.5], n_zeros=1, s_range=(1.0, 2.0))]
    full = minimize_envelope(annulus_request(0.5, fams())).value
    for eps in [0.5, 0.1]:
        assert partial_envelope(annulus_request(0.5, fams()), eps) \
            <= full + 1e-9


@settings(max_examples=24, deadline=None, derandomize=True)
@given(r=st.one_of(st.floats(0.0, 0.9, exclude_max=True),
                   st.floats(1.05, 1.9, exclude_min=True, exclude_max=True)),
       angle=st.floats(0.0, 2 * np.pi))
def test_partial_staircase_is_nonincreasing_in_eps(r, angle):
    """Criterion 3's staircase at points off the origin, in the hole and
    in W: a larger eps admits more discs, so the bound does not rise by
    more than criterion 3's noise of 1e-3 per step."""
    x = complex(r * np.exp(1j * angle))
    families = [BlaschkeFamily([x], n_zeros=1, s_range=(1.0, 2.0))]
    req = annulus_request(x, families, starts=2, budget=60)
    wide, mid, narrow = (partial_envelope(req, eps)
                         for eps in (0.5, 0.2, 0.05))
    assert wide <= mid + 1e-3 <= narrow + 2e-3


@pytest.mark.parametrize("x", [0.0, 0.5])
def test_partial_staircase_of_a_constant_obstacle_steps_with_eps(x):
    """With phi = 1 the partial value is the in-W mass of the best disc:
    the least multiple of 1/M above 1 - eps, 129/256, 205/256 and 244/256
    at eps = 0.5, 0.2 and 0.05, so a reversed eps shows.  The X of the
    annulus is a ball, so the search scores no probes."""
    req = annulus_request(x, [PolynomialFamily([x], degree=3, scale=1.0)],
                          phi=obstacle_from_expression("1", 1), starts=4,
                          budget=600)
    assert req.pair[1].max_principle
    values = [partial_envelope(req, eps) for eps in (0.5, 0.2, 0.05)]
    assert values == [129 / 256, 205 / 256, 244 / 256]


def test_partial_with_constant_family_inside_w():
    x = 1.5
    value = partial_envelope(annulus_request(x, [ConstantFamily([x])]), 0.3)
    assert value <= np.log(x) + 1e-10


def test_partial_without_enough_mass_reports_least_violating_disc():
    # the constant disc at 0.5 has no boundary node in W: mass 0 <= 1 - eps
    value = partial_envelope(annulus_request(0.5, [ConstantFamily([0.5])]),
                             0.3)
    assert value == 0.0


def test_partial_mass_penalty_squares_as_python_floats_do():
    """At M = 64 and eps = 0.28, a disc with 9 of 64 nodes in W falls
    0.5871875 short of the needed mass; Python's float square of that
    differs in the last bit from numpy's, and the objective uses the
    former, as the one-disc search did."""
    w, x_spec = planar_annulus_pair()
    req = annulus_request(1.5, [ConstantFamily([1.5])],
                          grid=QuadratureGrid(64))
    samples = np.full((1, 64, 1), 0.5 + 0j)
    samples[0, :9] = 1.5
    obj, integral, _, strict = _partial_objective(req, 0.28)(samples)
    short = 1.0 - 0.28 + 0.5 / 64 - 9 / 64
    assert short ** 2 != short * short
    hinge = np.sum(np.maximum(0.0, FEAS_MARGIN - x_spec.margin(samples)) ** 2)
    pen = req.penalty_weight * (short ** 2 + float(hinge))
    assert obj[0] == integral[0] + pen and not strict[0]


def test_partial_eps_validation():
    req = annulus_request(1.5, [ConstantFamily([1.5])])
    with pytest.raises(ConfigurationError):
        partial_envelope(req, 1.5)
    with pytest.raises(ConfigurationError):
        partial_envelope(req, 1e-4)


# ---------------------------------------------------------------------------
# minimize (adaptive Nelder-Mead)
# ---------------------------------------------------------------------------

def bowl(x):
    return float(np.sum((x - 0.3) ** 2)
                 + np.sum(100 * (x[1:] - x[:-1] ** 2) ** 2))


def walled_bowl(x):
    return BARRIER if np.linalg.norm(x) > 1 else bowl(x)


def plateau(x):
    return float(np.floor(4 * np.sum(x ** 2)) / 4)


def flat(x):
    return BARRIER


def signed_zero(x):
    """-0.0 is the least point and +0.0 the greatest zero, so the search
    sees the sign of a zero centroid."""
    if x[0] != 0:
        return 2.0 if x[0] < 0 else 0.5
    return 0.0 if np.signbit(x[0]) else 1.0


#: 17 vertices; on the plateau numpy's argsort breaks ties in another
#: order than a stable sort would, and at numpy's baseline SIMD level it
#: moves the ties of the flat case too
WIDE_CASES = [
    (bowl, np.random.default_rng(16).standard_normal(16), 400),
    (flat, np.arange(1.0, 17.0), 400),
    (plateau, np.random.default_rng(0).standard_normal(16), 400),
]

#: numpy's x86 dispatch targets above its baseline
ABOVE_BASELINE = ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"]


def evaluated_points(search, fun, x0):
    points = []

    def recording(x):
        points.append(x.tobytes())
        return fun(x)

    return search(recording, x0), points


@pytest.mark.parametrize("fun, x0, budget", [
    *[(bowl, np.random.default_rng(n).standard_normal(n), 400)
      for n in range(1, 7)],
    # ties at BARRIER in the simplex order
    (walled_bowl, np.array([0.7, 0.7, 0.0]), 400),
    (flat, np.array([1.0, 2.0, 3.0]), 400),
    # evaluations 7-9 are the first shrink, so 8 ends in its middle
    (flat, np.array([1.0, 2.0, 3.0]), 8),
    # budgets inside the initial simplex
    (bowl, np.array([0.5, -0.5, 1.0, 2.0]), 3),
    (bowl, np.array([0.5, -0.5, 1.0, 2.0]), 1),
    # zero start coordinates are stepped by 0.00025, not scaled
    (plateau, np.array([0.0, 1.5]), 300),
    (bowl, np.zeros(3), 400),
    # a centroid of -0.0 alone is summed from 0.0, as numpy sums it
    (signed_zero, np.array([-0.0]), 50),
    *WIDE_CASES,
])
def test_minimize_evaluates_the_points_scipy_does(fun, x0, budget):
    optimize = pytest.importorskip("scipy.optimize")
    options = {"maxfev": budget, "xatol": 1e-9, "fatol": 1e-12,
               "adaptive": True}
    ref, ref_points = evaluated_points(
        lambda f, x: optimize.minimize(f, x, method="Nelder-Mead",
                                       options=options), fun, x0)
    got, points = evaluated_points(lambda f, x: minimize(f, x, budget),
                                   fun, x0)
    assert points == ref_points
    assert got.nfev == ref.nfev == len(points)


def test_scipy_parity_holds_at_numpys_baseline_simd_level():
    """The flat and plateau WIDE_CASES with numpy's dispatch above the
    x86 baseline turned off, where argsort moves ties that it keeps at
    the AVX2 and AVX-512 levels: with the second sort of the first
    simplex, as in scipy, the points evaluated stay scipy's."""
    pytest.importorskip("scipy.optimize")
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_dispatch__
    if not set(ABOVE_BASELINE) <= set(__cpu_dispatch__):
        pytest.skip(f"numpy dispatches to {list(__cpu_dispatch__)}")
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(discenv.__file__))
    code = ("import test_envelope as t\n"
            "for fun, x0, budget in t.WIDE_CASES:\n"
            "    if fun in (t.flat, t.plateau):\n"
            "        t.test_minimize_evaluates_the_points_scipy_does(\n"
            "            fun, x0, budget)\n"
            "from discenv.cli import _simd\n"
            "print(_simd())")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]),
               NPY_DISABLE_CPU_FEATURES=" ".join(ABOVE_BASELINE))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"  # the baseline level ran


@pytest.mark.parametrize("runs", [
    # flat: evaluations 7-9 are the first shrink, so 8 ends in its middle
    [(flat, np.array([1.0, 2.0, 3.0]), 8),
     (bowl, np.array([0.5, -0.5, 1.0]), 400)],
    [(walled_bowl, np.array([0.7, 0.7, 0.0]), 400),
     (bowl, np.array([0.5, -0.5, 1.0, 2.0]), 3),
     (plateau, np.array([0.0, 1.5]), 300)],
])
def test_nelder_mead_driven_by_hand_in_lockstep_matches_minimize(runs):
    """Searches advanced one evaluation each in turn, as the lockstep
    search does, evaluate the points and spend the evaluations that
    minimize spends on each alone."""
    searches = [nelder_mead(x0, budget) for _, x0, budget in runs]
    pending = [next(search) for search in searches]
    points = [[] for _ in runs]
    results = [None] * len(runs)
    while any(r is None for r in results):
        for i, (fun, _, _) in enumerate(runs):
            if results[i] is None:
                point = np.asarray(pending[i], dtype=float)
                points[i].append(point.tobytes())
                try:
                    pending[i] = searches[i].send(fun(point))
                except StopIteration as stop:
                    results[i] = stop.value
    for (fun, x0, budget), got, got_points in zip(runs, results, points):
        ref, ref_points = evaluated_points(
            lambda f, x: minimize(f, x, budget), fun, x0)
        assert got_points == ref_points
        assert got.nfev == ref.nfev == len(got_points) <= budget
        assert np.array_equal(got.x, ref.x) and got.fun == ref.fun


def test_nelder_mead_yields_lists_and_minimize_hands_fun_copies():
    point = next(nelder_mead(np.array([0.5, -0.5]), 10))
    assert type(point) is list and [type(c) for c in point] == [float] * 2

    def scribbling(x):
        value = bowl(x)
        x[:] = np.nan  # on a copy, so the search never sees it
        return value

    x0 = np.array([0.5, -0.5, 1.0])
    got, ref = minimize(scribbling, x0, 200), minimize(bowl, x0, 200)
    assert np.array_equal(got.x, ref.x) and got.fun == ref.fun
    assert got.nfev == ref.nfev


def test_nan_margin_gives_nan_violation():
    """A NaN margin at a node, or at an interior probe, gives a NaN
    violation and no strictness."""
    circle = roots_of_unity(64)[None, :, None]  # its probes: |z| <= 0.95

    def nan_where(on_circle):
        return DomainSpec("nan", 1, lambda p: np.where(
            (np.abs(p[..., 0]) > 0.99) == on_circle, np.nan, 1.0))

    fine = DomainSpec("fine", 1, lambda p: np.ones(p.shape[:-1]))
    for boundary, x_spec in ((nan_where(True), fine),
                             (fine, nan_where(False))):
        _, violation, strict = _constraints(boundary, x_spec, circle)
        assert np.isnan(violation[0]) and not strict[0]


def test_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(discenv.__file__))
    code = "import sys, discenv, discenv.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_package_exports_resolve():
    # Python checks __all__ only at `from discenv import *`
    assert len(set(discenv.__all__)) == len(discenv.__all__)
    missing = [name for name in discenv.__all__
               if not hasattr(discenv, name)]
    assert missing == []
