"""Penalised envelope search: feasibility, determinism, monotonicity."""

import os
import subprocess
import sys

import numpy as np
import pytest

import discenv
from discenv.discs import roots_of_unity
from discenv.domains import Obstacle, ball, planar_annulus_pair, shell_pair
from discenv.envelope import (
    BARRIER,
    EnvelopeRequest,
    _envelope_objective,
    _evaluate,
    _hinge,
    _margins,
    _partial_objective,
    _violation,
    interior_probe_points,
    minimize,
    minimize_envelope,
    nelder_mead,
    partial_envelope,
)
from hypothesis import assume, given, settings, strategies as st

from discenv.errors import ConfigurationError, InfeasibleEnvelope, \
    InfeasibleParameters, PreconditionError
from discenv.expressions import obstacle_from_expression
from discenv.families import ZERO_CAP, BlaschkeFamily, ConstantFamily, \
    PolynomialFamily, ShellFamily, VerticalFamily
from discenv.functionals import QuadratureGrid, poisson_functional

LOG_ABS = obstacle_from_expression("log(abs(z1))", 1)


def assert_recorded_disc(res):
    """The result's value and violation are those of its own disc."""
    w, x_spec = planar_annulus_pair()
    assert res.value == poisson_functional(res.disc, LOG_ABS)
    assert res.max_violation == \
        _violation(*_margins(w, x_spec, res.disc.samples[None]))[0][0]


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
    assert_recorded_disc(res)


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
    assert_recorded_disc(res)


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
    assert_recorded_disc(res)


@pytest.mark.parametrize("starts, budget", [(0, 400), (8, 0), (8, -3)])
def test_no_start_or_no_budget_is_a_configuration_error(starts, budget):
    with pytest.raises(ConfigurationError, match="starts >= 1"):
        annulus_request(1.5, [ConstantFamily([1.5])], starts=starts,
                        budget=budget)


def test_no_family_is_a_configuration_error():
    req = annulus_request(1.5, [ConstantFamily([1.5])])
    req.families = []
    with pytest.raises(ConfigurationError):
        minimize_envelope(req)


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
    disc = fam.build(fam.initial(rng), 128)
    assert abs(disc.centre[0] - 1.5) <= 1e-12
    assert disc.holomorphy_residual <= 1e-10


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
    disc = fam.build(np.asarray(params[:fam.n_params]), m)
    assert np.max(np.abs(disc.centre - fam.centre)) <= 1e-12


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
    solved.  Either the zeros exceed ZERO_CAP and build raises with that
    excess, or the disc's centre is the target."""
    centre = np.array([0.1 - 0.2j, target])
    fam = BlaschkeFamily(centre, n_zeros=n_zeros)
    zeros = [complex(r * np.cos(a), r * np.sin(a))
             for r, a in free[:n_zeros - 1]]
    params = [log_s, theta] + [v for z in zeros for v in (z.real, z.imag)]
    free_max = max([abs(z) for z in zeros], default=0.0)
    solved = abs(target) / (np.exp(log_s) * np.prod([abs(z) for z in zeros]))
    try:
        disc = fam.build(np.asarray(params), 1024)
    except InfeasibleParameters as exc:
        expected = free_max if free_max > ZERO_CAP else solved
        assert exc.excess > 0
        assert exc.excess == pytest.approx(expected - ZERO_CAP, rel=1e-12,
                                           abs=1e-12)
        return
    assert max(free_max, solved) <= ZERO_CAP
    # zeros nearer the circle alias on 1024 nodes: the node average then
    # differs from the product's value at 0 by quadrature error
    assume(max(free_max, solved) <= 0.95)
    assert np.max(np.abs(disc.centre - centre)) <= 1e-12


@pytest.mark.parametrize("family, pair", [
    (ConstantFamily([1.5]), planar_annulus_pair()),
    (PolynomialFamily([1.5]), planar_annulus_pair()),
    (BlaschkeFamily([0.5], n_zeros=2), planar_annulus_pair()),
    (ShellFamily([0.3, 0.2j]), shell_pair(2)),
    (VerticalFamily([0.1, 0.0]), (ball(1.0, 2), ball(1.5, 2))),
])
def test_margins_probe_the_disc_at_interior_probe_points(family, pair):
    w, x_spec = pair
    rng = np.random.default_rng(0)
    disc = family.build(family.initial(rng, 1), 512)
    bm, im = _margins(w, x_spec, disc.samples[None])
    assert np.array_equal(bm[0], w.margin(disc.samples))
    expected = x_spec.margin(disc.evaluate(interior_probe_points()))
    assert im.shape == (1,) + expected.shape
    assert np.max(np.abs(im[0] - expected)) <= 1e-12


@pytest.mark.parametrize("family", [
    ConstantFamily([1.5, 0.5j]),
    PolynomialFamily([1.5, 0.5j], degree=3),
    VerticalFamily([0.1, 0.0], winding=2),
    BlaschkeFamily([0.1, 0.3 - 0.2j], n_zeros=2),
    BlaschkeFamily([0.1, 0.0], n_zeros=3),
    ShellFamily([0.3, 0.2j]),
])
def test_build_many_rows_are_single_builds(family):
    """Each row of a batch builds the disc, or raises the excess, that
    ``build`` gives for that row alone."""
    rng = np.random.default_rng(4)
    P = np.array([family.initial(rng, i) for i in range(12)])
    if isinstance(family, BlaschkeFamily):
        P[::3, 2:] *= 1.7   # free zeros past ZERO_CAP
        P[1::3, 0] -= 3.0   # a small scale pushes the solved zero out
    samples, excess = family.build_many(P, 128)
    assert samples.shape == (len(P), 128, 2)
    for row, row_samples, row_excess in zip(P, samples, excess):
        try:
            disc = family.build(row, 128)
        except InfeasibleParameters as exc:
            assert row_excess == exc.excess > 0
            continue
        assert row_excess == 0
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
       partial=st.booleans(), x=st.sampled_from([0.3, 0.5]))
def test_batched_rows_equal_single_row_calls(rows, partial, x):
    """Each row of a batch gets the objective, value, violation and
    strictness of the same row evaluated alone.  Rows whose Blaschke
    zero lies past ZERO_CAP get BARRIER * (1 + excess) and rows with a
    non-finite obstacle get BARRIER, both with value NaN."""
    family = BlaschkeFamily([x], n_zeros=2, s_range=(1.0, 2.0))
    req = EnvelopeRequest(pair=BATCH_PAIR, phi=CAPPED_LOG, x=[x],
                          families=[family], grid=QuadratureGrid(64))
    if partial:
        args = (req.pair[1], _partial_objective(req, 0.3))
    else:
        args = (req.pair[0], _envelope_objective(req))
    P = np.array([[log_s, theta, r * np.cos(a), r * np.sin(a)]
                  for log_s, theta, r, a in rows])
    batch = _evaluate(req, family, P, *args)[:4]
    for i, row in enumerate(P):
        alone = _evaluate(req, family, row[None], *args)[:4]
        for got, ref in zip(batch, alone):
            assert np.array_equal(got[i:i + 1], ref, equal_nan=True)
        obj, value = batch[0][i], batch[1][i]
        try:
            disc = family.build(row, req.grid.M)
        except InfeasibleParameters as exc:
            assert obj == BARRIER * (1.0 + exc.excess) and np.isnan(value)
            continue
        values = CAPPED_LOG(disc.samples)
        if partial:  # the partial search reads phi inside W only
            values = values[BATCH_PAIR[0].margin(disc.samples) > 0]
        if not np.all(np.isfinite(values)):
            assert obj == BARRIER and np.isnan(value)
        else:
            assert obj != BARRIER and np.isfinite(value)


# ---------------------------------------------------------------------------
# partial_envelope
# ---------------------------------------------------------------------------

def test_partial_never_exceeds_full_envelope():
    fams = lambda: [BlaschkeFamily([0.5], n_zeros=1, s_range=(1.0, 2.0))]
    full = minimize_envelope(annulus_request(0.5, fams())).value
    for eps in [0.5, 0.1]:
        assert partial_envelope(annulus_request(0.5, fams()), eps) \
            <= full + 1e-9


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
    bm, im = _margins(x_spec, x_spec, samples)
    obj, integral, _, strict = _partial_objective(req, 0.28)(samples, bm, im)
    short = 1.0 - 0.28 + 0.5 / 64 - 9 / 64
    assert short ** 2 != short * short
    pen = req.penalty_weight * (
        short ** 2 + float(_hinge(bm)[0]) + float(_hinge(im)[0]))
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
                points[i].append(pending[i].tobytes())
                try:
                    pending[i] = searches[i].send(fun(pending[i]))
                except StopIteration as stop:
                    results[i] = stop.value
    for (fun, x0, budget), got, got_points in zip(runs, results, points):
        ref, ref_points = evaluated_points(
            lambda f, x: minimize(f, x, budget), fun, x0)
        assert got_points == ref_points
        assert got.nfev == ref.nfev == len(got_points) <= budget
        assert np.array_equal(got.x, ref.x) and got.fun == ref.fun


def test_nan_margin_gives_nan_violation():
    ok = np.ones(4)
    nan = np.array([1.0, np.nan, 1.0, 1.0])
    for bm, im in ((nan, ok), (ok, nan)):
        violation, strict = _violation(bm, im)
        assert np.isnan(violation) and not strict


def test_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(discenv.__file__))
    code = "import sys, discenv, discenv.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
