"""Reference computations: fiberwise infimum, grid obstacle solver,
sub-mean-value checker."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from discenv.domains import Obstacle, ball, planar_annulus_pair
from discenv.errors import (
    ConfigurationError,
    EvaluationError,
    PreconditionError,
    UnsupportedDimensionError,
)
from discenv.expressions import obstacle_from_expression
from discenv.hartogs import HartogsPair
from discenv import oracles
from discenv.oracles import (
    grid_obstacle_solver,
    kiselman_psi,
    submean_check,
)


def hartogs_pair(r=0.25, R=1.0):
    return HartogsPair(ball(1.0, 1),
                       lambda zp: np.full(zp.shape[:-1], r),
                       lambda zp: np.full(zp.shape[:-1], R))


def rotation_invariant(fn):
    return Obstacle(fn, rotation_invariant_last=True)


# ---------------------------------------------------------------------------
# kiselman_psi
# ---------------------------------------------------------------------------

def test_psi_of_constant_obstacle():
    pair = hartogs_pair()
    phi = rotation_invariant(lambda p: np.full(p.shape[:-1], 2.5))
    assert abs(kiselman_psi(pair, phi, [0.3]) - 2.5) <= 1e-12


def test_psi_of_quadratic_fiber_profile():
    pair = hartogs_pair()
    phi = rotation_invariant(
        lambda p: np.real(p[..., 0]) + np.abs(p[..., 1]) ** 2)
    for z1 in [0.0, 0.3, -0.3, 0.3j]:
        value = kiselman_psi(pair, phi, [z1])
        expected = np.real(complex(z1)) + 1.0 / 16
        # the infimum sits on the open endpoint s = 1/4, which the grid
        # approaches to within a relative 1e-9 offset
        assert abs(value - expected) <= 1e-8


def test_psi_of_monotone_profile():
    pair = hartogs_pair()
    phi = rotation_invariant(lambda p: -np.log(np.abs(p[..., 1])))
    value = kiselman_psi(pair, phi, [0.0])
    assert abs(value) <= 1e-6


def test_psi_is_a_lower_bound_on_fiber_values():
    pair = hartogs_pair()
    phi = rotation_invariant(
        lambda p: np.cos(5 * np.abs(p[..., 1])) + np.abs(p[..., 1]))
    value = kiselman_psi(pair, phi, [0.2])
    for s in np.linspace(0.2501, 0.9999, 57):
        p = np.array([[0.2, s]], dtype=complex)
        assert value <= phi(p)[0] + 1e-12


def test_psi_preconditions():
    pair = hartogs_pair()
    plain = Obstacle(lambda p: np.abs(p[..., 1]))
    with pytest.raises(PreconditionError):
        kiselman_psi(pair, plain, [0.0])
    phi = rotation_invariant(lambda p: np.abs(p[..., 1]))
    with pytest.raises(PreconditionError):
        kiselman_psi(pair, phi, [1.5])
    for r, R in [(0.9, 0.5), (0.5, 0.5)]:  # an empty fiber has no infimum
        with pytest.raises(PreconditionError, match="empty fiber"):
            kiselman_psi(hartogs_pair(r, R), phi, [0.0])


# ---------------------------------------------------------------------------
# grid_obstacle_solver
# ---------------------------------------------------------------------------

def annulus_grid_config(spacing=1.0 / 32, **overrides):
    """The grid solver's keywords for the annulus tests."""
    kwargs = dict(bounds=(-2.1, 2.1, -2.1, 2.1), spacing=spacing, tol=1e-8)
    kwargs.update(overrides)
    return kwargs


def test_constant_obstacle_gives_constant_field():
    pair = planar_annulus_pair()
    phi = obstacle_from_expression("0.75", 1)
    field = grid_obstacle_solver(pair, phi, **annulus_grid_config())
    inside = field.mask > 0
    assert np.max(np.abs(field.values[inside] - 0.75)) <= 1e-6


def test_harmonic_obstacle_extends_harmonically():
    # Re z is harmonic, so the maximal subharmonic minorant is Re z itself
    pair = planar_annulus_pair()
    phi = obstacle_from_expression("re(z1)", 1)
    field = grid_obstacle_solver(pair, phi,
                                 **annulus_grid_config(spacing=1.0 / 64))
    xs, ys = field.points()
    zz = xs[None, :] + 1j * ys[:, None]
    interior = pair[1].margin(zz[:, :, None]) > 2 * field.h
    err = np.abs(field.values - np.real(zz))
    assert np.max(err[interior]) <= 1e-2


def counting_relax(monkeypatch):
    """The cycle counts of the _relax calls made from here on."""
    cycles = []
    relax = oracles._relax

    def counting(*args):
        cycles.append(relax(*args))
        return cycles[-1]

    monkeypatch.setattr(oracles, "_relax", counting)
    return cycles


def test_relax_without_an_active_interior_node_returns_zero():
    # only the boundary ring is active, so no node has four neighbours
    u = np.arange(25.0).reshape(5, 5)
    active = np.ones((5, 5), dtype=bool)
    active[1:-1, 1:-1] = False
    before = u.copy()
    assert oracles._relax(u, np.full((5, 5), 100.0), active, 1e-12) == 0
    assert np.array_equal(u, before)


def test_solver_relaxes_once_at_half_h(monkeypatch):
    # bounds +-2.0625 put nodes on the edge of X
    calls = []
    relax = oracles._relax

    def recording(u, obst, active, tol):
        calls.append((u, u.copy(), obst, active))
        return relax(u, obst, active, tol)

    monkeypatch.setattr(oracles, "_relax", recording)
    pair = planar_annulus_pair()
    cfg = dict(bounds=(-2.0625, 2.0625, -2.0625, 2.0625),
               spacing=1.0 / 16, tol=1e-10)
    phi = obstacle_from_expression("log(abs(z1))", 1)
    field = grid_obstacle_solver(pair, phi, **cfg)
    assert [u.shape for u, *_ in calls] == [(133, 133)]
    # h/2 starts from top, the max of phi over the W nodes: phi on W, top
    # on X \ W, where the obstacle is +inf
    _, mask, obst, top = oracles._build_grid(pair, phi, cfg["bounds"],
                                             cfg["spacing"] / 2)[1:]
    u, start, relax_obst, _ = calls[0]
    assert u is field.values
    assert np.array_equal(relax_obst, obst)
    assert top == np.max(obst[mask == 2])
    assert np.all(obst[mask == 1] == np.inf)
    assert np.all(start[mask == 1] == top)
    assert np.array_equal(start[mask == 2], obst[mask == 2])


def test_prolongation_matches_bilinear_interpolation():
    rng = np.random.default_rng(3)
    for shape in [(5, 8), (6, 7), (2, 2)]:
        e = rng.standard_normal(shape)
        coarse = oracles.GridField(-2.0625, -1.5, 0.125, e, None)
        ny, nx = 2 * shape[0] - 1, 2 * shape[1] - 1
        fine = oracles._prolong(e, (ny, nx))
        assert fine.shape == (ny, nx)
        # interpolate takes the nodes below and left of the coarse grid's
        # last row and column
        xs = coarse.x0 + 0.0625 * np.arange(nx - 1)
        ys = coarse.y0 + 0.0625 * np.arange(ny - 1)
        zz = xs[None, :] + 1j * ys[:, None]
        assert np.allclose(fine[:-1, :-1], coarse.interpolate(zz),
                           rtol=1e-14, atol=1e-14)
        assert np.array_equal(fine[::2, ::2], e)


def test_prolongation_covers_a_fine_grid_one_node_longer():
    # (x_max - x_min) / h is 66 + 7e-10: within _build_grid's 1e-9 slack at
    # h, but not at h/2, so 134 nodes where 2 * 67 - 1 = 133 reach x_max;
    # the V-cycle's prolongation covers the even-sized grid
    cfg = dict(bounds=(-2.0625, -2.0625 + (66 + 7e-10) / 16,
                       -2.0625, 2.0625),
               spacing=1.0 / 16, tol=1e-10)
    phi = obstacle_from_expression("log(abs(z1))", 1)
    field = grid_obstacle_solver(planar_annulus_pair(), phi, **cfg)
    assert field.values.shape == (133, 134)
    assert abs(field.interpolate(np.array([1.5 + 0.0j]))[0]
               - np.log(1.5)) <= 1e-2


def test_coarse_free_set_is_the_fine_five_point_stencil(monkeypatch):
    # 11 x 11 fine nodes, free inside the rim; coarse node (i, j) is fine
    # node (2i, 2j).  Fine (3, 3) is a diagonal neighbour of coarse (1, 1),
    # (1, 2), (2, 1) and (2, 2); fine (4, 7) a cross neighbour of (2, 3)
    # and (2, 4)
    free = np.zeros((11, 11), dtype=bool)
    free[1:-1, 1:-1] = True
    free[3, 3] = free[4, 7] = False
    expected = np.zeros((6, 6), dtype=bool)
    expected[1:-1, 1:-1] = True
    expected[2, 3] = expected[2, 4] = False
    coarse_sets = []
    correction = oracles._correction

    def recording(d, coarse):
        coarse_sets.append(coarse)
        return 0.0

    monkeypatch.setattr(oracles, "_correction", recording)
    d = np.random.default_rng(5).standard_normal(free.shape)
    e = correction(d, free)
    assert np.array_equal(coarse_sets[0], expected)
    assert np.all(e[~free] == 0.0)
    # the defect off free does not reach the correction
    assert np.array_equal(correction(np.where(free, d, 7.0), free), e)


def test_multigrid_cycles_per_level(monkeypatch):
    # one cold solve at h/2 from top: 33 cycles on the grid of spacing
    # 1/32 and 36 on that of 1/64, where coarse free sets eroded by their
    # 3x3 neighbourhood take 46 and 53
    pair = planar_annulus_pair()
    phi = obstacle_from_expression("log(abs(z1))", 1)
    cycles = counting_relax(monkeypatch)
    grid_obstacle_solver(pair, phi,
                         **annulus_grid_config(spacing=1.0 / 16, tol=1e-10))
    assert len(cycles) == 1
    assert cycles[0] <= 35
    grid_obstacle_solver(pair, phi, **annulus_grid_config(tol=1e-10))
    assert len(cycles) == 2
    assert cycles[1] <= 40


@pytest.mark.parametrize("expr", [
    "log(abs(z1))", "-abs(z1)", "abs(z1 - 1.5)",
    "0.3 + 0.7 * re(z1) - 0.4 * im(z1) + 1.3 * log(abs(z1))"])
def test_multigrid_converges_below_the_obstacle(monkeypatch, expr):
    # log|z1| is harmonic in W, so its contact set there is a fine-grained
    # mix of contact and free nodes; -|z1| is superharmonic, so its
    # contact set has a free boundary inside W; |z1 - 1.5| has its kink
    # inside W, and the affine + log mix has no symmetry
    pair = planar_annulus_pair()
    phi = obstacle_from_expression(expr, 1)
    cycles = counting_relax(monkeypatch)
    cfg = annulus_grid_config(tol=1e-10)
    field = grid_obstacle_solver(pair, phi, **cfg)
    # a cycle count that grows with the grid, as sweeps do, fails this
    assert cycles[-1] <= 100
    ref = grid_obstacle_solver(pair, phi, **annulus_grid_config(tol=1e-13))
    u = field.values
    assert np.max(np.abs(u - ref.values)) <= 1e-9
    _, _, mask, obst, _ = oracles._build_grid(pair, phi, cfg["bounds"],
                                              field.h)
    active = mask > 0
    assert np.all(u[active] <= obst[active])
    # a cycle whose coarse correction undoes its sweeps stops on a small
    # change away from the fixed point, and the reference stops there too
    mean = 0.25 * (u[:-2, 1:-1] + u[2:, 1:-1] + u[1:-1, :-2] + u[1:-1, 2:])
    step = np.minimum(obst[1:-1, 1:-1], mean) - u[1:-1, 1:-1]
    assert np.max(np.abs(step[active[1:-1, 1:-1]])) <= 1e-9


def test_non_finite_obstacle_at_a_w_node_raises():
    # log|z1 - 1.5| is -inf at the node 1.5 of the h/2 = 1/16 level
    phi = obstacle_from_expression("log(abs(z1 - 1.5))", 1)
    cfg = dict(bounds=(-2.0625, 2.0625, -2.0625, 2.0625), spacing=0.125)
    with pytest.raises(EvaluationError, match=r"grid node \(1\.5\+0j\)"):
        grid_obstacle_solver(planar_annulus_pair(), phi, **cfg)


@pytest.mark.parametrize("bounds, cuts", [
    ((-2.0625, 2.0625, -2.0625, 2.0625), False),  # the default
    ((-2.1, 2.1, -2.1, 2.1), False),
    ((-2.0625, -2.0625 + (66 + 7e-10) / 16, -2.0625, 2.0625), False),
    ((-2, 0.5, -2, 2), True),  # nodes of X on the edge x = 0.5
])
def test_solver_refuses_a_box_that_cuts_x(bounds, cuts):
    # the relaxation holds the box's edge at its start value, so a box
    # that cuts X gives a wrong field: 0.354 at the origin, where the
    # solution is 0 up to the grid's error
    phi = obstacle_from_expression("log(abs(z1))", 1)
    solve = lambda: grid_obstacle_solver(planar_annulus_pair(), phi,
                                         bounds=bounds, spacing=1.0 / 16)
    if cuts:
        with pytest.raises(ConfigurationError, match=r"grid box \(-2, 0\.5, "
                           r"-2, 2\) cuts X: a node of X lies on its edge"):
            solve()
    else:
        values = solve().interpolate(np.array([0.0, 0.25, 1.5]))
        assert np.max(np.abs(values - [0.0, 0.0, np.log(1.5)])) <= 0.02


def test_relaxation_at_the_sweep_cap_raises(monkeypatch):
    monkeypatch.setattr(oracles, "MAX_CYCLES", 2)
    phi = obstacle_from_expression("log(abs(z1))", 1)
    with pytest.raises(EvaluationError, match="not converged after 2 cycles"):
        grid_obstacle_solver(planar_annulus_pair(), phi,
                             **annulus_grid_config())


def test_relaxation_that_stalls_off_the_fixed_point_raises(monkeypatch):
    # with no sweeps the coarse corrections are zero, so the first cycle
    # changes nothing and stops where it started, at the obstacle
    monkeypatch.setattr(oracles, "_sweep", lambda *args: None)
    phi = obstacle_from_expression("log(abs(z1))", 1)
    with pytest.raises(EvaluationError, match="stalled after 1 cycles"):
        grid_obstacle_solver(planar_annulus_pair(), phi,
                             **annulus_grid_config())


def test_relaxation_is_below_initial_cap():
    pair = planar_annulus_pair()
    phi = obstacle_from_expression("log(abs(z1))", 1)
    field = grid_obstacle_solver(pair, phi, **annulus_grid_config())
    inside_w = field.mask == 2
    xs, ys = field.points()
    zz = xs[None, :] + 1j * ys[:, None]
    assert np.all(field.values[inside_w]
                  <= np.log(np.abs(zz[inside_w])) + 1e-10)


COEFFICIENT = st.floats(-3.0, 3.0, allow_nan=False)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(a=COEFFICIENT, b=COEFFICIENT, c=COEFFICIENT, d=COEFFICIENT)
def test_field_is_below_phi_on_w_and_below_top_on_x(a, b, c, d):
    # the largest subextension is at most phi on W and, by the maximum
    # principle, at most top = max of phi over the W nodes on all of X
    pair = planar_annulus_pair()
    phi = obstacle_from_expression(
        f"{a!r} + {b!r} * re(z1) + {c!r} * im(z1) + {d!r} * log(abs(z1))", 1)
    cfg = annulus_grid_config(spacing=1.0 / 16)
    field = grid_obstacle_solver(pair, phi, **cfg)
    _, _, mask, obst, top = oracles._build_grid(pair, phi, cfg["bounds"],
                                                field.h)
    assert np.array_equal(mask, field.mask)
    inside_w = mask == 2
    assert np.all(field.values[inside_w] <= obst[inside_w] + 1e-12)
    assert np.all(field.values[mask > 0] <= top + 1e-12)


def test_solver_rejects_higher_dimensions():
    from discenv.domains import shell_pair
    phi = obstacle_from_expression("re(z1)", 2)
    with pytest.raises(UnsupportedDimensionError):
        grid_obstacle_solver(shell_pair(2), phi, **annulus_grid_config())


def test_field_interpolation_and_csv_export(tmp_path):
    pair = planar_annulus_pair()
    phi = obstacle_from_expression("re(z1)", 1)
    field = grid_obstacle_solver(pair, phi, **annulus_grid_config())
    with pytest.raises(EvaluationError):
        field.interpolate(np.array([5.0 + 0.0j]))
    out = tmp_path / "field.csv"
    field.to_csv(out)
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "value", "mask"]
    ny, nx = field.values.shape
    assert len(rows) == 1 + ny * nx


def test_csv_export_matches_the_per_node_rows(tmp_path):
    # signed zero, the smallest subnormal, a float repr switches to
    # exponent form, infinities, and grids of one row and one column
    cases = [
        ([[0.1, -2.0 / 3, 1e-300], [np.pi, 0.0, -1.5e17]],
         [[0, 1, 2], [2, 1, 0]]),
        ([[-0.0, 5e-324, 1e22], [np.inf, -np.inf, 1e16]],
         [[2, 2, 1], [0, 0, 2]]),
        ([[-0.0, 5e-324, 1e22, np.inf]], [[1, 2, 2, 0]]),
        ([[1e22], [-0.0], [5e-324], [np.inf]], [[0], [0], [0], [0]]),
    ]
    for values, mask in cases:
        values = np.array(values)
        mask = np.array(mask, dtype=np.int8)
        field = oracles.GridField(-0.3, 1.0 / 3, 0.1, values, mask)
        field.to_csv(tmp_path / "field.csv")
        expected = tmp_path / "expected.csv"
        xs, ys = field.points()
        with open(expected, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y", "value", "mask"])
            for iy, y in enumerate(ys):
                for ix, x in enumerate(xs):
                    writer.writerow([repr(float(x)), repr(float(y)),
                                     repr(float(values[iy, ix])),
                                     int(mask[iy, ix])])
        assert (tmp_path / "field.csv").read_bytes() \
            == expected.read_bytes()


# ---------------------------------------------------------------------------
# submean_check
# ---------------------------------------------------------------------------

def test_pluriharmonic_function_passes():
    u = lambda pts: np.real(pts[..., 0])
    margin = lambda pts: 10.0 - np.abs(pts[..., 0])
    rng = np.random.default_rng(0)
    probes = (rng.standard_normal((20, 2))
              + 1j * rng.standard_normal((20, 2)))
    report = submean_check(u, margin, probes, radii=[0.1, 0.5])
    assert report.passed
    assert report.max_violation <= 1e-12
    assert report.checked > 0


def test_strictly_superharmonic_function_fails_everywhere():
    u = lambda pts: -np.sum(np.abs(pts) ** 2, axis=-1)
    margin = lambda pts: 10.0 - np.abs(pts[..., 0])
    rng = np.random.default_rng(1)
    probes = (rng.standard_normal((10, 2))
              + 1j * rng.standard_normal((10, 2)))
    report = submean_check(u, margin, probes, radii=[0.5])
    assert not report.passed
    assert all(v > 0 for _, _, v in report.details)


def test_known_subharmonic_function_passes_on_disc():
    u = lambda pts: np.maximum(
        np.log(np.maximum(np.abs(pts[..., 0]), 1e-300)), 0.0)
    margin = lambda pts: 2.0 - np.abs(pts[..., 0])
    rng = np.random.default_rng(2)
    raw = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
    probes = (raw * 1.8 * rng.uniform(0, 1, 1000) / np.abs(raw))[:, None]
    report = submean_check(u, margin, probes, radii=[0.05, 0.15], tol=1e-3)
    assert report.passed
    assert report.checked >= 1000


def test_probe_circles_exiting_region_are_skipped():
    u = lambda pts: np.real(pts[..., 0])
    margin = lambda pts: 1.0 - np.abs(pts[..., 0])
    probes = np.array([[0.95 + 0.0j]])
    report = submean_check(u, margin, probes, radii=[0.5])
    assert report.checked == 0
    assert report.skipped == 1
    # inside the region, but through a node where u is not finite
    u_inf = lambda pts: np.where(pts[..., 0] == 0.5, np.inf,
                                 np.real(pts[..., 0]))
    report = submean_check(u_inf, margin, np.array([[0.0j]]), radii=[0.5])
    assert (report.checked, report.skipped) == (0, 1)
