"""Obstacle expression grammar and JSON config validation."""

import json

import numpy as np
import pytest

from discenv import cli
from discenv.config import build_families, build_pair, parse_point, \
    validate_config
from discenv.errors import ConfigurationError
from discenv.expressions import compile_expression
from discenv.families import BlaschkeFamily, PolynomialFamily, VerticalFamily


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------

def test_basic_arithmetic_and_calls():
    fn = compile_expression("re(z1) + 2 * im(z2) - abs(z1)", 2)
    pts = np.array([[1.0 + 2.0j, 3.0 - 1.0j]])
    assert abs(fn(pts)[0] - (1.0 - 2.0 - np.sqrt(5.0))) <= 1e-12


def test_max_and_log():
    fn = compile_expression("max(log(abs(z1)), 0.0)", 1)
    pts = np.array([[0.5 + 0.0j], [2.0 + 0.0j]])
    out = fn(pts)
    assert abs(out[0]) <= 1e-12
    assert abs(out[1] - np.log(2.0)) <= 1e-12


def test_unary_minus():
    fn = compile_expression("-abs(z1)", 1)
    assert abs(fn(np.array([[3.0 + 4.0j]]))[0] + 5.0) <= 1e-12


@pytest.mark.parametrize("text", [
    "z1 / z2",                      # division not in the grammar
    "z1 ** 2",                      # no powers
    "__import__('os')",             # no scripting
    "foo(z1)",                      # unknown call
    "max(z1, z2, z1)",              # wrong arity
    "z3",                           # out of range for C^2
    "q1",                           # unknown name
    "'text'",                       # non-numeric constant
    "z1 if z2 else z1",             # no control flow
])
def test_rejected_expressions(text):
    with pytest.raises(ConfigurationError):
        compile_expression(text, 2)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def minimal_config(**overrides):
    cfg = {"experiment": "t", "pair": {"variant": "planar_annulus"}}
    cfg.update(overrides)
    return cfg


def test_defaults_are_filled():
    cfg = validate_config(minimal_config())
    assert cfg["quadrature_m"] == 512
    assert cfg["seed"] == 0
    assert cfg["starts"] == 8


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigurationError, match="unknown keys"):
        validate_config(minimal_config(bogus=1))


def test_unknown_pair_variant_rejected():
    with pytest.raises(ConfigurationError, match="variant"):
        validate_config(minimal_config(pair={"variant": "cube"}))


def test_unknown_family_kind_rejected():
    with pytest.raises(ConfigurationError, match="family kind"):
        validate_config(minimal_config(families=[{"kind": "spline"}]))


@pytest.mark.parametrize("family, key", [
    ({"kind": "constant", "degree": 3}, "degree"),
    ({"kind": "constant", "s_range": [1, 2]}, "s_range"),
    ({"kind": "shell", "zeros": 2}, "zeros"),
    ({"kind": "vertical", "zeros": 5}, "zeros"),
    ({"kind": "vertical", "scale": 9}, "scale"),
    ({"kind": "polynomial", "winding": 2}, "winding"),
    ({"kind": "blaschke", "degree": 2}, "degree"),
])
def test_family_key_of_another_kind_rejected(family, key):
    with pytest.raises(ConfigurationError,
                       match=f"unknown keys \\['{key}'\\] for kind"):
        validate_config(minimal_config(families=[family]))


@pytest.mark.parametrize("family", [{"kind": "constant", "degree": 3},
                                    {"kind": "vertical", "zeros": 5}])
def test_family_key_of_another_kind_exits_two(tmp_path, capsys, family):
    cfg = minimal_config(points=[[[1.5, 0.0]]], families=[family])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert cli.main(["envelope", "--config", str(path), "--out", str(out),
                     "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config.families[0]: unknown keys")
    assert err.count("\n") == 1
    assert not out.exists()


def test_unhashable_family_kind_rejected():
    with pytest.raises(ConfigurationError, match="family kind"):
        validate_config(minimal_config(families=[{"kind": ["constant"]}]))


def test_obstacle_needs_exactly_one_source():
    with pytest.raises(ConfigurationError):
        validate_config(minimal_config(obstacle={}))
    with pytest.raises(ConfigurationError):
        validate_config(minimal_config(
            obstacle={"expr": "re(z1)", "builtin": "log_abs"}))


def test_partial_eps_range_checked():
    for cfg in (minimal_config(partial_eps=[0.5]),
                minimal_config(obstacle={"builtin": "log_abs",
                                         "lower_bound": -1.0}),
                minimal_config(obstacle={"builtin": "log_abs",
                                         "upper_bound": 0.0})):
        with pytest.raises(ConfigurationError, match="unknown keys"):
            validate_config(cfg)


@pytest.mark.parametrize("overrides, path", [
    ({"families": [{"kind": "polynomial", "degree": "two"}]}, "degree"),
    ({"families": [{"kind": "polynomial", "degree": 0}]}, "degree"),
    ({"families": [{"kind": "polynomial", "scale": "wide"}]}, "scale"),
    ({"families": [{"kind": "blaschke", "zeros": 1.5}]}, "zeros"),
    ({"families": [{"kind": "vertical", "winding": 0}]}, "winding"),
    ({"families": [{"kind": "blaschke", "s_range": [2.0]}]}, "s_range"),
    ({"families": [{"kind": "blaschke", "s_range": [2.0, 1.0]}]}, "s_range"),
    ({"families": [{"kind": "vertical", "s_range": [0.0, 1.0]}]}, "s_range"),
    ({"families": [{"kind": "vertical", "s_range": ["a", 1.0]}]}, "s_range"),
    ({"families": [{"kind": "blaschke", "s_range": 1.0}]}, "s_range"),
    ({"penalty_weight": "big"}, "penalty_weight"),
    ({"penalty_weight": 0}, "penalty_weight"),
    ({"oracle": {"kind": "grid", "caps": "abc"}}, "oracle.caps"),
    ({"oracle": {"kind": "grid", "caps": []}}, "oracle.caps"),
    ({"oracle": {"kind": "grid", "caps": [3.0, 1.0]}}, "oracle.caps"),
    ({"oracle": {"kind": "grid", "caps": [1.0, "x"]}}, "oracle.caps"),
    ({"oracle": {"kind": "grid", "bounds": [1, 2]}}, "oracle.bounds"),
    ({"oracle": {"kind": "grid", "bounds": [1, 0, -1, 1]}}, "oracle.bounds"),
    ({"oracle": {"kind": "grid", "bounds": [-1, 1, 1, 1]}}, "oracle.bounds"),
    ({"oracle": {"kind": "grid", "bounds": [-1, 1, "a", 1]}},
     "oracle.bounds"),
    ({"oracle": {"kind": "grid", "spacing": "x"}}, "oracle.spacing"),
    ({"oracle": {"kind": "grid", "spacing": -0.125}}, "oracle.spacing"),
    ({"oracle": {"kind": "grid", "spacing": 0}}, "oracle.spacing"),
    ({"homotopy": {"steps": "x"}}, "homotopy.steps"),
    ({"homotopy": {"steps": 0}}, "homotopy.steps"),
    ({"homotopy": {"winding": 1.5}}, "homotopy.winding"),
    ({"homotopy": {"s": "x"}}, "homotopy.s"),
    ({"cesaro": {"m": "x"}}, "cesaro.m"),
    ({"cesaro": {"m_w": 0}}, "cesaro.m_w"),
    ({"cesaro": {"j_values": "x"}}, "cesaro.j_values"),
    ({"cesaro": {"j_values": [8, -1]}}, "cesaro.j_values"),
    ({"cesaro": {"amplitude": "x"}}, "cesaro.amplitude"),
    ({"quadrature_m": 100}, "quadrature_m"),
    ({"quadrature_m": 4}, "quadrature_m"),
    ({"points": [[["a", 0]]]}, "points"),
    ({"points": [[[None, 0]]]}, "points"),
    ({"obstacle": {"expr": 5}}, "obstacle.expr"),
    ({"obstacle": {"builtin": "log_abs", "rotation_invariant": "no"}},
     "obstacle.rotation_invariant"),
    ({"pair": {"variant": "counterexample", "delta": "x"}}, "pair.delta"),
    ({"pair": {"variant": "counterexample", "tau": "x"}}, "pair.tau"),
    ({"pair": {"variant": "counterexample", "rho_u": "x"}}, "pair.rho_u"),
    ({"pair": {"variant": "counterexample", "eps_moll": None}},
     "pair.eps_moll"),
    ({"pair": {"variant": "hartogs", "base_radius": "x"}},
     "pair.base_radius"),
    ({"tolerances": {"gap": "x"}}, "tolerances.gap"),
    ({"tolerances": {"gap": float("nan")}}, "tolerances.gap"),
    ({"oracle": {"kind": "grid", "spacing": float("inf")}},
     "oracle.spacing"),
    ({"tolerances": {"gap": True}}, "tolerances.gap"),
    ({"starts": True}, "starts"),
    ({"points": [[[True, 0]]]}, "points"),
    ({"homotopy": {"steps": True}}, "homotopy.steps"),
    ({"cesaro": {"j_values": [8, True]}}, "cesaro.j_values"),
    ({"starts": 0}, "starts"),
    ({"budget": 0}, "budget"),
    ({"budget": -3}, "budget"),
])
def test_malformed_values_rejected(overrides, path):
    with pytest.raises(ConfigurationError, match=path):
        validate_config(minimal_config(**overrides))


def test_parse_point_shape():
    p = parse_point([[0.5, -0.25], [0.0, 1.0]], 2)
    assert np.array_equal(p, np.array([0.5 - 0.25j, 1.0j]))
    with pytest.raises(ConfigurationError):
        parse_point([[0.5, 0.0]], 2)
    with pytest.raises(ConfigurationError):
        parse_point([[0.5]], 1)


def test_build_pair_variants():
    w, x, phi, hp = build_pair(validate_config(minimal_config()))
    assert w.n == 1 and x.n == 1 and phi is None and hp is None
    cfg = validate_config(minimal_config(
        pair={"variant": "hartogs", "n": 2, "r": 0.25, "R": 1.0}))
    w, x, phi, hp = build_pair(cfg)
    assert hp is not None and hp.n == 2
    assert hp.radii(np.array([0.0j])) == (0.25, 1.0)
    cfg = validate_config(minimal_config(pair={"variant": "counterexample"}))
    w, x, phi, hp = build_pair(cfg)
    assert phi is not None and w.n == 2


def test_hartogs_radius_expressions():
    cfg = validate_config(minimal_config(
        pair={"variant": "hartogs", "n": 2, "r": 0.25,
              "R": "1.0 - 0.5 * abs(z1)"}))
    _, _, _, hp = build_pair(cfg)
    r, R = hp.radii(np.array([0.5 + 0.0j]))
    assert abs(R - 0.75) <= 1e-12


def test_build_families_from_config():
    cfg = validate_config(minimal_config(families=[
        {"kind": "constant"},
        {"kind": "blaschke", "zeros": 2, "s_range": [1.0, 2.0]},
        {"kind": "polynomial", "degree": 3},
    ]))
    fams = build_families(cfg, np.array([1.5 + 0.0j]))
    assert [f.name for f in fams] == ["constant", "blaschke", "polynomial"]
    with pytest.raises(ConfigurationError):
        build_families(validate_config(minimal_config()), np.array([0.0j]))


def test_build_families_leaves_unset_keys_to_the_family_defaults():
    centre = np.array([0.0j])
    cfg = validate_config(minimal_config(families=[
        {"kind": "polynomial"},
        {"kind": "vertical"},
        {"kind": "blaschke"},
        {"kind": "polynomial", "degree": 3, "scale": 0.2},
        {"kind": "vertical", "winding": 2, "s_range": [0.2, 0.5]},
        {"kind": "blaschke", "zeros": 3, "s_range": [1.5, 3.0]},
    ]))
    fams = build_families(cfg, centre)
    defaults = [PolynomialFamily(centre), VerticalFamily(centre),
                BlaschkeFamily(centre)]
    attrs = {"polynomial": ("degree", "scale"), "vertical": ("k", "s_range"),
             "blaschke": ("k", "s_range")}
    for got, ref in zip(fams, defaults):
        for a in attrs[ref.name]:
            assert getattr(got, a) == getattr(ref, a)
    assert (fams[3].degree, fams[3].scale) == (3, 0.2)
    assert (fams[4].k, fams[4].s_range) == (2, (0.2, 0.5))
    assert (fams[5].k, fams[5].s_range) == (3, (1.5, 3.0))
