"""Obstacle expression grammar and JSON config validation."""

import ast
import contextlib
import json
import pathlib
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from discenv import cli, config, expressions
from discenv.config import build_families, build_obstacle, build_pair, \
    parse_point, validate_config
from discenv.envelope import EnvelopeRequest
from discenv.errors import ConfigurationError, DiscenvError, \
    PreconditionError
from discenv.expressions import obstacle_from_expression
from discenv.families import BlaschkeFamily, ConstantFamily, \
    PolynomialFamily, VerticalFamily


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------

def test_basic_arithmetic_and_calls():
    fn = obstacle_from_expression("re(z1) + 2 * im(z2) - abs(z1)", 2)
    pts = np.array([[1.0 + 2.0j, 3.0 - 1.0j]])
    assert abs(fn(pts)[0] - (1.0 - 2.0 - np.sqrt(5.0))) <= 1e-12


def test_max_and_log():
    fn = obstacle_from_expression("max(log(abs(z1)), 0.0)", 1)
    pts = np.array([[0.5 + 0.0j], [2.0 + 0.0j]])
    out = fn(pts)
    assert abs(out[0]) <= 1e-12
    assert abs(out[1] - np.log(2.0)) <= 1e-12


def test_unary_minus():
    fn = obstacle_from_expression("-abs(z1)", 1)
    assert abs(fn(np.array([[3.0 + 4.0j]]))[0] + 5.0) <= 1e-12
    # unary plus is the operand itself
    plus = obstacle_from_expression("+re(z1)", 1)
    assert plus(np.array([[3.0 + 4.0j]])) == 3.0


def test_each_distinct_subexpression_is_evaluated_once(monkeypatch):
    calls = []

    def counting_abs(x):
        calls.append(x)
        return np.abs(x)

    monkeypatch.setitem(expressions._FUNCS, "abs", counting_abs)
    fn = obstacle_from_expression("re(z1) + abs(z2)*abs(z2)", 2)
    pts = np.array([[0.5 + 1.0j, 0.3 - 0.4j], [-2.0 + 0.0j, 1.5 + 2.0j]])
    out = fn(pts)
    assert len(calls) == 1
    a = np.abs(pts[:, 1])
    assert out.tobytes() == (pts[:, 0].real + a * a).tobytes()


def frames():
    """Python frames on the stack of the caller."""
    frame, count = sys._getframe(1), 0
    while frame is not None:
        frame, count = frame.f_back, count + 1
    return count


def test_deepest_expression_evaluates_a_few_frames_below_the_limit():
    """A level is an expression node: ``z1`` under _MAX_DEPTH - 1 unary
    minuses is the deepest accepted, one minus more is rejected."""
    text = "-" * (expressions._MAX_DEPTH - 1) + "z1"
    assert expressions._depth(ast.parse(text, mode="eval")) \
        == expressions._MAX_DEPTH
    with pytest.raises(ConfigurationError, match="nested deeper than"):
        obstacle_from_expression("-" + text, 1)
    fn = obstacle_from_expression(text, 1)
    pts = np.array([[1.5 - 2.0j]])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frames() + 10)
    try:
        out = fn(pts)
    finally:
        sys.setrecursionlimit(limit)
    assert out.tolist() == [-1.5]


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
    "True",                         # booleans are not numbers
    "False",
    "9" * 400,                      # too large for a float
    "z" + "9" * 5000,               # index past the integer digit limit
    "-" * 3000 + "z1",              # past the parser's recursion limit
    "z1" + " + z1" * 200,           # nested past the depth limit
    "z1" + " + z1" * 1200,
    "1e400",                        # a float literal past the float range
    "re(z1) - 1e400",
    "~z1",                          # no bitwise operators
    "abs(x=z1)",                    # no keyword arguments
    "abs(z1, z2)",                  # one argument
])
def test_rejected_expressions(text):
    with pytest.raises(ConfigurationError):
        obstacle_from_expression(text, 2)


EXPRESSION_TOKENS = ["z1", "z2", "z3", "re(", "abs(", "log(", "max(", "(",
                     ")", ",", " + ", "-", "*", "/", "0.5", "1e999",
                     "9" * 400, "True", "'s'"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=st.one_of(
    st.text(), st.lists(st.sampled_from(EXPRESSION_TOKENS)).map("".join)))
def test_any_text_compiles_or_is_rejected(text):
    try:
        obstacle_from_expression(text, 2)
    except ConfigurationError:
        pass


@pytest.mark.parametrize("text, invariant", [
    ("re(z1) + abs(z2)*abs(z2)", True),
    ("log(abs(z1))", True),                 # no z2 at all
    ("2.5", True),
    ("-log(abs(z2))", True),
    ("re(z1) + re(z2)", False),
    ("z2", False),                          # z2 is the result, read by none
    ("abs(z2) + re(z2)", False),
    # invariant, but the rule is sufficient, not necessary
    ("re(z2)*re(z2) + im(z2)*im(z2)", False),
])
def test_rotation_invariance_is_read_off_the_tape(text, invariant):
    assert obstacle_from_expression(text, 2).rotation_invariant_last \
        is invariant


#: Expressions of the grammar in z1 and z2; abs(z2) is a leaf, so that
#: many of those that read z2 derive as invariant
GRAMMAR_EXPRESSIONS = st.recursive(
    st.sampled_from(["z1", "z2", "abs(z2)", "0.5", "2", "1.5"]),
    lambda inner: st.one_of(
        st.builds("{}({})".format,
                  st.sampled_from(["re", "im", "abs", "log"]), inner),
        st.builds("max({}, {})".format, inner, inner),
        st.builds("({} {} {})".format, inner,
                  st.sampled_from(["+", "-", "*"]), inner),
        inner.map("-{}".format)),
    max_leaves=12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=GRAMMAR_EXPRESSIONS, theta=st.floats(0.0, 2 * np.pi))
def test_a_derived_rotation_invariant_obstacle_is_invariant(text, theta):
    """Where the pass says invariant, turning z2 by e^{i theta} leaves
    phi as it was, up to rounding, or both values are not finite."""
    phi = obstacle_from_expression(text, 2)
    if not phi.rotation_invariant_last:
        return
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.5, 1.5, (8, 2)) + 1j * rng.uniform(-1.5, 1.5, (8, 2))
    a, b = phi(pts), phi(pts * [1.0, np.exp(1j * theta)])
    off = ~np.isfinite(a) & ~np.isfinite(b)
    with np.errstate(invalid="ignore"):  # inf - inf where both are off
        assert np.all(off | (np.abs(a - b) <= 1e-12 * (1.0 + np.abs(a))))


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


@pytest.mark.parametrize("overrides, message", [
    ({"pair": {"variant": "planar_annulus", "delta": 0.2}},
     "config.pair: unknown keys ['delta'] for variant 'planar_annulus'"),
    ({"pair": {"variant": "planar_annulus", "delta": 0.2, "n": 7}},
     "config.pair: unknown keys ['delta', 'n'] for variant"),
    ({"pair": {"variant": "shell", "r": 0.5}},
     "config.pair: unknown keys ['r'] for variant 'shell'"),
    ({"pair": {"variant": "counterexample", "n": 2}},
     "config.pair: unknown keys ['n'] for variant 'counterexample'"),
    ({"pair": {"variant": "hartogs", "tau": 0.05}},
     "config.pair: unknown keys ['tau'] for variant 'hartogs'"),
    ({"oracle": {"kind": "closed_form", "expr": "re(z1)", "spacing": 0.5}},
     "config.oracle: unknown keys ['spacing'] for kind 'closed_form'"),
    ({"oracle": {"kind": "kiselman", "bounds": [-1, 1, -1, 1]}},
     "config.oracle: unknown keys ['bounds'] for kind 'kiselman'"),
    ({"oracle": {"kind": "grid", "expr": "nonsense(("}},
     "config.oracle: unknown keys ['expr'] for kind 'grid'"),
    # the grid oracle's box is the solver's, which covers X
    ({"oracle": {"kind": "grid", "bounds": [-2, 0.5, -2, 2]}},
     "config.oracle: unknown keys ['bounds'] for kind 'grid'"),
])
def test_pair_and_oracle_keys_of_another_kind_rejected(overrides, message):
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        validate_config(minimal_config(**overrides))


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
    # the grid oracle has no caps: any caps value is an unknown key
    ({"oracle": {"kind": "grid", "caps": "abc"}}, "oracle: unknown keys"),
    ({"oracle": {"kind": "grid", "caps": []}}, "oracle: unknown keys"),
    ({"oracle": {"kind": "grid", "caps": [1.0, 2.0]}},
     "oracle: unknown keys"),
    ({"oracle": {"kind": "grid", "caps": [2.0, 3.0, 5.0, 9.0]}},
     "oracle: unknown keys"),
    # and no box: any bounds value is an unknown key
    ({"oracle": {"kind": "grid", "bounds": [1, 2]}},
     r"oracle: unknown keys \['bounds'\] for kind 'grid'"),
    # constants that are not finite floats
    ({"oracle": {"kind": "closed_form", "expr": "re(z1) - 1e400"}},
     "oracle.expr"),
    ({"oracle": {"kind": "closed_form", "expr": "1e400"}}, "oracle.expr"),
    ({"pair": {"variant": "hartogs", "R": "1e400"},
      "points": [[[0.1, 0.0], [0.0, 0.0]]]}, "pair.R"),
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
    ({"families": 5}, "families"),
    ({"homotopy": {"s": 0.5}}, "homotopy.z_prime"),
    # unhashable names
    ({"pair": {"variant": ["x"]}}, "pair.variant"),
    ({"oracle": {"kind": {}}}, "oracle.kind"),
    ({"obstacle": {"builtin": [1]}}, "obstacle.builtin"),
    # a winding, degree or zero count k on m nodes needs k < m/2
    ({"quadrature_m": 64, "families": [{"kind": "vertical", "winding": 64}]},
     r"families\[0\]\.winding"),
    ({"quadrature_m": 8, "families": [{"kind": "vertical", "winding": 4}]},
     r"families\[0\]\.winding"),
    ({"quadrature_m": 8, "families": [{"kind": "polynomial", "degree": 4}]},
     r"families\[0\]\.degree"),
    ({"quadrature_m": 8, "families": [{"kind": "blaschke", "zeros": 4}]},
     r"families\[0\]\.zeros"),
    ({"quadrature_m": 8, "homotopy": {"z_prime": [[0.1, 0.0]],
                                      "winding": 4}}, "homotopy.winding"),
    # an empty Hartogs fiber
    ({"pair": {"variant": "hartogs", "r": 0.9, "R": 0.5}}, "pair.r"),
    ({"pair": {"variant": "hartogs", "r": 0.5, "R": 0.5}}, "pair.r"),
    # a radius left out is the builder's default, r = 0.25 or R = 1.0
    ({"pair": {"variant": "hartogs", "r": 1.5}}, "pair.r"),
    ({"pair": {"variant": "hartogs", "R": 0.2}}, "pair.r"),
    # an int too large for a float
    ({"pair": {"variant": "hartogs", "r": 10 ** 400}}, "pair.r"),
    ({"oracle": {"kind": "grid", "spacing": 10 ** 400}}, "oracle.spacing"),
    # powers of two beyond the node cap
    ({"quadrature_m": 2 ** 70}, "quadrature_m"),
    ({"quadrature_m": 2 ** 1100}, "quadrature_m"),
    # a size left out is checked at its default: degree 4 on 8 nodes
    ({"quadrature_m": 8, "families": [{"kind": "polynomial"}]},
     r"families\[0\]\.degree"),
    # more steps than the cap, and more than np.linspace can allocate
    ({"homotopy": {"steps": 2 ** 16 + 1}}, "homotopy.steps"),
    ({"homotopy": {"steps": 10 ** 30}}, "homotopy.steps"),
    ({"starts": 10 ** 12}, "starts"),
    # more grid nodes per side at spacing / 2 on the solver's box than the
    # cap: 4098 at the spacing just below 8.25 / 4095
    ({"oracle": {"kind": "grid", "spacing": 1e-300}}, "oracle.spacing"),
    ({"oracle": {"kind": "grid", "spacing": 2e-3}}, "oracle.spacing"),
    ({"oracle": {"kind": "grid", "spacing": 0.002014}},
     "oracle.spacing: expected at most 4096 nodes per side at spacing / 2, "
     "got 4098"),
    ({"oracle": {"kind": "grid", "spacing": True}}, "oracle.spacing"),
    # Cesaro sizes: powers of two a DiscLoop and its base disc take, a
    # capped sample count, and orders the w-grid resolves
    ({"cesaro": {"m": 48}}, "cesaro.m"),
    ({"cesaro": {"m": 4}}, "cesaro.m"),
    ({"cesaro": {"m_w": 4, "j_values": [0]}}, "cesaro.m_w"),
    ({"cesaro": {"m": 2 ** 62}}, "cesaro.m"),
    ({"cesaro": {"m_w": 2 ** 100}}, "cesaro.m_w"),
    ({"cesaro": {"m": 8, "m_w": 2 ** 18}}, "cesaro.m_w"),
    ({"cesaro": {"m_w": 64, "j_values": [8, 16]}},
     r"cesaro\.j_values\[1\]"),
    ({"cesaro": {"m_w": 512}}, r"cesaro\.j_values\[4\]"),
    # a negative gap fails every compare that has an oracle
    ({"tolerances": {"gap": -1.0}},
     r"tolerances\.gap: expected a number >= 0"),
    # a closed form that is not a string, and oracles that do not fit
    # the pair, the obstacle or the points
    ({"oracle": {"kind": "closed_form", "expr": 8}},
     r"oracle\.expr: expected a string"),
    ({"oracle": {"kind": "kiselman"}}, "config.oracle: kiselman"),
    ({"pair": {"variant": "hartogs"},
      "obstacle": {"expr": "re(z1) + re(z2)"},
      "oracle": {"kind": "kiselman"}}, "config.oracle: kiselman"),
    ({"pair": {"variant": "shell"}, "oracle": {"kind": "grid"}},
     "config.oracle: grid"),
    # an empty fibre of expression radii, where the Kiselman oracle has no
    # infimum, and a radius constant that is not a finite float
    ({"pair": {"variant": "hartogs", "r": "0.5 + 0 * abs(z1)",
               "R": "0.4 + 0 * abs(z1)"},
      "obstacle": {"expr": "abs(z2)", "rotation_invariant": True},
      "points": [[[0.1, 0.0], [0.0, 0.0]]], "oracle": {"kind": "kiselman"}},
     r"points\[0\]: empty fiber: r = 0\.5 >= R = 0\.4"),
    ({"pair": {"variant": "hartogs", "r": "-1e400"},
      "points": [[[0.1, 0.0], [0.0, 0.0]]]}, "pair.r"),
    # half of the least float spacing is 0: infinitely many nodes
    ({"oracle": {"kind": "grid", "spacing": 5e-324}}, "oracle.spacing"),
])
def test_malformed_values_rejected(overrides, path):
    with pytest.raises(ConfigurationError, match=path):
        validate_config(minimal_config(**overrides))


def test_sizes_below_half_the_nodes_accepted():
    cfg = validate_config(minimal_config(
        quadrature_m=8, homotopy={"z_prime": [[0.1, 0.0]], "winding": 3},
        families=[{"kind": "vertical", "winding": 3},
                  {"kind": "polynomial", "degree": 3},
                  {"kind": "blaschke", "zeros": 3}]))
    assert [f["kind"] for f in cfg["families"]] \
        == ["vertical", "polynomial", "blaschke"]


#: Every key of every block, each offered to every variant and kind
FUZZ_KEYS = {
    "pair": ["variant", "n", "delta", "tau", "rho_u", "eps_moll",
             "base_radius", "r", "R"],
    "obstacle": ["expr", "builtin", "rotation_invariant"],
    "family": ["kind", "degree", "scale", "winding", "zeros", "s_range"],
    "oracle": ["kind", "spacing", "expr"],
    "homotopy": ["z_prime", "s", "winding", "steps"],
    "cesaro": ["m", "m_w", "j_values", "amplitude"],
    "tolerances": ["gap"],
}


@pytest.mark.parametrize("block, rules, kinds", [
    ("pair", config.PAIR_RULES, config.PAIR_VARIANTS),
    ("obstacle", config.OBSTACLE_RULES, None),
    ("family", config.FAMILY_RULES, config.FAMILY_KINDS),
    ("oracle", config.ORACLE_RULES, config.ORACLE_KINDS),
    ("homotopy", config.HOMOTOPY_RULES, None),
    ("cesaro", config.CESARO_RULES, None),
    ("tolerances", config.TOLERANCES_RULES, None),
])
def test_rule_tables_kind_tables_and_fuzz_keys_agree(block, rules, kinds):
    """Each block's rule table names the keys the fuzz test offers and,
    for a block with kinds, its head and the keys of all its kinds."""
    assert set(rules) == set(FUZZ_KEYS[block])
    if kinds is not None:
        head = next(iter(rules))
        assert set(rules) == {head}.union(*(keys for _, keys in
                                            kinds.values()))


def _readme_keys_table():
    """README's "Keys it takes" table as {block: {name: set of keys}}."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    lines = readme.read_text().split("| Block | Name | Keys it takes |\n")[1]
    table, block = {}, None
    for line in lines.splitlines()[1:]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        block = cells[0].strip("`") or block
        keys = set(re.findall(r"`(\w+)`", cells[2]))
        for name in re.findall(r"`(\w+)`", cells[1]):
            table.setdefault(block, {})[name] = keys
    return table


def test_readme_keys_table_matches_the_kind_tables():
    """README names every pair variant, oracle kind and family kind with
    exactly the keys that its kind table gives it."""
    tables = {"pair.variant": config.PAIR_VARIANTS,
              "oracle.kind": config.ORACLE_KINDS,
              "families[].kind": config.FAMILY_KINDS}
    assert _readme_keys_table() == {
        block: {name: set(keys) for name, (_, keys) in kinds.items()}
        for block, kinds in tables.items()}


FUZZ_VALUES = st.sampled_from([
    -1, 0, 1, 2, 3, 4, 7, 8, 64, 0.01, 0.05, 0.25, 0.3, 0.5, 0.9, 1.0, 1.5,
    -0.5, 1e300, True, False, None,
    "planar_annulus", "shell", "hartogs", "counterexample", "constant",
    "polynomial", "vertical", "blaschke", "grid", "kiselman", "closed_form",
    "log_abs", "re_first", "re(z1)", "abs(z1) + 0.5", "z2", "nonsense((", "",
    [], [1], [0.25, 1.0], [2.0, 1.0], [-2.0, 2.0, -2.0, 2.0], [[0.1, 0.0]],
    [[0.1, 0.0], [0.0, 0.0]], ["x"], [8, 64], {}, {"kind": "grid"},
])


def _block(name, head=None, names=()):
    """Up to two keys of the block, values from the pool, over ``head`` set
    to one of ``names`` when given (a pool value can replace it)."""
    keys = st.dictionaries(st.sampled_from(FUZZ_KEYS[name]), FUZZ_VALUES,
                           max_size=2)
    if head is None:
        return keys
    return st.builds(lambda value, rest: {head: value, **rest},
                     st.sampled_from(names), keys)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(pair=_block("pair", "variant", ["planar_annulus", "shell", "hartogs",
                                       "counterexample"]),
       optional=st.fixed_dictionaries({}, optional={
           "obstacle": st.one_of(
               _block("obstacle", "builtin", ["log_abs", "re_first"]),
               _block("obstacle", "expr", ["re(z1)", "abs(z1) + 0.5"])),
           "families": st.lists(_block("family", "kind", [
               "constant", "polynomial", "shell", "vertical", "blaschke"]),
               max_size=2),
           "oracle": _block("oracle", "kind",
                            ["kiselman", "grid", "closed_form"]),
           "homotopy": _block("homotopy", "z_prime", [[[0.1, 0.0]]]),
           "cesaro": _block("cesaro"),
           "tolerances": _block("tolerances"),
           "quadrature_m": st.sampled_from([8, 16, 64, 100, 512, True]),
           "points": st.sampled_from([[], [[[0.5, 0.0]]], "x",
                                      [[[0.5, 0.0], [0.0, 0.0]]]]),
       }))
def test_any_config_validates_or_is_rejected(pair, optional):
    """validate_config returns or raises ConfigurationError; on a config it
    returns, building the pair, obstacle and families raises nothing but
    DiscenvError.  No search runs."""
    try:
        cfg = validate_config(minimal_config(pair=pair, **optional))
    except ConfigurationError:
        return
    try:
        n = build_pair(cfg)[1].n
    except DiscenvError:
        n = 2
    with contextlib.suppress(DiscenvError):
        build_obstacle(cfg, n)
    with contextlib.suppress(DiscenvError):
        build_families(cfg, np.zeros(n, dtype=complex))


def test_parse_point_shape():
    p = parse_point([[0.5, -0.25], [0.0, 1.0]], 2)
    assert np.array_equal(p, np.array([0.5 - 0.25j, 1.0j]))
    with pytest.raises(ConfigurationError):
        parse_point([[0.5, 0.0]], 2)
    with pytest.raises(ConfigurationError):
        parse_point([[0.5]], 1)


#: Each pair variant's config block, and the radius of the ball or disc
#: that bounds each coordinate of its X
POINT_PAIRS = st.sampled_from([
    ({"variant": "planar_annulus"}, 2.0), ({"variant": "shell"}, 4.0),
    ({"variant": "shell", "n": 3}, 4.0), ({"variant": "counterexample"}, 1.0),
    ({"variant": "hartogs"}, 1.0), ({"variant": "hartogs", "n": 3}, 1.0)])
#: A coordinate's real or imaginary part, as a share of that radius: in
#: and out of X, and on its boundary
POINT_PARTS = st.one_of(st.floats(-1.3, 1.3),
                        st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0]))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_load_and_envelope_request_refuse_the_same_points(data):
    """A one-point config is refused at load, at its point, exactly when
    an EnvelopeRequest at that point finds it outside X."""
    block, size = data.draw(POINT_PAIRS)
    w, x_spec = build_pair(minimal_config(pair=block))[:2]
    coords = data.draw(st.lists(st.tuples(POINT_PARTS, POINT_PARTS),
                                min_size=x_spec.n, max_size=x_spec.n))
    point = [[size * re, size * im] for re, im in coords]
    x = parse_point(point, x_spec.n)
    try:
        EnvelopeRequest(pair=(w, x_spec), phi=None, x=x,
                        families=[ConstantFamily(x)])
        outside = False
    except PreconditionError:
        outside = True
    if outside:
        with pytest.raises(ConfigurationError,
                           match=r"^config\.points\[0\]: centre .* lies "
                                 r"outside X$"):
            validate_config(minimal_config(pair=block, points=[point]))
    else:
        validate_config(minimal_config(pair=block, points=[point]))


def test_build_pair_variants():
    cfg = validate_config(minimal_config())
    w, x, phi, hp = build_pair(cfg)
    assert w.n == 1 and x.n == 1 and phi is None and hp is None
    assert build_obstacle(cfg, 1) is None  # no obstacle block
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
