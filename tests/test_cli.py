"""End-to-end runs of the command line interface."""

import collections
import contextlib
import csv
import io
import json
import os
import pathlib
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from discenv import cli, config
from discenv.cli import main

ANNULUS_CONFIG = {
    "experiment": "annulus-closed-form",
    "pair": {"variant": "planar_annulus"},
    "obstacle": {"builtin": "log_abs"},
    "points": [[[0.5, 0.0]], [[1.5, 0.0]]],
    "families": [
        {"kind": "constant"},
        {"kind": "blaschke", "zeros": 1, "s_range": [1.0, 2.0]},
    ],
    "quadrature_m": 256,
    "starts": 4,
    "budget": 300,
    "oracle": {"kind": "closed_form", "expr": "max(log(abs(z1)), 0.0)"},
    "tolerances": {"gap": 0.02},
}


#: a point of C^2 inside X of both the Hartogs and the counterexample pair
C2_POINT = [[[0.5, 0.0], [0.0, 0.0]]]
#: a point in W of the default Hartogs pair (r = 1/4, R = 1)
W_POINT = [[0.1, 0.0], [0.5, 0.0]]
KISELMAN_OBSTACLE = {"expr": "re(z1) + abs(z2) * abs(z2)",
                     "rotation_invariant": True}
#: expression radii whose fibre is empty: a Kiselman oracle has no
#: infimum at the point, which every subcommand refuses at load
EMPTY_FIBRE = {"pair": {"variant": "hartogs", "r": "0.5 + 0 * abs(z1)",
                        "R": "0.4 + 0 * abs(z1)"},
               "points": [[[0.1, 0.0], [0.0, 0.0]]],
               "obstacle": KISELMAN_OBSTACLE, "oracle": {"kind": "kiselman"}}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(args):
    return main([a if isinstance(a, str) else str(a) for a in args])


def read_rows(outdir):
    with open(os.path.join(outdir, "results.csv"), newline="") as fh:
        return list(csv.DictReader(fh))


def test_compare_matches_closed_form(tmp_path):
    cfg_path = write_config(tmp_path, ANNULUS_CONFIG)
    out = tmp_path / "run"
    assert run(["compare", "--config", cfg_path, "--out", out,
                "--quiet"]) == 0
    rows = read_rows(out)
    assert len(rows) == 2
    for row, truth in zip(rows, [0.0, np.log(1.5)]):
        assert abs(float(row["envelope"]) - truth) <= 2e-2
        assert abs(float(row["oracle"]) - truth) <= 1e-12
        assert row["feasible"] == "1"
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is True
    assert report["metadata"]["seed"] == 0


@pytest.mark.parametrize("command", ["envelope", "compare", "oracle"])
def test_point_subcommands_print_one_line_per_point(tmp_path, capsys,
                                                    command):
    out = tmp_path / "run"
    assert run([command, "--config", write_config(tmp_path, ANNULUS_CONFIG),
                "--out", out]) == 0
    lines = []
    for row in read_rows(out):
        oracle = float(row["oracle"]) if row["oracle"] else None
        if command == "oracle":
            lines.append(f"{row['point']}: oracle={oracle}")
        else:
            lines.append(f"{row['point']}: envelope="
                         f"{float(row['envelope']):.6f} oracle={oracle} "
                         f"feasible={row['feasible'] == '1'}")
    assert lines[0].startswith("(0.5+0j): ")
    assert capsys.readouterr().out.splitlines() == lines


def test_results_are_byte_identical_across_reruns(tmp_path):
    cfg_path = write_config(tmp_path, ANNULUS_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["compare", "--config", cfg_path, "--out", out1,
                "--quiet"]) == 0
    assert run(["compare", "--config", cfg_path, "--out", out2,
                "--quiet"]) == 0
    assert (out1 / "results.csv").read_bytes() \
        == (out2 / "results.csv").read_bytes()


def test_effective_config_round_trip(tmp_path):
    cfg_path = write_config(tmp_path, ANNULUS_CONFIG)
    out1 = tmp_path / "a"
    assert run(["compare", "--config", cfg_path, "--out", out1,
                "--quiet"]) == 0
    report = json.loads((out1 / "report.json").read_text())
    effective = report["effective_config"]
    cfg2_path = write_config(tmp_path, effective, "effective.json")
    out2 = tmp_path / "b"
    assert run(["compare", "--config", cfg2_path, "--out", out2,
                "--quiet"]) == 0
    assert (out1 / "results.csv").read_bytes() \
        == (out2 / "results.csv").read_bytes()


def test_tolerance_failure_exits_one(tmp_path):
    # an oracle off by 1e-3 fails a gap of 1e-4 however close the search
    # gets (its stopping point varies with numpy's SIMD level)
    cfg = dict(ANNULUS_CONFIG, tolerances={"gap": 1e-4}, oracle={
        "kind": "closed_form", "expr": "max(log(abs(z1)), 0.0) + 1e-3"})
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert run(["compare", "--config", cfg_path, "--out", out,
                "--quiet"]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is False


def test_gap_that_is_not_a_number_fails_the_tolerance(tmp_path):
    # log(re(z1)) is nan at -0.5, so the gap is nan and cannot be <= 0.01
    cfg = dict(ANNULUS_CONFIG, points=[[[-0.5, 0.0]]],
               oracle={"kind": "closed_form", "expr": "log(re(z1))"},
               tolerances={"gap": 0.01})
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["compare", "--config", cfg_path, "--out", out,
                    "--quiet"]) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is False
    assert [(row["oracle"], row["gap"]) for row in read_rows(out)] \
        == [("nan", "nan")]


def test_oracle_value_that_is_not_a_number_fails(tmp_path):
    # log(re(z1)) is nan at -0.5: the row is kept and the run fails
    cfg = dict(ANNULUS_CONFIG, points=[[[-0.5, 0.0]], [[1.5, 0.0]]],
               oracle={"kind": "closed_form", "expr": "log(re(z1))"})
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert run(["oracle", "--config", cfg_path, "--out", out,
                "--quiet"]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is False
    assert [row["oracle"] for row in read_rows(out)] \
        == ["nan", repr(float(np.log(1.5)))]


def test_compare_without_tolerances_fails_an_oracle_value_not_a_number(
        tmp_path):
    # no tolerances block: the non-finite oracle value alone fails the run
    cfg = dict(ANNULUS_CONFIG, points=[[[-0.5, 0.0]], [[1.5, 0.0]]],
               oracle={"kind": "closed_form", "expr": "log(re(z1))"})
    del cfg["tolerances"]
    out = tmp_path / "run"
    assert run(["compare", "--config", write_config(tmp_path, cfg),
                "--out", out, "--quiet"]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] is False
    assert [row["oracle"] for row in read_rows(out)] \
        == ["nan", repr(float(np.log(1.5)))]


def test_report_metadata_names_numpys_simd_dispatch(tmp_path):
    out = tmp_path / "run"
    assert run(["oracle", "--config", write_config(tmp_path, ANNULUS_CONFIG),
                "--out", out, "--quiet"]) == 0
    simd = json.loads((out / "report.json").read_text())["metadata"][
        "numpy_simd"]
    assert simd == cli._simd() and all(isinstance(f, str) for f in simd)


def test_validation_failure_exits_two_without_outputs(tmp_path):
    cfg = dict(ANNULUS_CONFIG, families=[{"kind": "spline"}])
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert run(["envelope", "--config", cfg_path, "--out", out,
                "--quiet"]) == 2
    assert not out.exists()


@pytest.mark.parametrize("overrides", [
    {"families": [{"kind": "polynomial", "degree": "two"}]},
    {"penalty_weight": "big"},
    {"families": [{"kind": "blaschke", "s_range": [2.0]}]},
    {"oracle": {"kind": "grid", "caps": [1.0, 2.0]}},
    {"oracle": {"kind": "grid", "caps": [2.0, 3.0, 5.0, 9.0]}},
    {"oracle": {"kind": "grid", "bounds": [1, 2]}},
    {"oracle": {"kind": "grid", "spacing": "x"}},
    {"oracle": {"kind": "grid", "spacing": -0.125}},
    {"pair": {"variant": "hartogs"},
     "homotopy": {"z_prime": [[0.0, 0.0]], "steps": "x"}},
    {"pair": {"variant": "hartogs"},
     "homotopy": {"z_prime": [[0.0, 0.0]], "s": "x"}},
    {"cesaro": {"j_values": "x"}},
    {"quadrature_m": 100},
    {"points": [[["a", 0]]]},
    {"points": [[[None, 0]]]},
    {"obstacle": {"expr": 5}},
    {"obstacle": {"builtin": "log_abs", "rotation_invariant": "no"}},
    {"pair": {"variant": "counterexample", "delta": "x"}, "points": C2_POINT},
    {"pair": {"variant": "counterexample", "tau": "x"}, "points": C2_POINT},
    {"pair": {"variant": "counterexample", "rho_u": "x"}, "points": C2_POINT},
    {"pair": {"variant": "counterexample", "eps_moll": "x"},
     "points": C2_POINT},
    {"pair": {"variant": "hartogs", "base_radius": "x"}, "points": C2_POINT},
    {"tolerances": {"gap": "x"}},
    {"tolerances": {"gap": True}},
    {"starts": True},
    {"points": [[[True, 0]]]},
    {"families": 5},
    {"pair": {"variant": "hartogs"}, "homotopy": {"s": 0.5}},
    {"pair": {"variant": ["x"]}},
    {"oracle": {"kind": {}}},
    {"obstacle": {"builtin": [1]}},
    {"quadrature_m": 64, "families": [{"kind": "vertical", "winding": 64}]},
    {"pair": {"variant": "hartogs"}, "quadrature_m": 64,
     "homotopy": {"z_prime": [[0.1, 0.0]], "winding": 64}},
    {"pair": {"variant": "hartogs", "r": 0.9, "R": 0.5}, "points": C2_POINT},
    {"pair": {"variant": "hartogs", "r": 1.5}, "points": C2_POINT},
    {"pair": {"variant": "hartogs", "R": 0.2}, "points": C2_POINT},
    {"pair": {"variant": "hartogs", "r": 10 ** 400}, "points": C2_POINT,
     "obstacle": {"expr": "abs(z2)", "rotation_invariant": True},
     "oracle": {"kind": "kiselman"}},
    {"oracle": {"kind": "grid", "spacing": 10 ** 400}},
    {"quadrature_m": 2 ** 70},
    {"quadrature_m": 2 ** 1100},
    {"pair": {"variant": "hartogs"},
     "homotopy": {"z_prime": [[0.0, 0.0]], "steps": 10 ** 30}},
    {"starts": 10 ** 12},
    {"oracle": {"kind": "grid", "spacing": 1e-300}},
    {"obstacle": {"expr": "re(z1) + 1e400"}},
    {"cesaro": {"m": 2 ** 62}},
    {"cesaro": {"m": 48}},
    {"cesaro": {"m_w": 64, "j_values": [8, 16]}},
    {"tolerances": {"gap": -1.0}},
])
def test_malformed_value_exits_two_with_one_line(tmp_path, capsys, overrides):
    # run the subcommand that reads the malformed value
    readers = {"homotopy": "homotopy", "cesaro": "cesaro",
               "oracle": "oracle", "tolerances": "compare"}
    command = next((c for key, c in readers.items() if key in overrides),
                   "envelope")
    cfg_path = write_config(tmp_path, dict(ANNULUS_CONFIG, **overrides))
    out = tmp_path / "run"
    assert run([command, "--config", cfg_path, "--out", out,
                "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config.") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("overrides, command, prefix", [
    ({"pair": {"variant": "planar_annulus", "delta": 0.2}}, "envelope",
     "error: config.pair: unknown keys ['delta']"),
    ({"pair": {"variant": "shell", "r": 0.5}}, "envelope",
     "error: config.pair: unknown keys ['r']"),
    ({"pair": {"variant": "counterexample", "n": 2}}, "envelope",
     "error: config.pair: unknown keys ['n']"),
    ({"pair": {"variant": "hartogs", "tau": 0.05}}, "envelope",
     "error: config.pair: unknown keys ['tau']"),
    ({"oracle": {"kind": "closed_form", "expr": "re(z1)", "spacing": 0.5}},
     "oracle", "error: config.oracle: unknown keys ['spacing']"),
    ({"oracle": {"kind": "kiselman", "bounds": [-1, 1, -1, 1]}}, "oracle",
     "error: config.oracle: unknown keys ['bounds']"),
    ({"oracle": {"kind": "grid", "expr": "nonsense(("}}, "oracle",
     "error: config.oracle: unknown keys ['expr']"),
])
def test_key_the_variant_or_kind_does_not_read_exits_two(
        tmp_path, capsys, overrides, command, prefix):
    cfg_path = write_config(tmp_path, dict(ANNULUS_CONFIG, **overrides))
    out = tmp_path / "run"
    assert run([command, "--config", cfg_path, "--out", out,
                "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1
    assert not out.exists()


#: Marks a key that the document leaves out
LEFT_OUT = object()


def _compare_error(tmp_path, capsys, overrides):
    """The exit code and stderr of ``discenv compare`` on ANNULUS_CONFIG
    with ``overrides``, each run in a directory of its own."""
    cfg = {key: value for key, value in dict(ANNULUS_CONFIG, **overrides)
           .items() if value is not LEFT_OUT}
    run_dir = pathlib.Path(tempfile.mkdtemp(dir=tmp_path))
    out = run_dir / "run"
    code = run(["compare", "--config", write_config(run_dir, cfg),
                "--out", out, "--quiet"])
    assert not out.exists()
    return code, capsys.readouterr().err


@pytest.mark.parametrize("overrides, message", [
    # a value against its own rule
    ({"penalty_weight": "big"},
     "config.penalty_weight: expected a positive number"),
    ({"points": [[["a", 0]]]}, "config.points[0]: expected [re, im] number "
     "pairs"),
    ({"oracle": 5}, "config.oracle: expected an object"),
    ({"quadrature_m": -1}, "config.quadrature_m: expected nonnegative "
     "integer"),
    ({"quadrature_m": 100}, "config.quadrature_m: expected a power of two "
     "from 8 to 65536"),
    # the head of a block with kinds, and keys that are not the block's
    ({"families": [{"kind": "spline"}]},
     "config.families[0].kind: unknown family kind 'spline'"),
    ({"pair": {"variant": "planar_annulus", "delta": 0.2}},
     "config.pair: unknown keys ['delta'] for variant 'planar_annulus'"),
    ({"bogus": 1}, "config: unknown keys ['bogus']"),
    # required keys
    ({"pair": LEFT_OUT}, "config.pair: required"),
    ({"experiment": LEFT_OUT}, "config.experiment: required string"),
    # the rules that span keys, some at a builder's default
    ({"quadrature_m": 8, "families": [{"kind": "polynomial"}]},
     "config.families[0].degree: expected < quadrature_m / 2 = 4"),
    ({"pair": {"variant": "hartogs", "R": 0.2}, "points": C2_POINT},
     "config.pair.r: expected r < R, got r = 0.25 >= R = 0.2"),
    ({"oracle": {"kind": "grid", "spacing": 2e-3}},
     "config.oracle.spacing: expected at most 4096 nodes per side at "
     "spacing / 2, got 4126 from spacing 0.002"),
    ({"cesaro": {"m": 8, "m_w": 2 ** 18}},
     "config.cesaro.m_w: expected m * m_w <= 1048576, got 8 * 262144"),
    ({"cesaro": {"m_w": 512}},
     "config.cesaro.j_values[4]: expected 4 j + 4 <= m_w = 512, got j = 128"),
    ({"oracle": {"kind": "closed_form"}},
     "config.oracle.expr: closed_form oracle needs 'expr'"),
    ({"obstacle": {"builtin": "log_abs", "expr": "re(z1)"}},
     "config.obstacle: exactly one of 'expr' or 'builtin' required"),
    ({"homotopy": {"s": 0.5}}, "config.homotopy.z_prime: required"),
    ({"oracle": {"kind": "closed_form", "expr": 8}},
     "config.oracle.expr: expected a string"),
    ({"oracle": {"kind": "kiselman"}},
     "config.oracle: kiselman oracle needs a hartogs pair"),
    ({"pair": {"variant": "hartogs"}, "points": C2_POINT,
      "obstacle": {"expr": "re(z1) + re(z2)", "rotation_invariant": True},
      "oracle": {"kind": "kiselman"}},
     "config.oracle: kiselman oracle needs an obstacle in which z2 enters "
     "only through abs(z2)"),
    ({"pair": {"variant": "hartogs"}, "points": C2_POINT,
      "oracle": {"kind": "grid"}},
     "config.oracle: grid oracle needs a planar pair (one complex "
     "dimension)"),
    # the grid oracle's box is the solver's, which covers X
    ({"oracle": {"kind": "grid", "bounds": [-2, 0.5, -2, 2]}},
     "config.oracle: unknown keys ['bounds'] for kind 'grid'"),
    # an empty fibre at the point's base coordinates
    (EMPTY_FIBRE, "config.points[0]: empty fiber: r = 0.5 >= R = 0.4 at the "
     "base point"),
    # a point in W, where the fibre infimum is not the envelope
    ({"pair": {"variant": "hartogs"}, "points": [*C2_POINT, W_POINT],
      "obstacle": KISELMAN_OBSTACLE, "oracle": {"kind": "kiselman"}},
     "config.points[1]: kiselman oracle needs |z2| <= r, as in W its value "
     "is not the envelope; got r = 0.25 < |z2| = 0.5 < R = 1.0"),
])
def test_single_fault_names_its_key_in_one_line(tmp_path, capsys, overrides,
                                                message):
    assert _compare_error(tmp_path, capsys, overrides) \
        == (2, f"error: {message}\n")


@pytest.mark.parametrize("overrides, message", [
    ({"starts": 0}, "config.starts: expected integer >= 1 and <= 1024"),
    ({"penalty_weight": 0},
     "config.penalty_weight: expected a positive number"),
])
def test_two_faults_name_the_value_fault_every_run(tmp_path, capsys,
                                                   overrides, message):
    """A bad value and an oversized family degree: every run names the
    value, which is checked before the rules that span keys."""
    overrides = dict(overrides, quadrature_m=8,
                     families=[{"kind": "polynomial", "degree": 4}])
    errors = {_compare_error(tmp_path, capsys, overrides) for _ in range(3)}
    assert errors == {(2, f"error: {message}\n")}


def test_closed_form_oracle_of_a_constant(tmp_path):
    cfg = dict(ANNULUS_CONFIG, oracle={"kind": "closed_form",
                                       "expr": "0.405"})
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert run(["oracle", "--config", cfg_path, "--out", out,
                "--quiet"]) == 0
    assert [float(r["oracle"]) for r in read_rows(out)] == [0.405, 0.405]


def test_kiselman_oracle_of_a_constant_obstacle(tmp_path):
    cfg = {
        "experiment": "hartogs-constant",
        "pair": {"variant": "hartogs"},
        "obstacle": {"expr": "1", "rotation_invariant": True},
        "points": [[[0.3, 0.0], [0.0, 0.0]]],
        "oracle": {"kind": "kiselman"},
    }
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert run(["oracle", "--config", cfg_path, "--out", out,
                "--quiet"]) == 0
    assert float(read_rows(out)[0]["oracle"]) == 1.0


def test_non_finite_grid_obstacle_exits_two(tmp_path, capsys):
    # log|z1 - 1.5| is -inf at a node of the h/2 level
    cfg = dict(ANNULUS_CONFIG, points=[[[1.5, 0.0]]],
               obstacle={"expr": "log(abs(z1 - 1.5))"},
               oracle={"kind": "grid", "spacing": 0.125})
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert run(["oracle", "--config", cfg_path, "--out", out,
                "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: obstacle not finite at grid node")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["envelope", "oracle", "compare"])
def test_grid_oracle_takes_no_box(tmp_path, capsys, command):
    # a box that cuts X gives a wrong field (0.354 at the origin, where
    # the solver's box gives 0.0099), so a config sets none
    cfg = dict(ANNULUS_CONFIG, points=[[[0.0, 0.0]], [[0.25, 0.0]]],
               oracle={"kind": "grid", "spacing": 1 / 16,
                       "bounds": [-2, 0.5, -2, 2]})
    out = tmp_path / "run"
    assert run([command, "--config", write_config(tmp_path, cfg), "--out",
                out, "--quiet"]) == 2
    assert capsys.readouterr().err \
        == "error: config.oracle: unknown keys ['bounds'] for kind 'grid'\n"
    assert not out.exists()


def test_grid_with_no_node_in_w_exits_two(tmp_path, capsys):
    # at spacing 8.25 the nodes lie at +-2.0625 only, all outside X
    cfg = dict(ANNULUS_CONFIG, points=[[[0.1, 0.0]]],
               oracle={"kind": "grid", "spacing": 8.25})
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert run(["oracle", "--config", cfg_path, "--out", out,
                "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no grid node lies in W at spacing 4.125")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_default_degree_too_large_exits_before_any_search(
        tmp_path, capsys, monkeypatch):
    # a polynomial family without a degree has the class default, 4,
    # which 8 nodes cannot resolve
    searches = []
    monkeypatch.setattr(cli, "minimize_envelope", searches.append)
    cfg = dict(ANNULUS_CONFIG, points=[[[1.5, 0.0]], [[0.5, 0.0]]],
               families=[{"kind": "polynomial"}], quadrature_m=8)
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert run(["envelope", "--config", cfg_path, "--out", out,
                "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: config.families[0].degree: expected < "
                   "quadrature_m / 2 = 4\n")
    assert searches == []
    assert not out.exists()


def test_vertical_family_off_the_axis_exits_before_any_search(
        tmp_path, capsys, monkeypatch):
    # the second point's last coordinate is not 0, so no vertical disc
    # is centred there
    searches = []
    monkeypatch.setattr(cli, "minimize_envelope", searches.append)
    cfg = {
        "experiment": "vertical",
        "pair": {"variant": "hartogs", "n": 2},
        "obstacle": {"expr": "re(z1)"},
        "points": [[[0.3, 0.0], [0.0, 0.0]], [[0.3, 0.0], [0.5, 0.0]]],
        "families": [{"kind": "vertical"}],
        "quadrature_m": 64,
    }
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert run(["envelope", "--config", cfg_path, "--out", out,
                "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: config.points[1]: vertical family: centre "
                   "((0.3+0j), (0.5+0j)) must have last coordinate 0\n")
    assert searches == []
    assert not out.exists()


def test_shell_pair_with_shell_family(tmp_path):
    # re(z1) is pluriharmonic: its boundary average is its centre value
    cfg = {
        "experiment": "shell",
        "pair": {"variant": "shell", "n": 2},
        "obstacle": {"expr": "re(z1)"},
        "points": [[[0.5, 0.0], [0.3, 0.2]]],
        "families": [{"kind": "shell"}],
        "quadrature_m": 128,
        "oracle": {"kind": "closed_form", "expr": "re(z1)"},
        "tolerances": {"gap": 1e-12},
    }
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert run(["compare", "--config", cfg_path, "--out", out,
                "--quiet"]) == 0
    row = read_rows(out)[0]
    assert row["feasible"] == "1"
    assert abs(float(row["envelope"]) - 0.5) <= 1e-12
    report = json.loads((out / "report.json").read_text())
    assert report["rows"][0]["family"] == "shell"


def test_shell_family_outside_the_ball_exits_before_any_search(
        tmp_path, capsys, monkeypatch):
    # the second point lies outside the ball of radius 2 that the shell
    # disc's centre must lie in
    searches = []
    monkeypatch.setattr(cli, "minimize_envelope", searches.append)
    cfg = {
        "experiment": "shell",
        "pair": {"variant": "shell", "n": 2},
        "obstacle": {"expr": "re(z1)"},
        "points": [[[0.5, 0.0], [0.0, 0.0]], [[3.0, 0.0], [0.0, 0.0]]],
        "families": [{"kind": "shell"}],
        "quadrature_m": 128,
    }
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert run(["envelope", "--config", cfg_path, "--out", out,
                "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: config.points[1]: shell family: centre "
                   "((3+0j), 0j) must lie in the ball of radius 2\n")
    assert searches == []
    assert not out.exists()


def test_point_of_the_wrong_dimension_is_named_by_its_index(tmp_path,
                                                            capsys):
    cfg = dict(ANNULUS_CONFIG, points=[[[0.5, 0.0]], [[1.5, 0.0]],
                                       [[0.3, 0.0], [0.0, 0.0]]])
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert run(["envelope", "--config", cfg_path, "--out", out,
                "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: config.points[2]: point must list 1 coordinates "
                   "as [re, im] pairs\n")
    assert not out.exists()


def test_hartogs_pair_with_vertical_family(tmp_path):
    # criterion 1's pair: the envelope is the Kiselman psi, re z1 + 1/16
    cfg = {
        "experiment": "hartogs-vertical",
        "pair": {"variant": "hartogs", "n": 2, "r": 0.25, "R": 1.0},
        "obstacle": {"expr": "re(z1) + abs(z2) * abs(z2)",
                     "rotation_invariant": True},
        "points": [[[0.3, 0.0], [0.0, 0.0]]],
        "families": [{"kind": "vertical", "winding": 1,
                      "s_range": [0.25, 1.0]}],
        "quadrature_m": 128,
        "starts": 2,
        "budget": 200,
        "oracle": {"kind": "kiselman"},
        "tolerances": {"gap": 1e-2},
    }
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert run(["compare", "--config", cfg_path, "--out", out,
                "--quiet"]) == 0
    row = read_rows(out)[0]
    assert row["feasible"] == "1"
    assert abs(float(row["envelope"]) - (0.3 + 1.0 / 16)) <= 1e-2
    report = json.loads((out / "report.json").read_text())
    assert report["rows"][0]["family"] == "vertical"


@pytest.mark.parametrize("m, winding, search_m", [
    (256, 1, 64), (64, 1, 64), (256, 40, 128), (32, 1, 32)])
def test_report_rows_carry_the_search_m(tmp_path, m, winding, search_m):
    """Each search row names the M its winner was found at: 64, or the
    least power of two above it at which its families build, when that
    is below quadrature_m, else quadrature_m."""
    cfg = {
        "experiment": "hartogs-search-m",
        "pair": {"variant": "hartogs", "n": 2},
        "obstacle": {"expr": "re(z1)"},
        "points": [[[0.3, 0.0], [0.0, 0.0]], [[-0.2, 0.1], [0.0, 0.0]]],
        "families": [{"kind": "vertical", "winding": winding,
                      "s_range": [0.3, 0.7]}],
        "quadrature_m": m, "starts": 2, "budget": 20,
    }
    out = tmp_path / "run"
    assert run(["envelope", "--config", write_config(tmp_path, cfg),
                "--out", out, "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [row["search_m"] for row in report["rows"]] == [search_m] * 2


@pytest.mark.parametrize("R, certificate", [
    (1.0, "max_principle"), ("1.0 - 0.25 * abs(z1)", "probes")])
def test_report_rows_carry_the_certificate(tmp_path, R, certificate):
    cfg = {
        "experiment": "hartogs-certificate",
        "pair": {"variant": "hartogs", "n": 2, "R": R},
        "obstacle": {"expr": "re(z1)"},
        "points": [[[0.3, 0.0], [0.0, 0.0]], [[-0.2, 0.1], [0.0, 0.0]]],
        "families": [{"kind": "vertical", "s_range": [0.3, 0.7]}],
        "quadrature_m": 64, "starts": 2, "budget": 20,
    }
    out = tmp_path / "run"
    assert run(["envelope", "--config", write_config(tmp_path, cfg),
                "--out", out, "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert [row["certificate"] for row in report["rows"]] == [certificate] * 2
    with open(out / "results.csv", newline="") as fh:
        assert next(csv.reader(fh)) == ["point", "envelope", "oracle", "gap",
                                        "feasible", "max_violation"]


def test_centre_outside_x_is_named_by_its_index(tmp_path, capsys,
                                                monkeypatch):
    searches = []
    monkeypatch.setattr(cli, "minimize_envelope", searches.append)
    cfg = dict(ANNULUS_CONFIG, points=[[[0.5, 0.0]], [[1.5, 0.0]],
                                       [[2.5, 0.0]]])
    out = tmp_path / "run"
    assert run(["compare", "--config", write_config(tmp_path, cfg),
                "--out", out, "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "error: config.points[2]: centre ((2.5+0j),) lies outside X\n")
    assert searches == []
    assert not out.exists()


@pytest.mark.parametrize("point, message", [
    ([[0.3, 0.0], [1.2, 0.0]], "centre ((0.3+0j), (1.2+0j)) lies outside X"),
    ([[0.3, 0.0]], "point must list 2 coordinates as [re, im] pairs"),
])
@pytest.mark.parametrize("command", list(cli.RUNNERS))
def test_every_subcommand_refuses_a_bad_point_at_load(tmp_path, capsys,
                                                      command, point,
                                                      message):
    # homotopy and cesaro read no point, but load the same document
    cfg = {"experiment": "bad-point", "pair": {"variant": "hartogs"},
           "obstacle": KISELMAN_OBSTACLE,
           "points": [C2_POINT[0], point],
           "families": [{"kind": "vertical", "s_range": [0.3, 0.7]}],
           "oracle": {"kind": "kiselman"},
           "homotopy": {"z_prime": [[0.0, 0.0]]}, "cesaro": {}}
    out = tmp_path / "run"
    assert run([command, "--config", write_config(tmp_path, cfg),
                "--out", out, "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: config.points[1]: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("z_prime, message", [
    ("junk", "point must list 1 coordinates as [re, im] pairs"),
    ([[0.1, 0.0], [0.2, 0.0]], "point must list 1 coordinates as [re, im] "
     "pairs"),
    ([["x", 0.0]], "coordinate must be an [re, im] pair of numbers"),
])
@pytest.mark.parametrize("command", list(cli.RUNNERS))
def test_every_subcommand_refuses_a_bad_z_prime_at_load(tmp_path, capsys,
                                                        command, z_prime,
                                                        message):
    # only homotopy reads z_prime, but every subcommand loads the document
    cfg = {"experiment": "bad-z-prime", "pair": {"variant": "hartogs"},
           "obstacle": KISELMAN_OBSTACLE, "points": C2_POINT,
           "families": [{"kind": "vertical", "s_range": [0.3, 0.7]}],
           "oracle": {"kind": "kiselman"},
           "homotopy": {"z_prime": z_prime}, "cesaro": {}}
    out = tmp_path / "run"
    assert run([command, "--config", write_config(tmp_path, cfg),
                "--out", out, "--quiet"]) == 2
    assert capsys.readouterr().err \
        == f"error: config.homotopy.z_prime: {message}\n"
    assert not out.exists()


def test_compare_builds_what_it_reads_once(tmp_path, monkeypatch):
    """One compare run builds the pair once, parses each point once and
    compiles the obstacle and the closed form once each: the runner
    reads what load built."""
    calls = collections.Counter()
    for name in ("build_pair", "parse_point", "obstacle_from_expression"):
        def counted(*args, _fn=getattr(config, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(config, name, counted)
    assert run(["compare", "--config", write_config(tmp_path, ANNULUS_CONFIG),
                "--out", tmp_path / "run", "--quiet"]) == 0
    assert calls == {"build_pair": 1, "parse_point": 2,
                     "obstacle_from_expression": 2}


@pytest.mark.parametrize("command", ["envelope", "oracle", "compare"])
def test_point_subcommands_without_an_obstacle_exit_two(tmp_path, capsys,
                                                        command):
    cfg = dict(ANNULUS_CONFIG)
    cfg.pop("obstacle")
    out = tmp_path / "run"
    assert run([command, "--config", write_config(tmp_path, cfg),
                "--out", out, "--quiet"]) == 2
    assert capsys.readouterr().err \
        == "error: config.obstacle: required for this command\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["envelope", "compare"])
def test_points_without_families_exit_two(tmp_path, capsys, command):
    cfg = dict(ANNULUS_CONFIG, families=[])
    out = tmp_path / "run"
    assert run([command, "--config", write_config(tmp_path, cfg),
                "--out", out, "--quiet"]) == 2
    assert capsys.readouterr().err == \
        "error: config.families: at least one family needed\n"
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("delta", 0.9, "expected a number in (0, 1/2)"),
    ("delta", 0, "expected a number in (0, 1/2)"),
    ("tau", 0.2, "expected a number in (0, 0.2)"),
    ("eps_moll", 0.0, "expected a positive number"),
])
@pytest.mark.parametrize("command", ["cesaro", "envelope"])
def test_counterexample_pair_out_of_range_exits_two_at_load(
        tmp_path, capsys, command, key, value, message):
    # cesaro reads no pair, so only the load-time rules can refuse these
    cfg = dict(ANNULUS_CONFIG, points=C2_POINT,
               families=[{"kind": "constant"}],
               pair={"variant": "counterexample", key: value})
    cfg.pop("oracle")
    out = tmp_path / "run"
    assert run([command, "--config", write_config(tmp_path, cfg),
                "--out", out, "--quiet"]) == 2
    assert capsys.readouterr().err \
        == f"error: config.pair.{key}: {message}\n"
    assert not out.exists()


def test_oracle_subcommand_without_an_oracle_exits_two(tmp_path, capsys):
    cfg = dict(ANNULUS_CONFIG)
    cfg.pop("oracle")
    out = tmp_path / "run"
    assert run(["oracle", "--config", write_config(tmp_path, cfg),
                "--out", out, "--quiet"]) == 2
    assert capsys.readouterr().err \
        == "error: config.oracle: required for this command\n"
    assert not out.exists()


@pytest.mark.parametrize("overrides, command, key", [
    ({"obstacle": {"expr": "nonsense(("}}, "envelope", "obstacle.expr"),
    ({"obstacle": {"expr": "z2"}}, "envelope", "obstacle.expr"),
    ({"oracle": {"kind": "closed_form", "expr": "nonsense(("}}, "oracle",
     "oracle.expr"),
    ({"oracle": {"kind": "closed_form", "expr": "z1 / 2"}}, "compare",
     "oracle.expr"),
    ({"pair": {"variant": "hartogs", "r": "nonsense(("}}, "envelope",
     "pair.r"),
    ({"pair": {"variant": "hartogs", "R": "abs(z2)"}}, "homotopy",
     "pair.R"),
    # a constant that is not a finite float
    ({"obstacle": {"expr": "re(z1) + 1e400"}}, "compare", "obstacle.expr"),
    ({"oracle": {"kind": "closed_form", "expr": "1e400"}}, "oracle",
     "oracle.expr"),
    ({"pair": {"variant": "hartogs", "R": "1e400"}}, "envelope", "pair.R"),
    # homotopy and cesaro read no obstacle, but load the same document
    ({"obstacle": {"expr": "nonsense(("}}, "homotopy", "obstacle.expr"),
    ({"obstacle": {"expr": "nonsense(("}}, "cesaro", "obstacle.expr"),
])
def test_expression_errors_name_their_config_key(tmp_path, capsys,
                                                 overrides, command, key):
    cfg = dict(ANNULUS_CONFIG, homotopy={"z_prime": [[0.0, 0.0]]},
               **overrides)
    if "pair" in overrides:
        cfg["points"] = C2_POINT
    out = tmp_path / "run"
    assert run([command, "--config", write_config(tmp_path, cfg),
                "--out", out, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config.{key}: ") and err.count("\n") == 1
    assert not out.exists()


def test_infeasible_envelope_exits_three(tmp_path):
    # a constant disc at 0.5 cannot have boundary in the annulus
    cfg = dict(ANNULUS_CONFIG, points=[[[0.5, 0.0]]],
               families=[{"kind": "constant"}])
    cfg.pop("oracle")
    cfg.pop("tolerances")
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert run(["envelope", "--config", cfg_path, "--out", out,
                "--quiet"]) == 3
    rows = read_rows(out)
    assert rows[0]["feasible"] == "0"
    assert float(rows[0]["max_violation"]) > 0


def test_oracle_subcommand_kiselman(tmp_path):
    cfg = {
        "experiment": "hartogs-oracle",
        "pair": {"variant": "hartogs", "n": 2, "r": 0.25, "R": 1.0},
        "obstacle": {"expr": "re(z1) + abs(z2) * abs(z2)",
                     "rotation_invariant": True},
        "points": [[[0.3, 0.0], [0.0, 0.0]]],
        "oracle": {"kind": "kiselman"},
    }
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert run(["oracle", "--config", cfg_path, "--out", out,
                "--quiet"]) == 0
    rows = read_rows(out)
    assert abs(float(rows[0]["oracle"]) - (0.3 + 1.0 / 16)) <= 1e-4


#: item 20's generalised Hartogs pair: radii that vary with z1
VARIABLE_RADII_CONFIG = {
    "experiment": "hartogs-variable-radii",
    "pair": {"variant": "hartogs", "n": 2, "base_radius": 0.9,
             "r": "0.25 + 0.25 * abs(z1) * abs(z1)",
             "R": "1 - 0.5 * abs(z1) * abs(z1)"},
    "obstacle": KISELMAN_OBSTACLE,
    "points": [[[0.0, 0.0], [0.0, 0.0]], [[0.4, 0.0], [0.0, 0.0]],
               [[-0.3, 0.5], [0.0, 0.0]], [[0.1, -0.7], [0.0, 0.0]]],
    "families": [{"kind": "constant"},
                 {"kind": "vertical", "winding": 1, "s_range": [0.25, 1.0]},
                 {"kind": "vertical", "winding": 2, "s_range": [0.25, 1.0]},
                 {"kind": "blaschke", "zeros": 1, "s_range": [0.25, 1.0]}],
    "quadrature_m": 256, "starts": 4, "budget": 300, "seed": 1,
    "oracle": {"kind": "kiselman"},
    "tolerances": {"gap": 1e-5},
}


def test_kiselman_oracle_with_variable_radii(tmp_path):
    """Over the hole the envelope is re z1 + r(z1)^2, the fibre infimum;
    R is an expression, so X is checked by the probes."""
    out = tmp_path / "run"
    assert run(["compare", "--config",
                write_config(tmp_path, VARIABLE_RADII_CONFIG), "--out", out,
                "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    for row, point in zip(report["rows"], VARIABLE_RADII_CONFIG["points"]):
        (x, y), _ = point
        psi = x + (0.25 + 0.25 * (x * x + y * y)) ** 2
        assert abs(row["oracle"] - psi) <= 1e-8
        assert row["feasible"] and row["certificate"] == "probes"


@pytest.mark.parametrize("command", ["compare", "oracle", "envelope"])
def test_kiselman_point_in_w_of_an_expression_r_exits_two(
        tmp_path, capsys, monkeypatch, command):
    """An expression r is read at the point when the document is loaded,
    so every runner refuses it before any search."""
    searches = []
    monkeypatch.setattr(cli, "minimize_envelope", searches.append)
    cfg = dict(VARIABLE_RADII_CONFIG,
               points=[VARIABLE_RADII_CONFIG["points"][0], W_POINT],
               families=[{"kind": "constant"}, {"kind": "blaschke"}])
    out = tmp_path / "run"
    assert run([command, "--config", write_config(tmp_path, cfg),
                "--out", out, "--quiet"]) == 2
    assert capsys.readouterr().err == (
        "error: config.points[1]: kiselman oracle needs |z2| <= r, as in W "
        "its value is not the envelope; got r = 0.2525 < |z2| = 0.5 < "
        "R = 0.995\n")
    assert searches == [] and not out.exists()


@pytest.mark.parametrize("homotopy, message", [
    ({"z_prime": [[1.5, 0.0]]}, "base point outside Y"),
    ({"z_prime": [[0.1, 0.0]], "s": 2},
     "scale 2.0 outside radial range (0.25, 1.0)"),
])
def test_homotopy_fault_names_its_key(tmp_path, capsys, homotopy, message):
    cfg = {"experiment": "hartogs-homotopy", "pair": {"variant": "hartogs"},
           "homotopy": homotopy}
    out = tmp_path / "run"
    assert run(["homotopy", "--config", write_config(tmp_path, cfg),
                "--out", out, "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: config.homotopy: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("cfg, message", [
    ({"pair": {"variant": "planar_annulus"},
      "homotopy": {"z_prime": [[0.0, 0.0]]}},
     "config.pair: homotopy needs a hartogs pair"),
    ({"pair": {"variant": "hartogs"}},
     "config.homotopy: required for this command"),
])
def test_homotopy_without_its_pair_or_block_exits_two(tmp_path, capsys, cfg,
                                                      message):
    cfg = dict(cfg, experiment="hartogs-homotopy")
    out = tmp_path / "run"
    assert run(["homotopy", "--config", write_config(tmp_path, cfg),
                "--out", out, "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_homotopy_subcommand_and_plot(tmp_path):
    cfg = {
        "experiment": "hartogs-homotopy",
        "pair": {"variant": "hartogs", "n": 2, "r": 0.25, "R": 1.0},
        "homotopy": {"z_prime": [[0.3, 0.0]], "s": 0.5, "winding": 2,
                     "steps": 8},
        "quadrature_m": 256,
    }
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert run(["homotopy", "--config", cfg_path, "--out", out,
                "--quiet"]) == 0
    trace = json.loads((out / "homotopy_trace.json").read_text())
    assert len(trace) == 9
    assert all(row["winding"] == 2 for row in trace)
    assert all(row["min_margin"] > 0 for row in trace)
    assert run(["emit-plot", "--report", out / "report.json",
                "--kind", "homotopy", "--out", out]) == 0
    lines = (out / "plot_homotopy.csv").read_text().splitlines()
    assert lines[0] == "# columns: t, min_margin, winding"
    assert len(lines) == 10


def test_cesaro_subcommand(tmp_path):
    cfg = {
        "experiment": "cesaro",
        "pair": {"variant": "planar_annulus"},
        "cesaro": {"m": 32, "m_w": 1024, "j_values": [8, 64]},
    }
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert run(["cesaro", "--config", cfg_path, "--out", out,
                "--quiet"]) == 0
    lines = (out / "cesaro.csv").read_text().splitlines()
    assert lines[0] == "# columns: j, sup_error"
    errs = [float(line.split(",")[1]) for line in lines[1:]]
    assert errs[1] < errs[0]


def test_emit_plot_profile_and_convergence(tmp_path):
    cfg_path = write_config(tmp_path, ANNULUS_CONFIG)
    out = tmp_path / "run"
    assert run(["compare", "--config", cfg_path, "--out", out,
                "--quiet"]) == 0
    assert run(["emit-plot", "--report", out / "report.json",
                "--kind", "profile", "--out", out]) == 0
    lines = (out / "plot_profile.csv").read_text().splitlines()
    assert lines[0] == "# columns: x, envelope, oracle, gap"
    assert len(lines) == 3
    assert run(["emit-plot", "--report", out / "report.json",
                "--kind", "convergence", "--out", out]) == 0
    lines = (out / "plot_convergence.csv").read_text().splitlines()
    assert lines[0] == "# columns: point_index, iteration, best_value"
    assert len(lines) > 3


def test_emit_plot_unknown_kind_exits_two(tmp_path):
    cfg_path = write_config(tmp_path, ANNULUS_CONFIG)
    out = tmp_path / "run"
    assert run(["compare", "--config", cfg_path, "--out", out,
                "--quiet"]) == 0
    assert run(["emit-plot", "--report", out / "report.json",
                "--kind", "surface", "--out", out]) == 2


@pytest.mark.parametrize("report", [{"rows": [{}]}, {"rows": 5}, [1, 2]])
def test_emit_plot_malformed_report_exits_two(tmp_path, capsys, report):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert run(["emit-plot", "--report", path, "--kind", "profile",
                "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: malformed report")
    assert err.count("\n") == 1
    assert not (tmp_path / "plot_profile.csv").exists()


@pytest.mark.parametrize("text", [None, "{not json"])
def test_config_missing_or_not_json_exits_two(tmp_path, capsys, text):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    out = tmp_path / "run"
    assert run(["compare", "--config", path, "--out", out, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert not out.exists()


def test_emit_plot_missing_report_exits_two(tmp_path, capsys):
    path = tmp_path / "absent" / "report.json"
    assert run(["emit-plot", "--report", path, "--kind", "profile",
                "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert not (tmp_path / "plot_profile.csv").exists()


def test_atomic_write_leaves_no_temporary_file_on_failure(tmp_path,
                                                          monkeypatch):
    def refuse(src, dst):
        raise OSError("replace refused")
    monkeypatch.setattr(os, "replace", refuse)
    out = tmp_path / "run"
    with pytest.raises(OSError, match="replace refused"):
        cli._atomic_write(str(out / "results.csv"), "point\n")
    assert list(out.iterdir()) == []


def test_seed_override_changes_metadata(tmp_path):
    cfg_path = write_config(tmp_path, ANNULUS_CONFIG)
    out = tmp_path / "run"
    assert run(["compare", "--config", cfg_path, "--out", out, "--seed", 7,
                "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["metadata"]["seed"] == 7
    assert report["effective_config"]["seed"] == 7
    assert report["effective_config"]["output"] == str(out)


@pytest.mark.parametrize("command", ["envelope", "cesaro"])
def test_negative_seed_override_exits_two(tmp_path, capsys, command):
    cfg_path = write_config(tmp_path, ANNULUS_CONFIG)
    out = tmp_path / "run"
    assert run([command, "--config", cfg_path, "--out", out, "--seed", "-1",
                "--quiet"]) == 2
    assert capsys.readouterr().err \
        == "error: config.seed: expected nonnegative integer\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["oracle", "compare"])
def test_grid_oracle_creates_missing_out_dir(tmp_path, command):
    cfg = dict(ANNULUS_CONFIG, points=[[[1.5, 0.0]]],
               families=[{"kind": "constant"}],
               oracle={"kind": "grid", "spacing": 0.125})
    cfg.pop("tolerances")
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "missing" / "nested"
    assert run([command, "--config", cfg_path, "--out", out,
                "--quiet"]) == 0
    assert (out / "grid_field.csv").is_file()
    rows = read_rows(out)
    assert abs(float(rows[0]["oracle"]) - np.log(1.5)) <= 1e-2


def test_grid_oracle_at_coarse_spacing(tmp_path):
    # the grid oracle still solves at a spacing as coarse as 1/4
    cfg = dict(ANNULUS_CONFIG, points=[[[1.5, 0.0]]],
               oracle={"kind": "grid", "spacing": 0.25})
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert run(["oracle", "--config", cfg_path, "--out", out,
                "--quiet"]) == 0
    rows = read_rows(out)
    assert abs(float(rows[0]["oracle"]) - np.log(1.5)) <= 1e-2


def test_oracle_runs_before_any_search(tmp_path, capsys, monkeypatch):
    # the Kiselman oracle needs a Hartogs pair, so this compare cannot run
    calls = []
    search = cli.minimize_envelope
    monkeypatch.setattr(cli, "minimize_envelope",
                        lambda req: calls.append(req) or search(req))
    cfg = dict(ANNULUS_CONFIG, oracle={"kind": "kiselman"})
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert run(["compare", "--config", cfg_path, "--out", out,
                "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("error: config.oracle:")
    assert calls == []
    assert not out.exists()


def test_unexpected_exception_exits_four(tmp_path, capsys, monkeypatch):
    def broken(req):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "minimize_envelope", broken)
    cfg_path = write_config(tmp_path, ANNULUS_CONFIG)
    out = tmp_path / "run"
    assert run(["compare", "--config", cfg_path, "--out", out,
                "--quiet"]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert err.splitlines()[-1] == "error: internal: RuntimeError: boom"
    assert not (out / "report.json").exists()


def test_grid_covers_its_bounds(tmp_path):
    # 4.125 / 3 is not an integer: the grid must reach past x_max anyway
    cfg = dict(ANNULUS_CONFIG, points=[[[1.5, 0.0]]],
               oracle={"kind": "grid", "spacing": 3.0})
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert run(["oracle", "--config", cfg_path, "--out", out,
                "--quiet"]) == 0
    with open(out / "grid_field.csv", newline="") as fh:
        nodes = list(csv.DictReader(fh))
    assert max(float(r["x"]) for r in nodes) >= 2.0625
    assert max(float(r["y"]) for r in nodes) >= 2.0625


@pytest.mark.parametrize("overrides, message", [
    ({"oracle": {"kind": "kiselman"}},
     "config.oracle: kiselman oracle needs a hartogs pair"),
    (EMPTY_FIBRE, "config.points[0]: empty fiber: r = 0.5 >= R = 0.4 at the "
     "base point"),
    ({"oracle": {"kind": "closed_form", "expr": "foo(z1"}},
     "config.oracle.expr: '(' was never closed (<unknown>, line 1)"),
])
def test_envelope_rejects_the_oracle_faults_that_compare_rejects(
        tmp_path, capsys, overrides, message):
    # envelope does not run the oracle, but loads the same document
    cfg_path = write_config(tmp_path, dict(ANNULUS_CONFIG, **overrides))
    for command in ("envelope", "compare"):
        out = tmp_path / command
        assert run([command, "--config", cfg_path, "--out", out,
                    "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("overrides, message", [
    # inside the grid's box, where the ghost ring holds the field
    ({"points": [[[1.5, 0.0]], [[2.03, 0.0]]],
      "oracle": {"kind": "grid", "spacing": 0.125}},
     "config.points[1]: centre ((2.03+0j),) lies outside X"),
    # the Kiselman oracle reads the base point alone
    ({"pair": {"variant": "hartogs"},
      "obstacle": {"expr": "abs(z2)", "rotation_invariant": True},
      "points": [[[0.3, 0.0], [0.0, 0.0]], [[0.3, 0.0], [1.2, 0.0]]],
      "oracle": {"kind": "kiselman"}},
     "config.points[1]: centre ((0.3+0j), (1.2+0j)) lies outside X"),
])
def test_oracle_point_outside_x_exits_two(tmp_path, capsys, monkeypatch,
                                          overrides, message):
    solves = []
    monkeypatch.setattr(cli, "grid_obstacle_solver",
                        lambda *args, **kwargs: solves.append(args))
    cfg = dict(ANNULUS_CONFIG, **overrides)
    out = tmp_path / "run"
    assert run(["oracle", "--config", write_config(tmp_path, cfg),
                "--out", out, "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert solves == [] and not out.exists()


def test_non_finite_obstacle_exits_three(tmp_path, capsys):
    # log|z1| is -inf along the constant disc at z1 = 0: no disc has a
    # finite boundary average, which is an infeasible envelope, not a
    # configuration error (no oracle: the Kiselman oracle refuses a point
    # in W)
    cfg = {
        "experiment": "hartogs-log",
        "pair": {"variant": "hartogs"},
        "obstacle": {"builtin": "log_abs", "rotation_invariant": True},
        "points": [[[0.0, 0.0], [0.5, 0.0]]],
        "families": [{"kind": "constant"}],
    }
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "run"
    assert run(["compare", "--config", cfg_path, "--out", out,
                "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "finite boundary average" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_a_failed_search_leaves_no_grid_field(tmp_path, capsys):
    # log|z1| is -inf along the constant disc at 0: the search raises after
    # the grid oracle has written its field, which the failed run removes
    cfg = dict(ANNULUS_CONFIG, points=[[[0.0, 0.0]]],
               families=[{"kind": "constant"}], quadrature_m=64,
               oracle={"kind": "grid", "spacing": 0.25})
    cfg.pop("tolerances")
    out = tmp_path / "run"
    assert run(["compare", "--config", write_config(tmp_path, cfg),
                "--out", out, "--quiet"]) == 3
    assert "finite boundary average" in capsys.readouterr().err
    assert not out.exists() or list(out.iterdir()) == []


#: Mostly valid pieces of an envelope config for the command line fuzz test
FUZZ_FAMILY = st.one_of(
    st.sampled_from([{"kind": "constant"}, {"kind": "shell"},
                     {"kind": "polynomial"}, {"kind": "vertical"},
                     {"kind": "blaschke"}]),
    st.builds(lambda k: {"kind": "polynomial", "degree": k},
              st.integers(1, 6)),
    st.builds(lambda k: {"kind": "vertical", "winding": k},
              st.integers(1, 6)),
    st.builds(lambda k, s_range: {"kind": "blaschke", "zeros": k,
                                  "s_range": s_range},
              st.integers(1, 3), st.sampled_from([[1.0, 2.0], [0.1, 1.0]])))
#: Each pair variant with points mostly in its own dimension
FUZZ_PAIRS = {
    "planar_annulus": [[[0.5, 0.0]], [[1.5, 0.0]], [[1.2, 0.3]],
                       [[0.3, 0.0], [0.0, 0.0]]],
    "shell": [[[0.5, 0.0], [0.3, 0.2]], [[0.3, 0.0], [0.0, 0.0]],
              [[3.0, 0.0], [0.0, 0.0]], [[0.5, 0.0]]],
    "hartogs": [[[0.3, 0.0], [0.0, 0.0]], [[0.5, 0.0], [0.3, 0.2]],
                [[0.3, 0.0], [0.5, 0.0]], [[0.5, 0.0]]],
    "counterexample": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.2, 0.0]],
                       [[1.5, 0.0]]],
}
FUZZ_CONFIG = st.sampled_from(sorted(FUZZ_PAIRS)).flatmap(
    lambda variant: st.fixed_dictionaries({
        "experiment": st.just("fuzz"),
        "pair": st.just({"variant": variant}),
        "obstacle": st.sampled_from([
            {"builtin": "log_abs"}, {"builtin": "re_first"},
            {"expr": "re(z1)"}, {"expr": "abs(z1) + 0.5"},
            {"expr": "log(abs(z1 - 1.5))"}, {"expr": "re(z2)"}]),
        "points": st.lists(st.sampled_from(FUZZ_PAIRS[variant]),
                           min_size=1, max_size=2),
        "families": st.lists(FUZZ_FAMILY, min_size=1, max_size=2),
        "quadrature_m": st.sampled_from([8, 16, 64, 128, 256]),
        "seed": st.integers(0, 3),
        "starts": st.just(1),
        "budget": st.just(4),
    })).flatmap(lambda cfg: st.sampled_from([{}] * 12 + [
        {"starts": 0}, {"families": 5}, {"bogus": 1}, {"quadrature_m": 100},
        {"pair": {"variant": "cube"}},
    ]).map(lambda change: {**cfg, **change}))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(cfg=FUZZ_CONFIG)
def test_small_envelope_runs_exit_with_a_documented_code(cfg):
    """An envelope run exits 0, 2 or 3.  Exit 2, and an exit 3 that comes
    from an exception, print one error: line; exit 2 writes nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(pathlib.Path(tmp), cfg)
        out = pathlib.Path(tmp) / "run"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = run(["envelope", "--config", path, "--out", out,
                        "--quiet"])
        wrote = out.exists()
    lines = err.getvalue().splitlines()
    errors = [line for line in lines if line.startswith("error:")]
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert len(errors) == 1 and not wrote
    elif code == 3:
        assert len(errors) == (0 if wrote else 1)
    else:
        assert errors == []


#: Base points z' for the homotopy fuzz test, by the dimension of the pair;
#: the last one lies outside the base ball
FUZZ_Z_PRIMES = {2: [[[0.0, 0.0]], [[0.3, -0.2]], [[0.6, 0.1]], [[1.5, 0.0]]],
                 3: [[[0.1, 0.0], [0.2, 0.1]], [[0.5, 0.0], [0.0, -0.4]],
                     [[0.9, 0.0], [0.9, 0.0]]]}
#: Mostly valid homotopy configs on Hartogs pairs, then one change in three
#: that puts a value out of range
FUZZ_HOMOTOPY = st.sampled_from([
    {"variant": "hartogs"}, {"variant": "hartogs", "n": 3},
    {"variant": "hartogs", "r": 0.1, "R": 0.8},
    {"variant": "hartogs", "r": "0.2 + 0.1 * abs(z1)"}]).flatmap(
    lambda pair: st.fixed_dictionaries({
        "experiment": st.just("fuzz-homotopy"),
        "pair": st.just(pair),
        "quadrature_m": st.sampled_from([8, 16, 64, 128, 256]),
        "homotopy": st.fixed_dictionaries(
            {"z_prime": st.sampled_from(FUZZ_Z_PRIMES[pair.get("n", 2)])},
            optional={"s": st.sampled_from([0.3, 0.4, 0.5, 0.7, 0.25, 1.0]),
                      "winding": st.integers(1, 3),
                      "steps": st.integers(1, 64)}),
    })).flatmap(lambda cfg: st.sampled_from([({}, {})] * 20 + [
        ({}, {"steps": 0}), ({}, {"steps": 2 ** 16 + 1}),
        ({}, {"steps": 10 ** 30}), ({}, {"steps": "x"}),
        ({}, {"winding": 0}), ({}, {"winding": 200}), ({}, {"s": -1.0}),
        ({}, {"z_prime": [[0.1, 0.0]] * 4}),
        ({"pair": {"variant": "planar_annulus"}}, {}),
        ({"quadrature_m": 100}, {}),
    ]).map(lambda change: {**cfg, **change[0],
                           "homotopy": {**cfg["homotopy"], **change[1]}}))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cfg=FUZZ_HOMOTOPY)
def test_homotopy_runs_exit_with_a_documented_code(cfg):
    """A homotopy run exits 0 or 2 (3 is allowed too); exit 2 prints one
    error: line and writes nothing, exit 0 writes one row per step."""
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(pathlib.Path(tmp), cfg)
        out = pathlib.Path(tmp) / "run"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = run(["homotopy", "--config", path, "--out", out,
                        "--quiet"])
        wrote = out.exists()
        trace = json.loads((out / "homotopy_trace.json").read_text()) \
            if code == 0 else None
    errors = [line for line in err.getvalue().splitlines()
              if line.startswith("error:")]
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert len(errors) == 1 and not wrote
    elif code == 0:
        assert errors == []
        spec = cfg["homotopy"]
        assert len(trace) == spec.get("steps", 32) + 1
        assert all(row["winding"] == spec.get("winding", 1) for row in trace)


#: Points of the planar annulus in X and outside it: 3.0, -2.5i, 2.05 and
#: -1.5 + 1.5i lie outside X
FUZZ_GRID_POINTS = [[[0.5, 0.0]], [[3.0, 0.0]], [[1.5, 0.0]], [[0.0, -2.5]],
                    [[-1.2, 0.3]], [[2.05, 0.0]], [[0.0, -1.9]],
                    [[-1.5, 1.5]]]
#: Mostly valid configs of each oracle kind
FUZZ_ORACLE_KINDS = {
    # a spacing of 1/16 or coarser: the default 1/128 takes seconds
    "grid": st.fixed_dictionaries({
        "pair": st.just({"variant": "planar_annulus"}),
        "points": st.lists(st.sampled_from(FUZZ_GRID_POINTS), min_size=1,
                           max_size=2),
        "oracle": st.fixed_dictionaries({
            "kind": st.just("grid"),
            "spacing": st.sampled_from([1 / 16, 0.125, 0.25, 0.5, 1.0,
                                        3.0])})}),
    "closed_form": st.sampled_from(sorted(FUZZ_PAIRS)).flatmap(
        lambda variant: st.fixed_dictionaries({
            "pair": st.just({"variant": variant}),
            "points": st.lists(st.sampled_from(FUZZ_PAIRS[variant]),
                               max_size=2),
            "oracle": st.builds(
                lambda expr: {"kind": "closed_form", "expr": expr},
                st.sampled_from(["max(log(abs(z1)), 0.0)", "re(z1)",
                                 "abs(z1) + 0.5", "nonsense(("]))})),
    "kiselman": st.fixed_dictionaries({
        "pair": st.just({"variant": "hartogs"}),
        "obstacle": st.sampled_from([
            {"expr": "abs(z2)", "rotation_invariant": True},
            {"expr": "re(z1) + abs(z2) * abs(z2)",
             "rotation_invariant": True},
            # invariant without the key, and not invariant despite it
            {"expr": "abs(z2)"},
            {"expr": "re(z2)", "rotation_invariant": True},
            {"expr": "re(z2)"}]),
        "points": st.lists(st.sampled_from(FUZZ_PAIRS["hartogs"]),
                           max_size=2),
        "oracle": st.just({"kind": "kiselman"})}),
}
#: One oracle config, then one change in five that validation rejects
FUZZ_ORACLE = st.sampled_from(list(FUZZ_ORACLE_KINDS)).flatmap(
    FUZZ_ORACLE_KINDS.get).map(
    lambda cfg: {"experiment": "fuzz-oracle",
                 "obstacle": {"builtin": "log_abs"}, **cfg}).flatmap(
    lambda cfg: st.sampled_from([{}] * 20 + [
        # over the node cap, not positive, an unknown kind and an unknown key
        {"spacing": 1e-300}, {"spacing": 1e-3}, {"spacing": 0},
        {"kind": "nope"}, {"caps": [1.0]},
    ]).map(lambda change: {**cfg, "oracle": {**cfg["oracle"], **change}}))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cfg=FUZZ_ORACLE)
def test_oracle_runs_exit_with_a_documented_code(cfg):
    """An oracle run exits 0 or 2; exit 2 prints one error: line and
    writes nothing, exit 0 writes one row per point and, for the grid,
    the field."""
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(pathlib.Path(tmp), cfg)
        out = pathlib.Path(tmp) / "run"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = run(["oracle", "--config", path, "--out", out, "--quiet"])
        wrote = sorted(p.name for p in out.iterdir()) if out.exists() else []
        rows = read_rows(out) if code == 0 else None
    errors = [line for line in err.getvalue().splitlines()
              if line.startswith("error:")]
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert len(errors) == 1 and wrote == []
    else:
        assert errors == [] and len(rows) == len(cfg["points"])
        assert ("grid_field.csv" in wrote) == (cfg["oracle"]["kind"] == "grid")


#: Small Cesaro runs, then one change in three that validation rejects
FUZZ_CESARO = st.fixed_dictionaries({}, optional={
    "m": st.sampled_from([8, 16, 32]),
    "m_w": st.sampled_from([8, 16, 64, 256]),
    "j_values": st.lists(st.integers(0, 8), max_size=3),
    "amplitude": st.sampled_from([0.0, 0.02, 0.5])}).flatmap(
    lambda spec: st.sampled_from([{}] * 14 + [
        {"m": 48}, {"m": 2 ** 62}, {"m": 1024, "m_w": 2048}, {"m_w": 4},
        {"j_values": [-1]}, {"j_values": [10 ** 6]}, {"amplitude": "x"},
    ]).map(lambda change: {**spec, **change}))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=FUZZ_CESARO)
def test_cesaro_runs_exit_with_a_documented_code(spec):
    """A Cesaro run exits 0 or 2; exit 2 prints one error: line and
    writes nothing, exit 0 writes one error per order j.  The defaults
    are m = 64, m_w = 2048 and six orders up to 256, so a spec that
    leaves j_values out on a small w-grid is rejected."""
    cfg = {"experiment": "fuzz-cesaro", "pair": {"variant": "planar_annulus"},
           "cesaro": spec}
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(pathlib.Path(tmp), cfg)
        out = pathlib.Path(tmp) / "run"
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = run(["cesaro", "--config", path, "--out", out, "--quiet"])
        wrote = out.exists()
        lines = (out / "cesaro.csv").read_text().splitlines() \
            if code == 0 else None
    errors = [line for line in err.getvalue().splitlines()
              if line.startswith("error:")]
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert len(errors) == 1 and not wrote
    else:
        assert errors == []
        assert len(lines) == 1 + len(spec.get("j_values", range(6)))
