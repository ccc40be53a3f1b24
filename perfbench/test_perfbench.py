"""Tests of the benchmark's own code, and of one known package defect.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import signal
import time

import numpy as np
import pytest

import hostspeed
import tracing
import workloads

workloads.load_package()


@pytest.mark.xfail(raises=FileNotFoundError, strict=False,
                   reason="GridField.to_csv does not create the --out "
                          "directory; _atomic_write does")
@pytest.mark.parametrize("command", ["oracle", "compare"])
def test_grid_oracle_into_missing_out_dir(tmp_path, command):
    from discenv import cli
    cfg = {"experiment": "grid_out_dir", "pair": {"variant": "planar_annulus"},
           "obstacle": {"builtin": "log_abs"}, "points": [[[0.5, 0.0]]],
           "families": [{"kind": "constant"}], "starts": 1, "budget": 10,
           "oracle": {"kind": "grid", "spacing": 0.125}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "missing" / "out"
    rc = cli.main([command, "--config", str(path), "--out", str(out),
                   "--quiet"])
    assert rc == 0
    assert (out / "grid_field.csv").is_file()
    assert (out / "results.csv").is_file()


def test_self_time_subtracts_child_spans(monkeypatch):
    # a clock that only moves when a test function says so, so the
    # figures are exact however loaded the machine is
    now = [0]
    monkeypatch.setattr(tracing, "perf_counter_ns", lambda: now[0])
    tracer = tracing.Tracer()

    def inner():
        now[0] += 20_000_000

    def outer():
        now[0] += 10_000_000
        wrapped_inner()
        wrapped_inner()

    wrapped_inner = tracer._wrap("inner", inner)
    tracer.call("outer", outer)
    summary = tracer.summary()
    assert summary["outer"]["calls"] == 1
    assert summary["inner"]["calls"] == 2
    assert summary["outer"]["total_s"] == pytest.approx(
        summary["outer"]["self_s"] + summary["inner"]["self_s"])
    assert summary["outer"]["self_s"] == pytest.approx(0.01)
    assert summary["inner"]["self_s"] == pytest.approx(0.04)
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]


def test_install_patches_lookup_sites_and_uninstall_restores():
    import scipy.optimize
    from discenv import cli, discs, envelope, oracles
    before = (envelope.minimize, cli.grid_obstacle_solver,
              discs.AnalyticDisc.evaluate)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert envelope.minimize is not scipy.optimize.minimize
        assert cli.grid_obstacle_solver is not oracles.grid_obstacle_solver
    finally:
        tracer.uninstall()
    assert (envelope.minimize, cli.grid_obstacle_solver,
            discs.AnalyticDisc.evaluate) == before


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_seed(name):
    wl = workloads.WORKLOADS[name]
    a, b, c = wl.generate(3), wl.generate(3), wl.generate(4)
    dump = lambda inputs: json.dumps(  # noqa: E731
        inputs, default=lambda v: np.asarray(v).tobytes().hex())
    assert dump(a) == dump(b)
    assert dump(a) != dump(c)


def test_homotopy_inputs_are_admissible():
    inputs = workloads.WORKLOADS["sampled_partial"].generate(0)
    for k, samples in inputs["discs"]:
        base, fn = samples[:, 0], samples[:, 1]
        assert np.max(np.abs(base)) < 1
        assert 0.25 < np.min(np.abs(fn)) and np.max(np.abs(fn)) < 1


def test_reference_seconds_scale_work_and_leave_probes_out():
    speed = hostspeed.SpeedProbe()
    ref = hostspeed.REFERENCE_PASS_S["small"]
    # probes [0, 1], [3, 4], [10, 11] with passes ref, 2 ref, 3 ref
    speed.starts, speed.ends = [0.0, 3.0, 10.0], [1.0, 4.0, 11.0]
    speed.passes = {"small": [ref, 2 * ref, 3 * ref]}
    # work 1-3 at the mean of speeds 1 and 1/2, work 4-10 at the mean of
    # speeds 1/2 and 1/3 (relative to the reference)
    assert speed.reference_seconds(1.0, 10.0) == pytest.approx(
        2.0 * 0.75 + 6.0 * 5 / 12)
    assert speed.measured_seconds(1.0, 10.0) == pytest.approx(8.0)
    assert speed.reference_seconds(5.0, 7.0) == pytest.approx(2.0 * 5 / 12)
    with pytest.raises(ValueError):
        speed.reference_seconds(10.5, 12.0)


def test_periodic_probes_stop_and_restore_the_handler():
    speed = hostspeed.SpeedProbe()
    before = signal.getsignal(signal.SIGALRM)
    with speed.periodic(period=0.05):
        t_end = time.perf_counter() + 0.5
        while time.perf_counter() < t_end:
            sum(range(1000))
    assert len(speed.ends) >= 3
    n = len(speed.ends)
    time.sleep(0.15)
    assert len(speed.ends) == n
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_probes_in_a_traced_round_are_spans_of_their_own():
    speed = hostspeed.SpeedProbe()
    tracer = tracing.Tracer()

    def busy():
        t_end = time.perf_counter() + 0.3
        while time.perf_counter() < t_end:
            sum(range(1000))

    with speed.periodic(tracer, period=0.05):
        tracer.call("work", busy)
    summary = tracer.summary()
    probes = summary["host.probe"]
    assert probes["calls"] == len(speed.ends) >= 2
    assert summary["work"]["self_s"] == pytest.approx(
        summary["work"]["total_s"] - probes["self_s"])
