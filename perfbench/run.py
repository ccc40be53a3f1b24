"""Benchmark of the discenv envelope search, its oracles and the sampled,
partial and homotopy paths.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json and perfbench/README.md): hartogs_kiselman,
annulus_grid, sampled_partial.  The run draws its inputs from --seed,
times the set-up in fresh interpreters, then repeats rounds of the
workload, each on the same inputs, for about --seconds seconds and at
least two rounds.  Every output is checked.  With --trace 0 the
end-to-end metrics are reported; with --trace 1 untraced and traced
rounds alternate, and the per-layer metrics come from the traced ones.

Times are in reference seconds: measured seconds corrected for the
host's speed by a fixed kernel timed in the same thread around the work
(see hostspeed.py).  Each run also prints the measured seconds.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit status is 1 when a
check failed and 2 when the run could not start (e.g. no discenv
sources in the checkout).
"""

import os

# One process, one thread: pin the BLAS and OpenMP pools before numpy
# is imported.  Set-up probes inherit the same environment.
THREAD_PINNING = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINNING)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = workloads.ROOT / ".perfbench"
SETUP_PROBES = 5
MIN_ROUNDS = 2
MAX_MEASURE_S = 140.0   # keeps a run inside its 180 s limit

END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("point_s_p50", "s"),
    ("peak_rss_mb", "MB"), ("ok_frac", "ratio"),
    ("accuracy_headroom", "ratio")]

PER_LAYER = [
    ("discs.evaluate.calls", "count"), ("discs.evaluate.s", "s"),
    ("discs.evaluate.horner_macs", "count"),
    ("discs.construct.calls", "count"), ("discs.construct.s", "s"),
    ("domains.margin.calls", "count"), ("domains.margin.points", "count"),
    ("domains.margin.s", "s"),
    ("domains.obstacle.calls", "count"), ("domains.obstacle.s", "s"),
    ("functionals.poisson.calls", "count"), ("functionals.poisson.s", "s"),
    ("functionals.partial_stats.calls", "count"),
    ("functionals.partial_stats.s", "s"),
    ("families.build.calls", "count"), ("families.build.s", "s"),
    ("families.barrier_frac", "ratio"),
    ("envelope.nm.starts", "count"), ("envelope.nm.nfev", "count"),
    ("envelope.nm.s", "s"), ("envelope.overhead_us_per_call", "us"),
    ("envelope.err_max", "value"),
    ("oracles.grid.s", "s"), ("oracles.grid.levels", "count"),
    ("oracles.grid.sup_err", "value"),
    ("oracles.relax.sweeps", "count"), ("oracles.relax.sweeps_final", "count"),
    ("oracles.relax.s", "s"), ("oracles.relax.ns_per_node_sweep", "ns"),
    ("oracles.build_grid.s", "s"),
    ("oracles.kiselman.calls", "count"), ("oracles.kiselman.s", "s"),
    ("hartogs.homotopy.calls", "count"), ("hartogs.homotopy.s", "s"),
    ("cli.write.bytes", "B"), ("cli.write.s", "s"),
    ("config.load.s", "s"),
    ("trace.spans", "count"), ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"), ("host.pass_ms", "ms")]


def machine():
    import numpy
    import scipy
    return {"cores": os.cpu_count(), "arch": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "threads": THREAD_PINNING}


def time_setup(name, seed, workdir):
    """Median set-up time over fresh interpreters, each in reference
    seconds by the kernel passes the probe times after its set-up;
    also the median measured seconds."""
    times = []
    measured = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"),
             "--workload", name, "--seed", str(seed),
             "--workdir", str(workdir)],
            capture_output=True, text=True, timeout=60, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        setup, pass_s = (float(v) for v in proc.stdout.split()[-2:])
        times.append(setup * hostspeed.REFERENCE_PASS_S["small"] / pass_s)
        measured.append(setup)
    return statistics.median(times), statistics.median(measured)


def run_rounds(wl, state, workdir, seconds, trace, speed):
    """Repeat rounds until about ``seconds`` have passed.  In a traced
    run, untraced and traced rounds alternate.  A speed probe opens and
    closes each round, and probes interrupt it every hostspeed.PERIOD_S.
    Returns the raw round outputs, with ``wall_s`` (measured) and
    ``ref_s`` (reference seconds), and their tracers (None for an
    untraced round)."""
    rounds = []
    t_start = perf_counter()
    while True:
        tracer = Tracer() if trace and len(rounds) % 2 == 1 else None
        outdir = workdir / f"round{len(rounds)}"
        if tracer is not None:
            tracer.install()
        speed.probe()
        t0 = perf_counter()
        try:
            with speed.periodic(tracer):
                raw = wl.run_round(state, outdir, tracer)
        except Exception as exc:  # a crashed round fails all its operations
            traceback.print_exc()
            raw = {"rc": repr(exc), "dir": outdir, "errors": {},
                   "crashed": True}
        finally:
            t1 = perf_counter()
            if tracer is not None:
                tracer.uninstall()
        speed.probe()
        raw["wall_s"] = speed.measured_seconds(t0, t1)
        raw["ref_s"] = speed.reference_seconds(t0, t1)
        if not raw.get("crashed"):
            wl.finish_round(raw, speed)
        rounds.append((raw, tracer))
        elapsed = perf_counter() - t_start
        typical = statistics.median(r["wall_s"] for r, _ in rounds)
        enough = len(rounds) >= MIN_ROUNDS \
            and (not trace or len(rounds) % 2 == 0)
        if enough and (elapsed + typical * (2 if trace else 1) > seconds
                       or elapsed > MAX_MEASURE_S):
            return rounds


def check_rounds(wl, state, rounds):
    first = None
    checked = []
    for raw, _ in rounds:
        try:
            c = wl.check_round(state, raw, first)
        except Exception:  # a check that cannot run fails the round
            traceback.print_exc()
            c = workloads.Checked()
            c.op("round", False, "check raised")
        checked.append(c)
        if first is None:
            first = c
    return checked


def layer_metrics(rounds, checked, speed):
    traced = [(r, t) for r, t in rounds if t is not None]
    plain = [r["ref_s"] for r, t in rounds if t is None]
    n = len(traced)
    tot = defaultdict(float)
    for _, tracer in traced:
        for name, row in tracer.summary().items():
            tot[name + ".calls"] += row["calls"]
            tot[name + ".s"] += row["self_s"]
        for key, value in tracer.counts.items():
            tot[key] += value
        tot["trace.spans"] += len(tracer.spans)
        tot["oracles.grid.levels"] += len(tracer.relax_sweeps)
        tot["oracles.relax.sweeps"] += sum(tracer.relax_sweeps)
        tot["oracles.relax.sweeps_final"] += \
            tracer.relax_sweeps[-1] if tracer.relax_sweeps else 0
    m = {k: v / n for k, v in tot.items()}
    get = lambda key: m.get(key, 0.0)  # noqa: E731
    nfev = get("envelope.nm.nfev")
    node_sweeps = get("oracles.relax.node_sweeps")
    attempts = get("families.attempts")
    traced_wall = statistics.median(r["ref_s"] for r, _ in traced)
    plain_wall = statistics.median(plain)
    acc = worst_accuracy(checked)
    out = {name: get(name) for name, _ in PER_LAYER}
    out.update({
        "envelope.nm.starts": get("envelope.nm.calls"),
        "families.barrier_frac":
            get("families.barrier") / attempts if attempts else 0.0,
        "envelope.overhead_us_per_call":
            get("envelope.nm.s") * 1e6 / nfev if nfev else 0.0,
        "oracles.relax.ns_per_node_sweep":
            get("oracles.relax.s") * 1e9 / node_sweeps if node_sweeps else 0.0,
        "envelope.err_max": acc.get("envelope_err", (0.0, 1.0))[0],
        "oracles.grid.sup_err": acc.get("grid_sup_err", (0.0, 1.0))[0],
        "trace.overhead_s": traced_wall - plain_wall,
        "trace.overhead_frac": (traced_wall - plain_wall) / plain_wall,
        "host.pass_ms": speed.median_pass() * 1e3,
    })
    levels = traced[0][1].relax_sweeps if traced else []
    return out, levels


def worst_accuracy(checked):
    total = workloads.Checked()
    for c in checked:
        for name, (err, tol) in c.accuracy.items():
            total.worst(name, err, tol)
    return total.accuracy


def point_times(checked):
    """Each point's median time over the rounds that timed every point
    (every round repeats the same points with the same search seed)."""
    full = max((len(c.point_times) for c in checked), default=0)
    rows = [c.point_times for c in checked if full and
            len(c.point_times) == full]
    return [statistics.median(col) for col in zip(*rows)], len(rows)


def end_to_end(setup_s, rounds, checked, peak_rss_mb, attempted, failed):
    times, repeats = point_times(checked)
    acc = worst_accuracy(checked)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(r["ref_s"] for r, _ in rounds),
        # no point time at all means every round crashed: correct is false
        "point_s_p50": statistics.median(times) if times else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": 1.0 - failed / attempted,
        "accuracy_headroom":
            min([1.0 - err / tol for err, tol in acc.values()] or [1.0]),
    }, (len(times), repeats), acc


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads.load_package()
    wl = workloads.WORKLOADS[args.workload]
    speed = hostspeed.SpeedProbe(wl.probe_kinds)
    workdir = WORK_ROOT / (f"{args.workload}-s{args.seed}-t{args.trace}"
                           f"-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inputs = wl.generate(args.seed)
        state = wl.setup(inputs, workdir)
        setup_s, setup_measured = time_setup(args.workload, args.seed,
                                             workdir)
        for _ in range(3):   # warm the kernel before the first round
            speed.probe()
        rounds = run_rounds(wl, state, workdir, args.seconds,
                            bool(args.trace), speed)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checked = check_rounds(wl, state, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for c in checked for op in c.ops]
    attempted = len(ops)
    failed = sum(not ok for _, ok, _ in ops)
    for kind, ok, detail in ops:
        if not ok:
            print(f"FAILED {kind}: {detail}", file=sys.stderr)
    e2e, n_times, acc = end_to_end(setup_s, rounds, checked, peak_rss_mb,
                                   attempted, failed)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(rounds)} rounds, {attempted} operations, {failed} failed")
    print("machine " + json.dumps(machine(), sort_keys=True))
    for name, (err, tol) in sorted(acc.items()):
        print(f"  accuracy {name:<32} {err:.6e} (tolerance {tol:g})")
    for kind in speed.kinds:
        passes = speed.passes[kind]
        print(f"  speed probe {kind}: median pass "
              f"{statistics.median(passes) * 1e3:.2f} ms (reference "
              f"{hostspeed.REFERENCE_PASS_S[kind] * 1e3:.0f} ms), range "
              f"{min(passes) * 1e3:.2f}-{max(passes) * 1e3:.2f} ms over "
              f"{len(passes)} probes")
    print("  round measured s " + " ".join(
        f"{r['wall_s']:.3f}{'*' if t is not None else ''}" for r, t in rounds)
        + ("  (* traced)" if args.trace else ""))
    print("  round reference s " + " ".join(
        f"{r['ref_s']:.3f}" for r, _ in rounds))
    print(f"  set-up measured s {setup_measured:.4f} (median)")
    print(f"  point_s_p50 is the median of {n_times[0]} points, each the "
          f"median of {n_times[1]} rounds")
    if args.trace:
        metrics, levels = layer_metrics(rounds, checked, speed)
        units = dict(PER_LAYER)
        print(f"  oracles.relax.sweeps per level {levels}")
        spans = WORK_ROOT / f"spans-{args.workload}-s{args.seed}.json"
        for i, (_, tracer) in enumerate(t for t in rounds if t[1] is not None):
            tracer.dump(spans.with_suffix(f".round{i}.json"))
        print(f"  spans written to {spans.parent}")
    else:
        metrics = e2e
        units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"  {name:<36} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
