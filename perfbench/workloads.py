"""Seeded workloads of the discenv benchmark and their correctness checks.

Each workload has four steps:

* ``generate(seed)`` draws the inputs with numpy alone, so the package
  under test only ever sees the generated configs and arrays;
* ``setup(inputs, workdir)`` validates and builds everything up to the
  first call into a search or solver (this is what ``setup_s`` times);
* ``run_round(state, outdir, tracer)`` runs one round of the workload
  and returns its raw outputs, and ``finish_round(raw, speed)`` turns
  its timings into reference seconds (hostspeed.py) once the round's
  closing speed probe is taken;
* ``check_round(state, raw, first)`` turns those outputs into operations
  (each one passes or fails), per-point times and accuracy figures.

The search's own ``seed`` setting stays 0, as in the acceptance suite.
The benchmark seed draws the points, the sampled discs and the homotopy
discs.  Varying the search seed moves the best strictly feasible probe,
and with it the envelope error, between 1e-15 and 7e-7, so no bound
could hold an accuracy figure across seeds.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_package():
    """Import discenv from the checkout's own ``src`` and nowhere else."""
    if not (SRC / "discenv" / "__init__.py").is_file():
        print(f"perfbench: no discenv sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import discenv
    if Path(discenv.__file__).resolve().parent != SRC / "discenv":
        print(f"perfbench: imported discenv from {discenv.__file__}, not "
              f"from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return discenv


def _call(tracer, name, fn, *args, **kwargs):
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


def _stratified(rng, edges):
    """One uniform draw inside each interval of ``edges``, kept 2 % away
    from the interval ends."""
    lo, hi = np.asarray(edges[:-1]), np.asarray(edges[1:])
    return lo + (hi - lo) * rng.uniform(0.02, 0.98, lo.size)


@dataclass
class Checked:
    """Outcome of the checks on one round."""
    ops: list = field(default_factory=list)          # (kind, ok, detail)
    point_times: list = field(default_factory=list)  # reference seconds
                                                     # per point
    accuracy: dict = field(default_factory=dict)     # name -> (error, tol)
    extras: dict = field(default_factory=dict)

    def op(self, kind, ok, detail=""):
        self.ops.append((kind, bool(ok), detail))

    def worst(self, name, err, tol):
        old = self.accuracy.get(name, (-np.inf, tol))[0]
        self.accuracy[name] = (max(old, float(err)), tol)


class _CallTimes:
    """Record the start and end of every call of ``owner.attr`` (patched
    where it is looked up) while the context is open."""

    def __init__(self, owner, attr):
        self.owner, self.attr = owner, attr
        self.intervals = []

    def __enter__(self):
        self.original = self.owner.__dict__[self.attr]
        intervals, fn = self.intervals, self.original

        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                intervals.append((t0, perf_counter()))

        setattr(self.owner, self.attr, timed)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.attr, self.original)
        return False


# ---------------------------------------------------------------------------
# `discenv compare` workloads
# ---------------------------------------------------------------------------

class CompareWorkload:
    """One round is one ``discenv compare`` run through ``cli.main``.

    The output directory is created by the benchmark before each run:
    with a grid oracle, ``GridField.to_csv`` does not create ``--out`` the
    way ``_atomic_write`` does, and the run crashes with a
    FileNotFoundError (see test_perfbench.py).
    """

    env_tol = None      # acceptance tolerance on |envelope - closed form|
    probe_kinds = ("small",)   # speed-probe kernels (hostspeed.py)

    def generate(self, seed):
        raise NotImplementedError

    def closed_form(self, point):
        raise NotImplementedError

    def setup(self, inputs, workdir):
        from discenv import config, envelope, functionals
        path = workdir / "config.json"
        if not path.exists():
            path.write_text(json.dumps(inputs, indent=1) + "\n")
        cfg = config.load_config(str(path))
        w, x_spec, _, hartogs = config.build_pair(cfg)
        phi = config.build_obstacle(cfg, x_spec.n)
        grid = functionals.QuadratureGrid(cfg["quadrature_m"])
        points = [config.parse_point(p, x_spec.n) for p in cfg["points"]]
        requests = [envelope.EnvelopeRequest(
            pair=(w, x_spec), phi=phi, x=p,
            families=config.build_families(cfg, p, hartogs),
            penalty_weight=cfg["penalty_weight"], starts=cfg["starts"],
            budget=cfg["budget"], seed=cfg["seed"], grid=grid)
            for p in points]
        return {"config": str(path), "points": points, "requests": requests}

    def run_round(self, state, outdir, tracer):
        """One ``discenv compare`` run.  The start and end of each point's
        search (the call that ``runtime_s`` times) are recorded, so that
        finish_round can find the speed probes that fell inside it."""
        from discenv import cli
        os.makedirs(outdir)
        argv = ["compare", "--config", state["config"], "--out", str(outdir),
                "--quiet"]
        with _CallTimes(cli, "minimize_envelope") as searches:
            rc = _call(tracer, "bench.compare", cli.main, argv)
        return {"rc": rc, "dir": outdir, "searches": searches.intervals}

    def finish_round(self, raw, speed):
        """For each point: the probe time inside its search, and the
        reference seconds per measured second of the rest."""
        raw["point_corr"] = []
        for a, b in raw["searches"]:
            work = speed.measured_seconds(a, b)
            raw["point_corr"].append(
                (b - a - work, speed.reference_seconds(a, b) / work))

    def check_round(self, state, raw, first):
        out = Checked()
        points = state["points"]
        rows = []
        try:
            if raw["rc"] != 0:
                raise RuntimeError(f"discenv compare exited {raw['rc']}")
            report = json.loads((raw["dir"] / "report.json").read_text())
            rows = report["rows"]
            if len(rows) != len(points):
                raise RuntimeError(f"{len(rows)} rows for {len(points)} "
                                   "points")
            csv_bytes = (raw["dir"] / "results.csv").read_bytes()
        except (OSError, ValueError, KeyError, RuntimeError) as exc:
            for _ in points:
                out.op("point", False, str(exc))
            self.check_extra(state, raw, first, out, ok=False)
            return out
        out.extras["results_csv"] = csv_bytes
        same = first is None or csv_bytes == first.extras["results_csv"]
        corr = raw.get("point_corr", ())
        if len(corr) != len(rows):
            raise RuntimeError(f"{len(corr)} searches timed for "
                               f"{len(rows)} rows")
        for point, row, (probes_s, scale) in zip(points, rows, corr):
            err = abs(row["envelope"] - self.closed_form(point))
            out.worst("envelope_err", err, self.env_tol)
            problems = []
            if not row["feasible"]:
                problems.append("infeasible")
            if err > self.env_tol:
                problems.append(f"|envelope - closed form| = {err:.3e}")
            if not same:
                problems.append("results.csv differs from the first round")
            problems += self.check_row(row, out)
            out.op("point", not problems, "; ".join(problems))
            out.point_times.append(
                (float(row["runtime_s"]) - probes_s) * scale)
        self.check_extra(state, raw, first, out, ok=True)
        return out

    def check_row(self, row, out):
        return []

    def check_extra(self, state, raw, first, out, ok):
        pass


class HartogsKiselman(CompareWorkload):
    """Standard Hartogs pair with the Kiselman oracle (criterion 1)."""

    name = "hartogs_kiselman"
    n_points = 2
    env_tol = 1e-2       # criterion 1
    sandwich_tol = 1e-3  # criterion 1: psi - envelope

    def generate(self, seed):
        rng = np.random.default_rng([seed, 1])
        r = 0.6 * np.sqrt(rng.uniform(0.0, 1.0, self.n_points))
        z1 = r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, self.n_points))
        return {
            "experiment": "bench_hartogs_kiselman",
            "pair": {"variant": "hartogs", "n": 2, "base_radius": 1.0,
                     "r": 0.25, "R": 1.0},
            "obstacle": {"expr": "re(z1) + abs(z2)*abs(z2)",
                         "rotation_invariant": True},
            "points": [[[float(z.real), float(z.imag)], [0.0, 0.0]]
                       for z in z1],
            "families": [
                {"kind": "vertical", "winding": 1, "s_range": [0.25, 1.0]},
                {"kind": "vertical", "winding": 2, "s_range": [0.25, 1.0]}],
            "quadrature_m": 512, "starts": 8, "budget": 400, "seed": 0,
            "oracle": {"kind": "kiselman"},
            "tolerances": {"gap": self.env_tol},
        }

    def closed_form(self, point):
        return float(np.real(point[0])) + 1.0 / 16

    def check_row(self, row, out):
        excess = row["oracle"] - row["envelope"]
        out.worst("kiselman_sandwich", max(excess, 0.0), self.sandwich_tol)
        if excess > self.sandwich_tol:
            return [f"psi - envelope = {excess:.3e}"]
        return []


class AnnulusGrid(CompareWorkload):
    """Planar annulus with the grid oracle (criterion 2 at h = 1/128)."""

    name = "annulus_grid"
    env_tol = 2e-2    # criterion 2
    grid_tol = 1e-2   # criterion 2
    # Three points inside the unit circle, where the Blaschke search sets
    # the value and every point does about the same work, and one in the
    # annulus, where the constant disc wins and a point costs a quarter
    # to a half as much.  With this mix for every seed the median point
    # time is the mean of two inner points' times, not the edge between
    # the two groups.  Four points keep a round near 25 s, so that a run
    # can repeat it (the grid solve costs the same however many points).
    edges_inner = (0.0, 1.0 / 3, 2.0 / 3, 1.0)
    edges_outer = (1.0, 1.9)
    # the grid relaxation is timed against a kernel of its own kind
    probe_kinds = ("small", "grid")

    def generate(self, seed):
        rng = np.random.default_rng([seed, 2])
        xs = np.concatenate([_stratified(rng, self.edges_inner),
                             _stratified(rng, self.edges_outer)])
        return {
            "experiment": "bench_annulus_grid",
            "pair": {"variant": "planar_annulus"},
            "obstacle": {"builtin": "log_abs"},
            "points": [[[float(x), 0.0]] for x in xs],
            "families": [
                {"kind": "constant"},
                {"kind": "blaschke", "zeros": 1, "s_range": [1.0, 2.0]},
                {"kind": "blaschke", "zeros": 2, "s_range": [1.0, 2.0]}],
            "quadrature_m": 256, "starts": 4, "budget": 300, "seed": 0,
            "oracle": {"kind": "grid", "spacing": 1.0 / 64},
            "tolerances": {"gap": self.env_tol},
        }

    def closed_form(self, point):
        return max(float(np.log(abs(point[0]))), 0.0)

    def run_round(self, state, outdir, tracer):
        from discenv import oracles
        with _CallTimes(oracles, "_relax") as relax:
            raw = super().run_round(state, outdir, tracer)
        raw["relax"] = relax.intervals
        return raw

    def finish_round(self, raw, speed):
        """The grid levels' relaxation counts at the grid kernel's speed,
        the rest of the round at the small kernel's."""
        super().finish_round(raw, speed)
        for a, b in raw["relax"]:
            raw["ref_s"] += speed.reference_seconds(a, b, "grid") \
                - speed.reference_seconds(a, b, "small")

    def check_extra(self, state, raw, first, out, ok):
        """The grid solve is one operation; its field must match the
        closed form max(log|z|, 0) to the criterion-2 tolerance."""
        path = raw["dir"] / "grid_field.csv"
        try:
            data = path.read_bytes()
            if first is not None and data == first.extras.get("grid_csv"):
                err = first.accuracy["grid_sup_err"][0]
            else:
                err = grid_sup_err(path)
        except (OSError, ValueError) as exc:
            out.op("grid", False, str(exc))
            return
        out.extras["grid_csv"] = data
        out.worst("grid_sup_err", err, self.grid_tol)
        out.op("grid", ok and err <= self.grid_tol,
               f"grid sup-error {err:.3e}")


def grid_sup_err(path):
    """Largest |field - max(log|z|, 0)| over nodes more than 2h inside the
    boundary |z| = 2 of X, read from a grid_field.csv."""
    x, y, value, _ = np.loadtxt(path, delimiter=",", skiprows=1,
                                unpack=True)
    z = x + 1j * y
    h = float(np.min(np.diff(np.unique(x))))
    inside = 2.0 - np.abs(z) > 2 * h
    exact = np.maximum(np.log(np.maximum(np.abs(z), 1e-300)), 0.0)
    return float(np.max(np.abs(value - exact)[inside]))


# ---------------------------------------------------------------------------
# Library paths that use the envelope layer without minimize_envelope
# ---------------------------------------------------------------------------

class SampledPartial:
    """Sampling on the counterexample pair (criterion 8), the partial
    staircase on the annulus (criterion 3) and the Hartogs homotopy
    (criterion 5), called through the library."""

    name = "sampled_partial"
    probe_kinds = ("small",)
    samples_per_family = 150   # criterion 8
    eps_values = (0.5, 0.2, 0.05)
    n_discs = 20               # criterion 5
    m_homotopy = 256
    steps = 32
    min_feasible = 500         # criterion 8
    min_average = -0.9         # criterion 8
    staircase_noise = 1e-3     # criterion 3
    partial_tol = 5e-2         # criterion 3: |partial - 0|
    centre_tol = 1e-10         # criterion 5

    def generate(self, seed):
        rng = np.random.default_rng([seed, 3])
        discs = []
        while len(discs) < self.n_discs:
            k = len(discs) % 3
            samples = _admissible_disc(rng, k, self.m_homotopy)
            if samples is not None:
                discs.append((k, samples))
        return {"seed": seed, "discs": discs}

    def setup(self, inputs, workdir):
        from discenv import discs, domains, envelope, expressions, families, \
            functionals, hartogs
        centre = [0.0, 0.0]
        w, x_spec, phi = domains.counterexample_pair()
        blaschke = families.BlaschkeFamily
        fams = [families.ConstantFamily(centre),
                blaschke(centre, n_zeros=1, s_range=(0.05, 0.29)),
                blaschke(centre, n_zeros=1, s_range=(0.71, 0.99)),
                blaschke(centre, n_zeros=2, s_range=(0.71, 0.99)),
                families.PolynomialFamily(centre, degree=3, scale=0.15)]
        sample_req = envelope.EnvelopeRequest(
            pair=(w, x_spec), phi=phi, x=centre, families=fams,
            grid=functionals.QuadratureGrid(128), seed=inputs["seed"])
        # The staircase runs at the origin, the criterion-3 point.  At a
        # point drawn from the seed the Nelder-Mead work of a partial
        # search changes by up to a quarter between seeds (892 to 1127
        # function evaluations), which would move point_s_p50 with the
        # seed rather than with the code.
        xp = 0.0
        partial_req = envelope.EnvelopeRequest(
            pair=domains.planar_annulus_pair(),
            phi=expressions.obstacle_from_expression("log(abs(z1))", 1),
            x=[xp], families=[blaschke([xp], n_zeros=1, s_range=(1.0, 2.0))],
            grid=functionals.QuadratureGrid(256), seed=0, starts=4,
            budget=300)
        pair = hartogs.HartogsPair(
            domains.ball(1.0, 1),
            lambda zp: np.full(zp.shape[:-1], 0.25),
            lambda zp: np.full(zp.shape[:-1], 1.0))
        disc_list = [(k, discs.AnalyticDisc(s)) for k, s in inputs["discs"]]
        return {"sample_req": sample_req, "partial_req": partial_req,
                "pair": pair, "discs": disc_list}

    def run_round(self, state, outdir, tracer):
        from discenv import envelope, hartogs
        raw = {"errors": {}}
        try:
            raw["sampled"] = _call(tracer, "bench.sample",
                                   envelope.sample_feasible_values,
                                   state["sample_req"],
                                   self.samples_per_family)
        except Exception as exc:  # an operation that raises fails
            raw["errors"]["sampled"] = repr(exc)
        raw["partial"] = {}
        raw["partial_iv"] = []
        for eps in self.eps_values:
            t0 = perf_counter()
            try:
                raw["partial"][eps] = _call(tracer, "bench.partial",
                                            envelope.partial_envelope,
                                            state["partial_req"], eps)
            except Exception as exc:
                raw["errors"][eps] = repr(exc)
            raw["partial_iv"].append((t0, perf_counter()))
        raw["traces"] = []
        for k, disc in state["discs"]:
            try:
                raw["traces"].append(_call(
                    tracer, "bench.homotopy_trace", hartogs.homotopy_trace,
                    state["pair"], disc, steps=self.steps))
            except Exception as exc:
                raw["traces"].append(repr(exc))
        return raw

    def finish_round(self, raw, speed):
        raw["partial_s"] = [speed.reference_seconds(a, b)
                            for a, b in raw["partial_iv"]]

    def check_round(self, state, raw, first):
        out = Checked()
        if "sampled" in raw:
            vals = raw["sampled"]
            ok = vals.size >= self.min_feasible \
                and float(np.min(vals)) >= self.min_average
            out.op("sampled", ok, f"{vals.size} feasible discs, min average "
                   f"{float(np.min(vals)) if vals.size else np.nan:.3f}")
        else:
            out.op("sampled", False, raw["errors"]["sampled"])

        values = raw["partial"]
        rises = [values[a] - values[b] for a, b in
                 zip(self.eps_values, self.eps_values[1:])
                 if a in values and b in values]
        stair_ok = len(values) == len(self.eps_values) \
            and max(rises) <= self.staircase_noise
        out.worst("staircase_rise", max([0.0] + rises), self.staircase_noise)
        for eps in self.eps_values:
            if eps not in values:
                out.op("partial", False, raw["errors"][eps])
                continue
            err = abs(values[eps])  # the partial envelope is 0 for |x| <= 1
            out.worst("envelope_err", err, self.partial_tol)
            ok = stair_ok and np.isfinite(values[eps]) \
                and err <= self.partial_tol
            out.op("partial", ok, f"eps={eps}: {values[eps]:.3e}")
        out.point_times.extend(raw["partial_s"])

        for (k, _), trace in zip(state["discs"], raw["traces"]):
            if isinstance(trace, str):
                out.op("homotopy", False, trace)
                continue
            dev = float(np.max(trace.centre_deviations))
            out.worst("centre_deviation", dev, self.centre_tol)
            ok = dev <= self.centre_tol and bool(np.all(trace.windings == k)) \
                and float(np.min(trace.min_margins)) > 0
            out.op("homotopy", ok, f"winding {k}, centre deviation {dev:.1e}")
        return out


def _admissible_disc(rng, k, m):
    """Boundary samples of a criterion-5 style disc with k zeros in the
    last component, or None when the draw leaves the shell
    W = {|z1| < 1, 1/4 < |z2| < 1} of the standard Hartogs pair."""
    zeta = np.exp(2j * np.pi * np.arange(m) / m)

    def cn():
        return rng.standard_normal() + 1j * rng.standard_normal()

    c = 0.3 * cn() / np.sqrt(2)
    base = c + 0.1 * cn() * zeta + 0.05 * cn() * zeta ** 2
    fn = np.full(m, 0.55 + 0.0j)
    for _ in range(k):
        a = 0.5 * cn() / np.sqrt(2)
        if abs(a) >= 0.9:   # a zero outside the disc changes the winding
            return None
        fn = fn * (zeta - a) / (1.0 - np.conj(a) * zeta)
    fn = fn * np.exp(0.08 * cn() * zeta)
    mod = np.abs(fn)
    margin = np.minimum(1.0 - np.abs(base),
                        np.minimum(mod - 0.25, 1.0 - mod))
    if np.min(margin) <= 0:
        return None
    return np.stack([base, fn], axis=1)


WORKLOADS = {w.name: w for w in (HartogsKiselman(), AnnulusGrid(),
                                 SampledPartial())}
