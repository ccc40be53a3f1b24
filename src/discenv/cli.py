"""Experiment runner: JSON config in, CSV/JSON reports out.

Subcommands: envelope, oracle, compare, homotopy, cesaro, emit-plot.
Exit codes: 0 success, 1 tolerance failure, 2 validation error,
3 infeasible envelope, 4 internal error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import tempfile
import time
import traceback

import numpy as np

from . import config as cfgmod
from .discs import cesaro_convergence
from .envelope import minimize_envelope
from .errors import ConfigurationError, DiscenvError, InfeasibleEnvelope
from .hartogs import homotopy_trace, vertical_disc
from .oracles import grid_obstacle_solver, kiselman_psi


def _atomic_write(path, text):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _point_label(point):
    return " ".join(repr(complex(c)) for c in point)


def _results_csv_text(rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["point", "envelope", "oracle", "gap", "feasible",
                     "max_violation"])
    for row in rows:
        writer.writerow([
            row["point"],
            repr(row["envelope"]) if row["envelope"] is not None else "",
            repr(row["oracle"]) if row["oracle"] is not None else "",
            repr(row["gap"]) if row["gap"] is not None else "",
            int(row["feasible"]),
            repr(row["max_violation"]),
        ])
    return buf.getvalue()


def _simd():
    """The SIMD extensions that numpy dispatches to in this process (the
    "found" list of ``np.show_runtime()``): last-bit results of the
    elementwise math, and so of a budget-capped search, depend on it."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [name for name in umath.__cpu_dispatch__
            if umath.__cpu_features__[name]]


def _write_outputs(outdir, cfg, rows, passed, extras=None, field=None):
    if field is not None:  # the grid oracle's, written with the rest
        field.to_csv(os.path.join(outdir, "grid_field.csv"))
    report = {
        "experiment": cfg["experiment"],
        "effective_config": cfg,
        "rows": rows,
        "metadata": {"seed": cfg["seed"], "quadrature_m": cfg["quadrature_m"],
                     "numpy_simd": _simd()},
        "pass": bool(passed),
    }
    if extras:
        report.update(extras)
    _atomic_write(os.path.join(outdir, "report.json"),
                  json.dumps(report, indent=2, sort_keys=True) + "\n")
    _atomic_write(os.path.join(outdir, "results.csv"),
                  _results_csv_text(rows))


def _oracle_values(cfg):
    """The configured oracle's value at each point, and the grid oracle's
    field or None; the grid oracle is solved once for all points."""
    oracle, b = cfg["oracle"], cfg.built
    if oracle["kind"] == "closed_form":
        return [float(b.closed_form(p[None, :])[0]) for p in b.points], None
    if oracle["kind"] == "kiselman":  # points in W are refused at load
        return [float(kiselman_psi(b.hartogs, b.phi, p[:-1]))
                for p in b.points], None
    field = grid_obstacle_solver((b.w, b.x_spec), b.phi, **cfgmod.given(
        oracle, cfgmod.ORACLE_KINDS["grid"][1]))
    values = field.interpolate([p[0] for p in b.points])
    return [float(v) for v in values], field


def _row(point, envelope=None, oracle=None, feasible=True,
         max_violation=0.0, runtime_s=0.0, **extra):
    """One row of results.csv and report.json; gap = envelope - oracle
    when both are known."""
    gap = None if envelope is None or oracle is None else envelope - oracle
    return {"point": point, "envelope": envelope, "oracle": oracle,
            "gap": gap, "feasible": feasible, "max_violation": max_violation,
            "runtime_s": runtime_s, **extra}


def run_points(cfg, outdir, search=True, compare=True, quiet=False):
    """Run the search, the oracle or both at each config point, then write
    one row per point.  ``oracle`` compares without searching and needs
    an oracle block; ``envelope`` searches without comparing."""
    built = cfg.built
    if built.phi is None:
        raise ConfigurationError("config.obstacle: required for this command")
    if not search and cfg.get("oracle") is None:
        raise ConfigurationError("config.oracle: required for this command")
    if search and built.points and not cfg["families"]:
        raise ConfigurationError("config.families: at least one family needed")
    oracle_vals, field = [None] * len(built.points), None
    if compare and cfg.get("oracle") is not None:
        oracle_vals, field = _oracle_values(cfg)

    rows = []
    for point, req, oracle_val in zip(built.points, built.requests,
                                      oracle_vals):
        label = _point_label(point)
        if search:
            t0 = time.perf_counter()
            res = minimize_envelope(req)
            runtime = time.perf_counter() - t0
            rows.append(_row(
                label, res.value, oracle_val, bool(res.feasible),
                res.max_violation, runtime, family=res.family,
                start_index=res.start_index, certificate=res.certificate,
                search_m=res.search_m, trace=[float(v) for v in res.trace]))
            line = (f"envelope={res.value:.6f} oracle={oracle_val} "
                    f"feasible={res.feasible}")
        else:
            rows.append(_row(label, oracle=oracle_val))
            line = f"oracle={oracle_val}"
        if not quiet:
            print(f"{label}: {line}")

    # a row fails when its oracle value is not finite or its gap is not
    # within the tolerance (a gap that is not a number fails too)
    gap_tol = cfg.get("tolerances", {}).get("gap")
    failed = any((r["oracle"] is not None and not math.isfinite(r["oracle"]))
                 or (gap_tol is not None and r["gap"] is not None
                     and not abs(r["gap"]) <= gap_tol) for r in rows)
    infeasible = not all(r["feasible"] for r in rows)
    _write_outputs(outdir, cfg, rows, not failed and not infeasible,
                   field=field)
    return 3 if infeasible else int(failed)


def run_homotopy(cfg, outdir, quiet=False):
    hartogs, zp = cfg.built.hartogs, cfg.built.z_prime
    if hartogs is None:
        raise ConfigurationError("config.pair: homotopy needs a hartogs pair")
    spec = cfg.get("homotopy")
    if spec is None:
        raise ConfigurationError("config.homotopy: required for this command")
    try:
        disc = vertical_disc(hartogs, zp, m=cfg["quadrature_m"],
                             **cfgmod.given(spec, cfgmod.HOMOTOPY_DISC[1]))
        trace = homotopy_trace(hartogs, disc, **cfgmod.given(spec, ["steps"]))
    except DiscenvError as exc:
        raise type(exc)(f"config.homotopy: {exc}") from None
    _atomic_write(os.path.join(outdir, "homotopy_trace.json"),
                  trace.to_json() + "\n")
    rows = [_row(_point_label(zp),
                 max_violation=max(0.0, -float(np.min(trace.min_margins))))]
    _write_outputs(outdir, cfg, rows, True,
                   extras={"homotopy": trace.rows()})
    return 0


def run_cesaro(cfg, outdir, quiet=False):
    with np.errstate(all="ignore"):  # an overflowing loop: refused below
        result = cesaro_convergence(seed=cfg["seed"], **cfgmod.given(
            cfg.get("cesaro", {}), list(cfgmod.CESARO_RULES)))
    for j, err in result:
        if not math.isfinite(err):
            raise ConfigurationError(f"config.cesaro: sup error {err} at "
                                     f"j = {j}: the loop's samples overflow")
    buf = io.StringIO()
    buf.write("# columns: j, sup_error\n")
    writer = csv.writer(buf)
    for j, err in result:
        writer.writerow([j, repr(err)])
    _atomic_write(os.path.join(outdir, "cesaro.csv"), buf.getvalue())
    rows = [_row("")]
    _write_outputs(outdir, cfg, rows, True,
                   extras={"cesaro": [[int(j), float(e)] for j, e in result]})
    return 0


def emit_plot_data(report_path, kind, outdir):
    try:
        with open(report_path) as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"{report_path}: {exc}") from exc
    buf = io.StringIO()
    writer = csv.writer(buf)
    try:
        if kind == "profile":
            buf.write("# columns: x, envelope, oracle, gap\n")
            for row in report.get("rows", []):
                x = row["point"].split(" ")[0] if row["point"] else ""
                writer.writerow([x, row.get("envelope"), row.get("oracle"),
                                 row.get("gap")])
        elif kind == "convergence":
            buf.write("# columns: point_index, iteration, best_value\n")
            for i, row in enumerate(report.get("rows", [])):
                for it, v in enumerate(row.get("trace", [])):
                    writer.writerow([i, it, repr(v)])
        elif kind == "homotopy":
            buf.write("# columns: t, min_margin, winding\n")
            for row in report.get("homotopy", []):
                writer.writerow([repr(row["t"]), repr(row["min_margin"]),
                                 row["winding"]])
        else:
            raise ConfigurationError(f"emit-plot: unknown kind {kind!r}")
    except (AttributeError, KeyError, TypeError) as exc:
        # the report is outside input: a missing key or a value of the
        # wrong type is a malformed report, not an internal error
        raise ConfigurationError(
            f"{report_path}: malformed report: {type(exc).__name__}: {exc}"
        ) from exc
    _atomic_write(os.path.join(outdir, f"plot_{kind}.csv"), buf.getvalue())
    return 0


#: Each config subcommand's runner, run as runner(cfg, outdir, quiet=...)
RUNNERS = {"envelope": functools.partial(run_points, compare=False),
           "oracle": functools.partial(run_points, search=False),
           "compare": run_points,
           "homotopy": run_homotopy, "cesaro": run_cesaro}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="discenv")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [*RUNNERS, "emit-plot"]:
        p = sub.add_parser(name)
        flags = ("--config",) if name in RUNNERS else ("--report", "--kind")
        for flag in flags:
            p.add_argument(flag, required=True)
        p.add_argument("--out", default=".")
        if name in RUNNERS:
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        if args.command == "emit-plot":
            return emit_plot_data(args.report, args.kind, args.out)
        overrides = {"output": args.out}
        if args.seed is not None:
            overrides["seed"] = args.seed
        cfg = cfgmod.load_config(args.config, overrides)
        return RUNNERS[args.command](cfg, args.out, quiet=args.quiet)
    except DiscenvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, InfeasibleEnvelope) else 2
    except Exception as exc:
        traceback.print_exc()
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
