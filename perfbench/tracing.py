"""Span tracing around the calls between discenv modules.

The wrappers live here, not in the package: ``Tracer.install`` replaces
each traced name where it is looked up (a module global for names that
were imported by name, a class attribute for methods) and ``uninstall``
puts the originals back, so untraced rounds run the package unchanged.

A span is (name, start_ns, end_ns, parent index).  Spans stay in memory
and are written out once, at the end of the run.  A span's self time is
its duration minus the time its child spans cover; calls are
synchronous on one thread, so children never overlap each other and the
covered time is the sum of their durations.
"""

from __future__ import annotations

import functools
import json
import os
from collections import Counter, defaultdict
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent]
        self.counts = Counter()  # counters recorded at the same boundaries
        self.relax_sweeps = []   # sweeps of each _relax call (one per grid
                                 # level), in call order
        self._stack = []
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.spans)
            span = [name, 0, 0, stack[-1] if stack else -1]
            tracer.spans.append(span)
            stack.append(idx)
            result = exc = None
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
                if observe is not None:
                    observe(args, kwargs, result, exc)

        return wrapper

    def parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _patch(self, owner, attr, name, observe=None):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, observe))

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every traced name of the discenv package in place."""
        import numpy as np
        from discenv import (cli, config, discs, domains, envelope,
                             families, hartogs, oracles)
        from discenv.errors import EvaluationError

        c = self.counts

        def macs(args, kwargs, result, exc):
            disc, z = args[0], args[1]
            c["discs.evaluate.horner_macs"] += \
                int(np.size(z)) * (disc.M // 2) * disc.n

        def margin_points(args, kwargs, result, exc):
            if self.parent_name() != "domains.margin":
                pts = np.asarray(args[1])
                c["domains.margin.points"] += int(np.prod(pts.shape[:-1]))

        def evaluation_error(args, kwargs, result, exc):
            if isinstance(exc, EvaluationError):
                c["families.barrier"] += 1

        def build_none(args, kwargs, result, exc):
            if exc is None and result is None:
                c["families.barrier"] += 1

        def infeasible(args, kwargs, result, exc):
            c["families.attempts"] += 1
            if exc is None and result > 0:
                c["families.barrier"] += 1

        def nelder_mead(args, kwargs, result, exc):
            if exc is None:
                c["envelope.nm.nfev"] += int(result.nfev)

        def relax(args, kwargs, result, exc):
            if exc is None:
                self.relax_sweeps.append(int(result))
                c["oracles.relax.node_sweeps"] += int(args[0].size) * result

        def text_bytes(args, kwargs, result, exc):
            if exc is None:
                c["cli.write.bytes"] += len(args[1].encode())

        def file_bytes(args, kwargs, result, exc):
            if exc is None:
                c["cli.write.bytes"] += os.path.getsize(args[1])

        p = self._patch
        p(discs.AnalyticDisc, "evaluate", "discs.evaluate", macs)
        p(discs.AnalyticDisc, "__init__", "discs.construct")
        p(domains.DomainSpec, "margin", "domains.margin", margin_points)
        p(domains.Obstacle, "__call__", "domains.obstacle")
        # envelope imports these by name, so they are patched there
        p(envelope, "poisson_functional", "functionals.poisson",
          evaluation_error)
        p(envelope, "partial_boundary_stats", "functionals.partial_stats",
          evaluation_error)
        p(envelope, "minimize", "envelope.nm", nelder_mead)
        for cls in vars(families).values():
            if isinstance(cls, type) and issubclass(cls, families.DiscFamily):
                if "build" in cls.__dict__:
                    p(cls, "build", "families.build", build_none)
                if "infeasibility" in cls.__dict__:
                    p(cls, "infeasibility", "families.infeasibility",
                      infeasible)
        p(oracles, "_build_grid", "oracles.build_grid")
        p(oracles, "_relax", "oracles.relax", relax)
        p(oracles.GridField, "to_csv", "cli.write", file_bytes)
        p(hartogs, "hartogs_homotopy", "hartogs.homotopy")
        # cli imports these by name, so they are patched there
        p(cli, "minimize_envelope", "envelope.search")
        p(cli, "grid_obstacle_solver", "oracles.grid")
        p(cli, "kiselman_psi", "oracles.kiselman")
        p(cli, "_atomic_write", "cli.write", text_bytes)
        p(config, "load_config", "config.load")

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def call(self, name, fn, *args, **kwargs):
        """Run a call made by the benchmark itself inside a span."""
        return self._wrap(name, fn)(*args, **kwargs)

    # -- reduction ---------------------------------------------------------

    def summary(self):
        """Per span name: outermost call count, total self and inclusive
        seconds."""
        child_ns = defaultdict(int)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            dur = end - start
            row["self_s"] += (dur - child_ns[i]) * 1e-9
            if parent < 0 or self.spans[parent][0] != name:
                row["calls"] += 1
                row["total_s"] += dur * 1e-9
        return dict(out)

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "columns": ["name", "start_ns", "end_ns", "parent"],
                       "spans": [[index[n], s, e, p]
                                 for n, s, e, p in self.spans]},
                      fh, separators=(",", ":"))

