"""The package API that the benchmark in perfbench/ builds with and patches.

perfbench/workloads.py and perfbench/tracing.py are loaded from their
files under private module names, so that renaming or deleting a name
they use fails here rather than in a benchmark run.  Neither module
needs scipy.
"""

import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_sets_up(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    state = workload.setup(workload.generate(1), tmp_path)
    assert state


def test_tracer_restores_every_name_it_patches():
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._saved)
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original


class _SameSpeed:
    """A speed probe under which a reference second is a measured second."""

    def measured_seconds(self, a, b):
        return b - a

    def reference_seconds(self, a, b, kind="small"):
        return b - a


def test_hartogs_kiselman_round_times_each_search(tmp_path):
    workload = workloads.WORKLOADS["hartogs_kiselman"]
    state = workload.setup(workload.generate(1), tmp_path)
    raw = workload.run_round(state, tmp_path / "round", None)
    assert raw["rc"] == 0
    # one minimize_envelope call, looked up in discenv.cli, per point
    assert len(raw["searches"]) == len(state["points"])
    workload.finish_round(raw, _SameSpeed())
    checked = workload.check_round(state, raw, None)
    assert checked.ops and all(ok for _, ok, _ in checked.ops), checked.ops
    assert len(checked.point_times) == len(state["points"])
