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
