"""The library names the benchmark calls and wraps still exist.

``perfbench/`` is fixed between benchmark changes, so a library change
that removes or renames a name it uses would only show when the benchmark
runs.  Loading ``spans.py`` and ``workloads.py`` by path (not ``run.py``,
which sets BLAS variables on import), building and installing the tracer,
and running every workload's set-up catches that here.  A few of each
workload's own calls and checks then run, so a library change that
breaks what the benchmark does with the windows (``val_w + test_w``,
slicing, ``w.y_true``) or the predictions fails here too.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import tpgn
import tpgn.autodiff
import tpgn.baselines
import tpgn.data
import tpgn.model
import tpgn.training

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body is processed
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores(monkeypatch):
    spans = _load("spans", monkeypatch)
    tracer = spans.build_tracer(tpgn)
    tracer.install()
    try:
        assert all(vars(owner)[attr] is wrapped
                   for owner, attr, _, wrapped in tracer._patches)
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is raw for owner, attr, raw, _ in tracer._patches)


@pytest.mark.parametrize("name", ["train_protocol", "forecast_eval", "long_history"])
def test_workload_setup_runs(name, tmp_path, monkeypatch):
    workloads = _load("workloads", monkeypatch)
    run = workloads.Run()
    workloads.WORKLOADS[name](1, tmp_path, run).setup()
    assert run.failed == 0, run.errors


# the calls after set-up that reach every way the workloads use the library
FOLLOW_UP = {"train_protocol": ("_step",),
             "forecast_eval": ("warmup", "final_checks"),
             "long_history": ("final_checks",)}


@pytest.mark.parametrize("name", list(FOLLOW_UP))
def test_workload_checks_pass(name, tmp_path, monkeypatch):
    workloads = _load("workloads", monkeypatch)
    run = workloads.Run()
    workload = workloads.WORKLOADS[name](1, tmp_path, run)
    workload.setup()
    for step in FOLLOW_UP[name]:
        getattr(workload, step)()
    assert run.failed == 0, run.errors
    assert run.checks and run.checks_ok, run.checks
