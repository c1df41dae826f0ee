"""The library names the benchmark calls and wraps still exist.

``perfbench/`` is fixed between benchmark changes, so a library change
that removes or renames a name it uses would only show when the benchmark
runs.  Loading ``spans.py`` and ``workloads.py`` by path (not ``run.py``,
which sets BLAS variables on import), building and installing the tracer,
and running every workload's set-up catches that here.
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
