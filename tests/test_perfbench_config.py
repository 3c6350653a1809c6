"""The benchmark's configuration probe stays in step with the program.

``perfbench/unit.py:resolved_config`` records which execution path a
measured run used.  It calls into :class:`repro.autograd.graph.CompileConfig`,
so a change there must not silently break the benchmark harness.
"""

import importlib.util
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


@pytest.fixture
def unit(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    spec = importlib.util.spec_from_file_location(
        "perfbench_unit", os.path.join(PERFBENCH, "unit.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_resolved_config_reports_the_execution_path(unit, monkeypatch):
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(name)
    assert unit.resolved_config()["compile"] == "step/interp"
