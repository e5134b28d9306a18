"""The benchmark's tracer against the current library: every name it binds
must exist, and uninstalling it must put every original back.  The
in-process workloads' traced runs, at their tiny size, must fail no
operation and report every per-layer metric the benchmark declares."""

import importlib
import json
import sys
from pathlib import Path

import pytest

import relaytomo
# every module `Tracer.install` rebinds in, imported before any binding is recorded
from relaytomo import channel, config, geometry, ias, measurement, numerics, tomography

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    yield importlib.import_module("tracing")
    for name in set(sys.modules) - before:  # tracing, metrics: names a test may reuse
        if str(getattr(sys.modules[name], "__file__", "")).startswith(str(PERFBENCH)):
            del sys.modules[name]


def library_bindings() -> dict:
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "relaytomo" or n.startswith("relaytomo."))]
    return {(m.__name__, attr): value for m in modules for attr, value in vars(m).items()}


def test_install_and_uninstall(tracing):
    originals = library_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert channel.outage_capacity is not originals[("relaytomo.channel", "outage_capacity")]
        assert relaytomo.outage_capacity is channel.outage_capacity
        params = channel.ChannelParams(1000.0, 2.5, -3.0, 0.01)
        channel.outage_capacity(channel.HopPair(100.0, 100.0), params)
        channel.outage_cdf(1e-6, channel.HopPair(100.0, 100.0), params)
        numerics.regularized_lower_gamma(2.0, 1.0)
    finally:
        tracer.uninstall()
    assert [span[0] for span in tracer.spans] == ["channel.outage_capacity"]
    assert tracer.counts["channel.outage_cdf"] == tracer.counts["numerics.lower_gamma"] == 1
    restored = library_bindings()
    assert restored.keys() == originals.keys()
    assert all(restored[key] is value for key, value in originals.items())


@pytest.mark.parametrize("workload", ["sweep", "scaled"])
def test_tiny_traced_run_reports_every_layer(tracing, tmp_path, workload):
    inverse = importlib.import_module("inverse")
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    dump = tmp_path / "spans.json"
    out = inverse.trace(workload, 0, True, dump)
    assert out.failed == 0 and out.attempted > 0, out.problems
    assert {m["name"] for m in spec["per_layer"]} <= out.metrics.keys()
    assert json.loads(dump.read_text())["spans"]
