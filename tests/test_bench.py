import importlib
from pathlib import Path

import numpy as np
import pytest

from wafersim.bench import ReferenceTable, ThroughputReport, reference_table, \
    throughput_metrics
from wafersim.engine import SpikeRecord
from wafersim.network import WafersimError

EXPECTED_TABLE = """\
Simulator             Performance (1e9 synaptic event/s)  Energy (uJ/synaptic event)
BrainScaleS-1         162                                 <0.012
NeuroAIx-Framework*   19                                  0.048
CsNN*                 3.8                                 0.783
NEST*                 1.8                                 0.48
SpiNNaker             0.9                                 0.6
* estimated from the reported speedup factor"""


def make_record(deliveries, wall_time, duration=1000.0):
    return SpikeRecord(
        times=np.empty(0), ids=np.empty(0, np.uint32), n_neurons=10,
        duration=duration, dt=0.1, deliveries=deliveries, wall_time=wall_time,
        population_slices={"all": (0, 10)})


class TestReferenceTable:
    def test_five_rows(self):
        table = reference_table()
        assert len(table.rows) == 5

    def test_row_values(self):
        rows = {r.system: r for r in reference_table().rows}
        bss = rows["BrainScaleS-1"]
        assert bss.performance_e9_events_per_s == 162.0
        assert bss.energy_uj_per_event == 0.012
        assert bss.energy_is_upper_bound and not bss.estimated
        spin = rows["SpiNNaker"]
        assert (spin.performance_e9_events_per_s,
                spin.energy_uj_per_event) == (0.9, 0.6)
        assert not spin.estimated
        assert rows["NEST"].estimated and rows["CsNN"].estimated

    def test_renders_byte_exact(self):
        assert reference_table().render_text() == EXPECTED_TABLE


class TestThroughput:
    def test_arithmetic_identity(self):
        report = throughput_metrics(make_record(1_000_000, 2.0))
        assert report.events_per_second == pytest.approx(500_000.0)
        assert report.speedup == pytest.approx(0.5)

    def test_zero_deliveries(self):
        report = throughput_metrics(make_record(0, 1.0))
        assert report.events_per_second == 0.0

    def test_zero_wall_time_errors(self):
        with pytest.raises(WafersimError):
            throughput_metrics(make_record(100, 0.0))

    def test_report_includes_reference(self):
        text = throughput_metrics(make_record(100, 1.0)).render_text()
        assert EXPECTED_TABLE in text
        assert "events per second" in text

    def test_to_dict_roundtrips_fields(self):
        report = throughput_metrics(make_record(100, 1.0, duration=500.0))
        doc = report.to_dict()
        assert doc["deliveries"] == 100
        assert doc["bio_duration_ms"] == 500.0
        assert len(doc["reference"]) == 5


class TestBenchmarkTracedNames:
    def test_pipeline_calls_resolve(self, monkeypatch):
        # perfbench/run.py runs with perfbench/ first on sys.path and imports
        # workloads, whose tracer patches each named function with getattr
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        monkeypatch.syspath_prepend(str(perfbench))
        workloads = importlib.import_module("workloads")
        missing = [f"{module.__name__}.{name}"
                   for module, names in workloads.PIPELINE_CALLS.items()
                   for name in names if not hasattr(module, name)]
        assert not missing
        assert {m.__name__ for m in workloads.PIPELINE_CALLS} == {
            "wafersim.pipeline", "wafersim.adaptation", "wafersim.mapping"}
