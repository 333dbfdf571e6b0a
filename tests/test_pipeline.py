import json
from dataclasses import replace

import numpy as np
import pytest

from wafersim import mapping, network, pipeline
from wafersim.engine import SimulationConfig, load_spikes_binary
from wafersim.hardware import WaferTopology
from wafersim.models import BrunelParams, build_brunel
from wafersim.network import WafersimError
from wafersim.pipeline import (
    PipelineConfig,
    StageFailure,
    ValidationFailure,
    phase_sweep,
    run_pipeline,
    run_sweep_cell,
    simulate_stage,
)


def small_config(seed=1, **overrides):
    cfg = dict(
        model={"name": "brunel", "params": {"n_total": 300}},
        adaptation={"neuron_scale": 1.0, "indegree_scale": 1.0},
        topology={"route_capacity": 64},
        simulation={"dt": 0.1, "duration": 400.0},
        analysis={"window_start": 100.0},
        seed=seed,
    )
    cfg.update(overrides)
    return PipelineConfig(**cfg)


class TestArtifacts:
    def test_all_stage_outputs_written(self, tmp_path):
        result = run_pipeline(small_config(), tmp_path)
        for key in ("spec", "adapted", "mapping", "mapped_spec", "spikes_csv",
                    "spikes_bin", "rates", "analysis", "throughput"):
            assert result.artifacts[key].exists(), key

    def test_accepts_config_file(self, tmp_path):
        doc = small_config().to_dict()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        result = run_pipeline(path, tmp_path / "out")
        assert result.record.spike_count() > 0


class TestMappingCache:
    def test_rerun_hits_cache(self, tmp_path):
        first = run_pipeline(small_config(), tmp_path)
        second = run_pipeline(small_config(), tmp_path)
        assert not first.mapping_cached
        assert second.mapping_cached

    def test_external_rate_change_reuses_mapping(self, tmp_path):
        run_pipeline(small_config(), tmp_path)
        changed = small_config(
            model={"name": "brunel", "params": {"n_total": 300, "eta": 3.0}})
        result = run_pipeline(changed, tmp_path)
        assert result.mapping_cached  # structure unchanged

    def test_topology_change_remaps(self, tmp_path):
        run_pipeline(small_config(), tmp_path)
        changed = small_config(topology={"route_capacity": 32})
        result = run_pipeline(changed, tmp_path)
        assert not result.mapping_cached

    def test_truncated_cache_entry_is_a_miss(self, tmp_path):
        run_pipeline(small_config(), tmp_path)
        (cache,) = tmp_path.glob("mapping_*_*.json")
        cache.write_text(cache.read_text()[:100])
        rerun = run_pipeline(small_config(), tmp_path)
        assert not rerun.mapping_cached
        assert run_pipeline(small_config(), tmp_path).mapping_cached
        # overwritten in place, no temp file left behind
        assert [p.name for p in tmp_path.glob("mapping_*_*")] == [cache.name]

    def test_bad_pair_entry_is_a_miss(self, tmp_path):
        spec = network.ensure_sampled(
            build_brunel(BrunelParams(n_total=400), seed=3))
        topology = WaferTopology(route_capacity=0)
        _, first, cached, paths = pipeline.map_stage(spec, topology, tmp_path)
        assert not cached and first.total_lost() > 0
        written = paths["mapping"].read_text()
        doc = json.loads(written)
        doc["lost_pairs"].append([999, 0])
        paths["mapping"].write_text(json.dumps(doc, sort_keys=True))
        _, again, cached, _ = pipeline.map_stage(spec, topology, tmp_path)
        assert not cached
        assert paths["mapping"].read_text() == written
        assert again.lost == first.lost

    # an entry whose placement or counts are mistyped or off the wafer: at
    # the parent, apply_loss or mapping_report failed with a raw error
    @pytest.mark.parametrize("edit", [
        lambda doc: doc["placement"]["neuron_asic"].__setitem__(0, 999),
        lambda doc: doc.update(lost={k: str(v) for k, v in doc["lost"].items()}),
    ], ids=["neuron_asic_999", "lost_as_strings"])
    def test_bad_placement_or_count_is_a_miss(self, tmp_path, edit):
        spec = network.ensure_sampled(
            build_brunel(BrunelParams(n_total=400), seed=3))
        topology = WaferTopology(route_capacity=0)
        _, first, _, paths = pipeline.map_stage(spec, topology, tmp_path)
        written = paths["mapping"].read_text()
        doc = json.loads(written)
        edit(doc)
        paths["mapping"].write_text(json.dumps(doc, sort_keys=True))
        _, again, cached, _ = pipeline.map_stage(spec, topology, tmp_path)
        assert not cached
        assert paths["mapping"].read_text() == written
        assert again.lost == first.lost

    def test_any_mistyped_field_is_a_miss(self, tmp_path):
        spec = network.ensure_sampled(
            build_brunel(BrunelParams(n_total=400), seed=3))
        topology = WaferTopology(route_capacity=0)
        _, _, _, paths = pipeline.map_stage(spec, topology, tmp_path)
        written = paths["mapping"].read_text()
        doc = json.loads(written)
        fields = [("placement", k) for k in doc["placement"]] + \
            [(k,) for k in doc if k != "placement"]
        for path in fields:
            for bad in ("x", True, None):
                edited = json.loads(written)
                target = edited
                for k in path[:-1]:
                    target = target[k]
                value = target[path[-1]]
                if isinstance(value, str) and isinstance(bad, str):
                    continue  # a hash is a string
                # the first scalar leaf of the field, or the field itself
                key = path[-1]
                while isinstance(value, (list, dict)) and value:
                    target = value
                    key = next(iter(value)) if isinstance(value, dict) else 0
                    value = target[key]
                if isinstance(value, (list, dict)):
                    continue  # an empty list or table has no leaf
                target[key] = bad
                paths["mapping"].write_text(json.dumps(edited))
                _, _, cached, _ = pipeline.map_stage(spec, topology, tmp_path)
                assert not cached, (path, bad)
                assert paths["mapping"].read_text() == written

    def test_structure_hashed_once_per_map_stage(self, tmp_path, monkeypatch):
        """The cache key, the mapping's ``spec_hash`` and ``apply_loss``'s
        check share one ``mapping_relevant_hash`` of the adapted spec, on a
        miss and on a hit."""
        calls = []

        def counted(spec):
            calls.append(spec)
            return network.mapping_relevant_hash(spec)

        monkeypatch.setattr(pipeline, "mapping_relevant_hash", counted)
        monkeypatch.setattr(mapping, "mapping_relevant_hash", counted)
        for cached in (False, True):
            calls.clear()
            assert run_pipeline(small_config(), tmp_path).mapping_cached \
                == cached
            assert len(calls) == 1

    def test_seed_change_remaps(self, tmp_path):
        run_pipeline(small_config(seed=1), tmp_path)
        result = run_pipeline(small_config(seed=2), tmp_path)
        assert not result.mapping_cached  # different sampled structure


class TestDeterminism:
    def test_identical_config_identical_record(self, tmp_path):
        a = run_pipeline(small_config(), tmp_path / "a")
        b = run_pipeline(small_config(), tmp_path / "b")
        assert np.array_equal(a.record.times, b.record.times)
        assert np.array_equal(a.record.ids, b.record.ids)
        assert a.record.deliveries == b.record.deliveries
        ra = load_spikes_binary(a.artifacts["spikes_bin"])
        rb = load_spikes_binary(b.artifacts["spikes_bin"])
        assert np.array_equal(ra.times, rb.times)


    def test_simulate_stage_files_identical(self, tmp_path):
        spec = network.ensure_sampled(build_brunel(BrunelParams(n_total=200),
                                                   seed=4))
        for run in ("a", "b"):
            (tmp_path / run).mkdir()
            simulate_stage(spec, SimulationConfig(duration=200.0), tmp_path / run)
        for name in ("spikes.bin", "spikes.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes(), name
        throughput = json.loads((tmp_path / "a" / "throughput.json").read_text())
        assert throughput["wall_time"] > 0


class TestFailureModes:
    def test_unknown_model_names_build_stage(self, tmp_path):
        cfg = small_config(model={"name": "nope"})
        with pytest.raises(StageFailure) as err:
            run_pipeline(cfg, tmp_path)
        assert err.value.stage == "build"

    def test_invalid_params_fail_validation(self, tmp_path):
        cfg = small_config(
            model={"name": "brunel", "params": {"n_total": -10}})
        with pytest.raises((ValidationFailure, StageFailure)):
            run_pipeline(cfg, tmp_path)

    def test_capacity_failure_names_map_stage(self, tmp_path):
        cfg = small_config(topology={"rows": 1, "cols": 1,
                                     "circuits_per_asic": 4})
        with pytest.raises(StageFailure) as err:
            run_pipeline(cfg, tmp_path)
        assert err.value.stage == "map"

    def test_bad_simulation_config_names_stage(self, tmp_path):
        cfg = small_config(simulation={"dt": -0.1, "duration": 100.0})
        with pytest.raises(StageFailure) as err:
            run_pipeline(cfg, tmp_path)
        assert err.value.stage == "simulate"

    def test_mapping_disabled_without_topology(self, tmp_path):
        result = run_pipeline(small_config(topology=None), tmp_path)
        assert "mapping" not in result.artifacts
        assert result.record.spike_count() > 0


class TestAnalysisSummary:
    @pytest.mark.parametrize("duration,summarized", [(130.0, False),
                                                     (150.0, True)])
    def test_synchrony_bins_guard_the_summary(self, tmp_path, duration,
                                              summarized):
        # from 100 ms, 5 ms bins: 6 bins to 130 ms, 10 to 150 ms; synchrony
        # needs 10, so the shorter window has no CV, synchrony or regime
        cfg = small_config(topology=None,
                           simulation={"dt": 0.1, "duration": duration},
                           analysis={"window_start": 100,
                                     "synchrony_bin_ms": 5})
        run_pipeline(cfg, tmp_path)
        summary = json.loads((tmp_path / "analysis.json").read_text())
        assert summary["window"] == [100.0, duration]
        assert set(summary["per_population_mean_rate_hz"]) == {"exc", "inh"}
        keys = {"cv_isi_mean", "synchrony", "regime"}
        assert (keys & summary.keys()) == (keys if summarized else set())


class TestSweep:
    # a sweep cell is the pipeline run of its g and eta, without mapping
    @pytest.mark.parametrize("analysis", [
        pytest.param({"window_start": 100.0}, id="window_start"),
        pytest.param({"window_start": 100.0, "window_end": 300.0},
                     id="window_end"),
    ])
    def test_sweep_cell_equals_pipeline_run(self, tmp_path, analysis):
        config = small_config(topology=None, analysis=analysis)
        cell = run_sweep_cell(config, 5.0, 3.0)
        run_pipeline(replace(config, model={"name": "brunel", "params": {
            "n_total": 300, "g": 5.0, "eta": 3.0}}), tmp_path)
        summary = json.loads((tmp_path / "analysis.json").read_text())
        rates = summary["per_population_mean_rate_hz"]
        assert (cell.mean_rate_exc, cell.mean_rate_inh, cell.cv,
                cell.synchrony, cell.regime) == (
            rates["exc"], rates["inh"], summary["cv_isi_mean"],
            summary["synchrony"], summary["regime"])
        assert summary["window"][1] == analysis.get("window_end", 400.0)

    @pytest.mark.parametrize("overrides,key", [
        ({"topology": {}}, "topology"),
        ({"model": {"name": "microcircuit"}}, "microcircuit"),
        ({"analysis": {"bins": 5}}, "bins"),
        ({"analysis": {"window_strat": 5}}, "window_strat"),
    ])
    def test_sweep_refuses_before_any_cell(self, overrides, key):
        config = small_config(**{"topology": None, **overrides})
        with pytest.raises(WafersimError, match=key):
            phase_sweep(config, [5.0], [3.0])

    @pytest.mark.parametrize("g,eta", [([4.0, -1.0], [3.0]),
                                       ([4.0], [3.0, 2.0, -0.5])])
    def test_sweep_checks_every_cell_first(self, monkeypatch, g, eta):
        ran = []
        monkeypatch.setattr(pipeline, "run_sweep_cell",
                            lambda *cell: ran.append(cell))
        with pytest.raises(WafersimError, match="g and eta must be >= 0"):
            phase_sweep(small_config(topology=None), g, eta)
        assert ran == []
