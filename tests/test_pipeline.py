import json

import numpy as np
import pytest

from wafersim.engine import load_spikes_binary
from wafersim.pipeline import (
    PipelineConfig,
    StageFailure,
    ValidationFailure,
    run_pipeline,
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
