import argparse
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from test_pipeline import small_config
from wafersim import cli
from wafersim.cli import (
    EXIT_CAPACITY,
    EXIT_OK,
    EXIT_VALIDATION,
    main,
)
from wafersim.engine import load_spikes_binary
from wafersim.models import load_microcircuit_data
from wafersim.pipeline import (
    SweepConfig,
    run_pipeline,
    scaled_brunel_config,
    scaled_microcircuit_config,
)

EXPERIMENTS = Path(__file__).resolve().parents[1] / "experiments"


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# a one-cell sweep of a small network, for cases that break one section
SMALL_SWEEP = {"model": {"params": {"n_total": 200}},
               "simulation": {"duration": 100.0},
               "sweep": {"g": [4], "eta": [2]}}


# the bundled microcircuit table as a config document holds it
TABLE = asdict(load_microcircuit_data())


def small_model_config(tmp_path, **extra):
    return write_config(tmp_path, {
        "model": {"params": {"n_total": 200}},
        **extra,
    })


class TestBuild:
    def test_build_brunel(self, tmp_path):
        cfg = small_model_config(tmp_path)
        code = main(["build", "brunel", "--out-dir", str(tmp_path),
                     "--config", cfg])
        assert code == EXIT_OK
        assert (tmp_path / "spec.json").exists()

    def test_build_microcircuit(self, tmp_path):
        cfg = write_config(tmp_path, {"model": {"params": {"scale": 0.02}}})
        code = main(["build", "microcircuit", "--out-dir", str(tmp_path),
                     "--config", cfg])
        assert code == EXIT_OK

    def test_invalid_params_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {"model": {"params": {"n_total": -5}}})
        code = main(["build", "brunel", "--out-dir", str(tmp_path),
                     "--config", cfg])
        assert code == EXIT_VALIDATION

    def test_missing_model_exit_2(self, tmp_path):
        assert main(["build", "--out-dir", str(tmp_path)]) == EXIT_VALIDATION


class TestStageCommands:
    @pytest.fixture()
    def built(self, tmp_path):
        cfg = small_model_config(tmp_path)
        assert main(["build", "brunel", "--out-dir", str(tmp_path),
                     "--config", cfg]) == EXIT_OK
        return tmp_path

    def test_adapt_map_simulate_analyze(self, built):
        spec = str(built / "spec.json")
        assert main(["adapt", spec, "--out-dir", str(built)]) == EXIT_OK
        adapted = str(built / "adapted.json")
        assert main(["map", adapted, "--out-dir", str(built)]) == EXIT_OK
        mapped = str(built / "mapped.json")
        assert main(["simulate", mapped, "--out-dir", str(built),
                     "--duration", "300"]) == EXIT_OK
        spikes = str(built / "spikes.bin")
        assert main(["analyze", spikes, "--out-dir", str(built),
                     "--window-start", "100"]) == EXIT_OK
        summary = json.loads((built / "analysis.json").read_text())
        assert "regime" in summary
        # a window under 20 ms gets rates only, as in the pipeline
        short = built / "short"
        assert main(["analyze", spikes, "--out-dir", str(short),
                     "--window-start", "290"]) == EXIT_OK
        summary = json.loads((short / "analysis.json").read_text())
        assert summary["window"] == [290.0, 300.0]
        assert "regime" not in summary and "synchrony" not in summary

    def test_map_seed_does_not_change_the_mapping(self, built, capsys):
        assert main(["adapt", str(built / "spec.json"),
                     "--out-dir", str(built)]) == EXIT_OK
        adapted = str(built / "adapted.json")
        assert main(["map", adapted, "--out-dir", str(built),
                     "--seed", "1"]) == EXIT_OK
        capsys.readouterr()
        assert main(["map", adapted, "--out-dir", str(built),
                     "--seed", "2"]) == EXIT_OK
        assert "[cached mapping]" in capsys.readouterr().out
        report = json.loads((built / "mapping_report.json").read_text())
        assert "seed" not in report

    def test_map_capacity_failure_exit_3(self, built, tmp_path):
        spec = str(built / "spec.json")
        assert main(["adapt", spec, "--out-dir", str(built)]) == EXIT_OK
        topo = write_config(tmp_path, {"topology": {
            "rows": 1, "cols": 1, "circuits_per_asic": 4}}, name="topo.json")
        code = main(["map", str(built / "adapted.json"),
                     "--out-dir", str(built), "--config", topo])
        assert code == EXIT_CAPACITY

    def test_unknown_record_population_exit_2(self, built, capsys):
        cfg = write_config(built, {"simulation": {
            "duration": 10.0, "record_populations": ["nope"]}},
            name="record.json")
        code = main(["simulate", str(built / "spec.json"),
                     "--out-dir", str(built), "--config", cfg])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "record_populations" in err and "nope" in err
        assert not (built / "spikes.bin").exists()

    def test_per_neuron_override_length_exit_2(self, built, capsys):
        path = built / "spec.json"
        doc = json.loads(path.read_text())
        pop = doc["populations"][0]
        pop["params_per_neuron"] = {"v_thresh": [-50.0] * (pop["size"] - 1)}
        path.write_text(json.dumps(doc))
        code = main(["simulate", str(path), "--duration", "10",
                     "--out-dir", str(built)])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert pop["pid"] in err and "params_per_neuron['v_thresh']" in err

    def test_mistyped_spec_field_exit_2(self, built, capsys):
        path = built / "spec.json"
        doc = json.loads(path.read_text())
        doc["projections"][0]["connector"]["type"] = "fixed_probabilty"
        path.write_text(json.dumps(doc))
        code = main(["adapt", str(path), "--out-dir", str(built)])
        assert code == EXIT_VALIDATION
        assert "connector.type" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        code = main(["simulate", str(tmp_path / "missing.json"),
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_VALIDATION

    # an unknown key or a wrong-typed value in any section: exit 2, the
    # message names the key, and no file is written
    @pytest.mark.parametrize("command,doc,key", [pytest.param(*case, id=case[0])
                                                 for case in (
        ("build", {"model": {"name": "brunel", "params": {"n_totl": 200}}},
         "n_totl"),
        ("adapt", {"adaptation": {"neuron_scal": 0.5}}, "neuron_scal"),
        ("map", {"topology": {"rowz": 2}}, "rowz"),
        ("simulate", {"simulation": {"duraton": 100}}, "duraton"),
        ("sweep", {"model": {"params": {"n_totl": 200}}}, "n_totl"),
        ("bench", {"model": {"name": "brunel", "params": {"n_total": 200}},
                   "simulaton": {"duration": 100}}, "simulaton"),
        ("analyze", {"analysis": {"window_strat": 50}}, "window_strat"),
    )] + [
        # the sweep also refuses analysis keys that its cells cannot use
        pytest.param("sweep", {"model": {"params": {"n_total": 200}},
                               "simulation": {"duration": 100},
                               "sweep": {"g": [4], "eta": [2]},
                               "analysis": {key: 50}}, key, id=f"sweep-{key}")
        for key in ("window_strat", "bins")
    ] + [pytest.param(*case, id=f"{case[0].split()[0]}-{case[2]}-{name}")
         for name, case in (
        ("type", ("build", {"model": {"name": "brunel", "params": {"g": "5"}}},
                  "g")),
        ("unknown", ("build", {"model": {"name": "brunel", "extra": 1}},
                     "extra")),
        ("type", ("adapt", {"adaptation": {"neuron_scale": "0.1"}},
                  "neuron_scale")),
        ("missing", ("adapt", {"adaptation": {
            "poisson_pool": {"pool_size": 10}}}, "samples_per_target")),
        ("unknown", ("adapt", {"adaptation": {"poisson_pool": {
            "pool_size": 10, "samples_per_target": 5, "size": 3}}}, "size")),
        ("type", ("map", {"topology": {"route_capacity": "4"}},
                  "route_capacity")),
        ("type", ("simulate", {"simulation": {"duration": "20"}}, "duration")),
        ("type", ("simulate", {"simulation": {"membrane_probes": 3}},
                  "membrane_probes")),
        ("type", ("wafer report", {"topology": {"rows": "4"}}, "rows")),
        ("unknown", ("wafer report", {"topology": {"rowz": 4}}, "rowz")),
        ("type", ("wafer report", {"topology": {
            "rows": 1, "cols": 1, "available": [["no"]]}}, "topology.available")),
        ("type", ("build", {"model": {"name": "microcircuit", "params": {
            "data": {**TABLE, "sizes": [str(s) for s in TABLE["sizes"]]}}}},
            "model.params.data.sizes")),
        ("missing", ("build", {"model": {"name": "microcircuit", "params": {
            "data": {k: v for k, v in TABLE.items() if k != "neuron"}}}},
            "neuron")),
        ("float", ("analyze", {"analysis": {"bins": 3.7}}, "bins")),
        ("bool", ("analyze", {"analysis": {"window_start": True}},
                  "window_start")),
        # a section that the command does not read is checked all the same
        ("other", ("simulate", {"analysis": {"bins": 3.7}}, "bins")),
        ("unknown", ("sweep", {**SMALL_SWEEP, "sweep": {"gg": [5]}}, "gg")),
        ("type", ("sweep", {**SMALL_SWEEP, "sweep": {"g": ["5"]}}, "g")),
        ("refused", ("sweep", {**SMALL_SWEEP, "topology": {}}, "topology")),
        ("refused", ("sweep", {**SMALL_SWEEP, "model": {
            "name": "microcircuit", "params": {"n_total": 200}}},
            "microcircuit")),
        ("type", ("sweep", {**SMALL_SWEEP, "simulation": {"duration": "300"}},
                  "duration")),
        # a cell's params are checked before the first cell runs
        ("cell", ("sweep", {**SMALL_SWEEP, "sweep": {"g": [-1, 4],
                                                     "eta": [2, -1]}},
                  "g=-1.0, eta=2.0")),
        ("unknown", ("bench", {"model": {"name": "brunel"},
                               "adaptation": {"neuron_scal": 0.5}},
                     "neuron_scal")),
        ("unknown", ("bench", {"model": {"name": "brunel"},
                               "topology": {"rowz": 2}}, "rowz")),
        ("type", ("bench", {"model": {"name": "brunel"},
                            "simulation": {"dt": "0.1"}}, "dt")),
    )])
    def test_unknown_config_key_exit_2(self, built, capsys, command, doc, key):
        spec = {"adapt": ["spec.json"], "map": ["adapted.json"],
                "simulate": ["spec.json"],
                "analyze": ["spikes.bin"]}.get(command, [])
        if command == "map":
            assert main(["adapt", str(built / "spec.json"),
                         "--out-dir", str(built)]) == EXIT_OK
        if command == "analyze":
            assert main(["simulate", str(built / "spec.json"), "--duration",
                         "100", "--out-dir", str(built)]) == EXIT_OK
        capsys.readouterr()
        cfg = write_config(built, doc, name="unknown.json")
        before = {p: p.stat().st_mtime_ns for p in built.rglob("*")}
        code = main([*command.split(), *(str(built / s) for s in spec),
                     "--out-dir", str(built), "--config", cfg])
        assert code == EXIT_VALIDATION
        assert key in capsys.readouterr().err
        assert {p: p.stat().st_mtime_ns for p in built.rglob("*")} == before

    def test_bench_checks_analysis_before_simulating(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": {"name": "brunel", "params": {"n_total": 200}},
            "simulation": {"duration": 100.0},
            "analysis": {"window_strat": 50}})
        out = tmp_path / "out"
        code = main(["bench", "--out-dir", str(out), "--config", cfg])
        assert code == EXIT_VALIDATION
        assert "window_strat" in capsys.readouterr().err
        assert not (out / "spikes.bin").exists()

    def test_sweep_passes_analysis_settings(self, tmp_path, monkeypatch):
        class Captured(Exception):
            pass

        def capture(config, g_values, eta_values, parallel=1):
            raise Captured(config)

        monkeypatch.setattr(cli, "phase_sweep", capture)
        cfg = write_config(tmp_path, {"analysis": {
            "window_start": 120, "synchrony_bin_ms": 4}})
        with pytest.raises(Captured) as caught:
            main(["sweep", "--g", "4", "--eta", "2", "--out-dir",
                  str(tmp_path), "--config", cfg])
        analysis = caught.value.args[0].sections().analysis
        assert (analysis.window_start,
                analysis.synchrony_bin_ms) == (120.0, 4.0)

    def test_sweep_leaves_window_start_unset(self, tmp_path, monkeypatch):
        # so that a cell reads it as run_pipeline does: min(1000, duration/2)
        seen = []

        def capture(config, *args, **kwargs):
            seen.append(config)
            raise ValueError("captured")

        monkeypatch.setattr(cli, "phase_sweep", capture)
        assert main(["sweep", "--g", "4", "--eta", "2",
                     "--out-dir", str(tmp_path)]) == EXIT_VALIDATION
        assert seen[0].sections().analysis.window_start is None

    # a full pipeline config without the section a command reads: that
    # section's defaults, not the whole document taken as the section
    @pytest.mark.parametrize("command,spec", [("adapt", "spec.json"),
                                              ("map", "adapted.json"),
                                              ("simulate", "spec.json")])
    def test_config_without_section_uses_defaults(self, built, command, spec):
        if command == "map":
            assert main(["adapt", str(built / "spec.json"),
                         "--out-dir", str(built)]) == EXIT_OK
        cfg = write_config(built, {"model": {"name": "brunel", "params": {
            "n_total": 200}}, "seed": 0}, name="full.json")
        duration = ["--duration", "50"] if command == "simulate" else []
        assert main([command, str(built / spec), "--out-dir", str(built),
                     "--config", cfg, *duration]) == EXIT_OK

    @pytest.mark.parametrize("command", ["adapt", "map", "simulate", "wafer"])
    def test_unknown_top_level_key_exit_2(self, built, capsys, command):
        cfg = write_config(built, {"modell": {}}, name="typo.json")
        args = {"adapt": ["adapt", str(built / "spec.json")],
                "map": ["map", str(built / "spec.json")],
                "simulate": ["simulate", str(built / "spec.json")],
                "wafer": ["wafer", "report"]}[command]
        capsys.readouterr()
        code = main([*args, "--out-dir", str(built), "--config", cfg])
        assert code == EXIT_VALIDATION
        assert "modell" in capsys.readouterr().err

    def test_truncated_spec_exit_2(self, built):
        spec = built / "spec.json"
        spec.write_text(spec.read_text()[:100])
        code = main(["simulate", str(spec), "--out-dir", str(built)])
        assert code == EXIT_VALIDATION


def test_stage_commands_write_what_run_pipeline_writes(tmp_path, capsys):
    config = small_config()
    assert config.seed != 0
    pipeline_dir = tmp_path / "pipeline"
    result = run_pipeline(config, pipeline_dir)
    (cache,) = pipeline_dir.glob("mapping_*_*.json")
    # the seed given by --seed and the document, then by the document alone
    for cli_dir, seed in ((tmp_path / "cli", ["--seed", str(config.seed)]),
                          (tmp_path / "cli_doc_seed", [])):
        args = ["--out-dir", str(cli_dir), *seed,
                "--config", write_config(tmp_path, config.to_dict())]
        assert main(["build", *args]) == EXIT_OK
        for command, spec in (("adapt", "spec.json"), ("map", "adapted.json"),
                              ("simulate", "mapped.json")):
            assert main([command, str(cli_dir / spec), *args]) == EXIT_OK
        for name in ("spec.json", "spec.json.edges", "adapted.json",
                     "adapted.json.edges", cache.name, "mapped.json",
                     "mapped.json.edges"):
            assert (cli_dir / name).read_bytes() == \
                (pipeline_dir / name).read_bytes(), name
        record = load_spikes_binary(cli_dir / "spikes.bin")
        assert np.array_equal(record.times, result.record.times)
        assert np.array_equal(record.ids, result.record.ids)
        assert record.deliveries == result.record.deliveries
    # a second map reuses the cache entry instead of remapping into it
    before = (cli_dir / cache.name).stat()
    capsys.readouterr()
    assert main(["map", str(cli_dir / "adapted.json"), *args]) == EXIT_OK
    assert "[cached mapping]" in capsys.readouterr().out
    after = (cli_dir / cache.name).stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino,
                                                 before.st_mtime_ns)


class TestSweepBenchWafer:
    def test_sweep_writes_grid(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"params": {"n_total": 200}},
            "simulation": {"duration": 400.0},
            "analysis": {"window_start": 100.0},
        })
        code = main(["sweep", "--g", "4,6", "--eta", "2", "--out-dir",
                     str(tmp_path), "--config", cfg])
        assert code == EXIT_OK
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert not any(line.endswith(",failed") for line in lines)

    def test_sweep_with_neuron_params(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": {"name": "brunel", "params": {
                "n_total": 200, "neuron": {"tau_m": 20.0}}},
            "simulation": {"duration": 400.0},
            "analysis": {"window_start": 100.0},
        })
        code = main(["sweep", "--g", "4", "--eta", "2", "--out-dir",
                     str(tmp_path), "--config", cfg])
        assert code == EXIT_OK
        assert "partial" not in capsys.readouterr().err
        header, row = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert not row.endswith(",failed")

    def test_bench_runs_default(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "model": {"name": "brunel", "params": {"n_total": 300}},
            "simulation": {"duration": 300.0},
        })
        code = main(["bench", "--out-dir", str(tmp_path), "--config", cfg])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "BrainScaleS-1" in out
        assert "events per second" in out

    def test_bench_duration_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, {
            "model": {"name": "brunel", "params": {"n_total": 200}},
            "simulation": {"duration": 100.0},
        })
        assert main(["bench", "--out-dir", str(tmp_path), "--config", cfg,
                     "--duration", "300"]) == EXIT_OK
        assert load_spikes_binary(tmp_path / "spikes.bin").duration == 300.0

    def test_bench_zero_duration_is_not_the_default(self, tmp_path, capsys):
        # 0 ms is simulated, not taken as unset; its analysis window is empty
        code = main(["bench", "--out-dir", str(tmp_path), "--duration", "0"])
        assert code == EXIT_VALIDATION
        assert "empty analysis window" in capsys.readouterr().err
        assert load_spikes_binary(tmp_path / "spikes.bin").duration == 0.0

    def test_wafer_report(self, tmp_path, capsys):
        code = main(["wafer", "report", "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "wafer_report.json").read_text())
        assert doc["total_circuits"] == 196_608
        assert doc["max_fan_in"] == 14_336


# each reference config, loaded as --config loads it, is the config of the
# function it was written from; its seed comes from --seed
@pytest.mark.parametrize("name,config", [
    ("brunel_ai.json", scaled_brunel_config(topology={})),
    ("microcircuit.json", scaled_microcircuit_config()),
    ("brunel_sweep.json", scaled_brunel_config(duration=2000.0)),
])
def test_experiment_files_equal_their_configs(name, config):
    loaded, sweep = cli._load_config(argparse.Namespace(
        config=str(EXPERIMENTS / name), seed=0))
    if name == "brunel_sweep.json":
        config.analysis = {"window_start": 500.0}
        # test_04's grid
        assert sweep == SweepConfig(g=[2.0, 3.0, 4.0, 5.0, 6.0, 8.0],
                                    eta=[0.5, 0.9, 1.0, 2.0, 4.0])
    assert loaded == config
    assert "seed" not in json.loads((EXPERIMENTS / name).read_text())


def test_run_pipeline_ignores_sweep_as_bench_does(tmp_path, capsys):
    doc = json.loads((EXPERIMENTS / "brunel_sweep.json").read_text())
    doc["simulation"]["duration"] = 200.0
    doc["analysis"]["window_start"] = 100.0
    result = run_pipeline(doc, tmp_path / "pipeline")
    assert result.record.spike_count() > 0
    assert "sweep" in doc  # the caller's document is not changed
    cfg = write_config(tmp_path, doc)
    assert main(["bench", "--out-dir", str(tmp_path / "bench"),
                 "--config", cfg]) == EXIT_OK
    for name in ("spikes.bin", "analysis.json"):
        assert (tmp_path / "pipeline" / name).read_bytes() == \
            (tmp_path / "bench" / name).read_bytes(), name
