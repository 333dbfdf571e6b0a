"""Every file wafersim writes goes through ``network._atomic_write``: a write
that fails, at the rename or mid-stream, leaves the file it would have
replaced as it was and no temp file behind."""
import ast
import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from wafersim import engine, network, pipeline
from wafersim.adaptation import AdaptationConfig
from wafersim.analysis import AnalysisConfig
from wafersim.cli import EXIT_OK, main
from wafersim.engine import (
    SimulationConfig,
    save_membrane_csv,
    save_spikes_binary,
    save_spikes_csv,
    simulate,
)
from wafersim.hardware import WaferTopology
from wafersim.mapping import map_network, save_mapping
from wafersim.models import BrunelParams, build_brunel
from wafersim.network import EdgeList, ensure_sampled, save_spec

SRC = Path(network.__file__).parent
SIM = SimulationConfig(duration=50.0, membrane_probes=[0, 1])


@pytest.fixture(scope="module")
def inputs():
    """Two versions of each input, ``[0]`` and ``[1]``, that differ in every
    file their writers write."""
    specs = [ensure_sampled(build_brunel(BrunelParams(n_total=n), seed=seed))
             for n, seed in ((200, 1), (240, 2))]
    return {"spec": specs,
            "record": [simulate(s, SIM) for s in specs],
            "mapping": [map_network(s, WaferTopology()) for s in specs]}


def _cli(*argv):
    """``wafersim <argv>``; a failure raises ``OSError`` with its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    if code != EXIT_OK:
        raise OSError(f"exit {code}: {err.getvalue()}")


def _sweep(d, v):
    config = d / f"sweep_{v}.json"
    config.write_text(json.dumps({"model": {"params": {"n_total": 200}},
                                  "simulation": {"duration": 100.0}}))
    _cli("sweep", "--config", config, "--g", [4, 6][v], "--eta", 2,
         "--out-dir", d)


def _wafer_report(d, v):
    config = d / f"wafer_{v}.json"
    config.write_text(json.dumps({"topology": {"rows": [16, 8][v]}}))
    _cli("wafer", "report", "--config", config, "--out-dir", d)


# writer -> (write version v of its input into directory d, the files it
# writes)
WRITERS = {
    "save_spec": (lambda i, d, v: save_spec(i["spec"][v], d / "net.json"),
                  ["net.json", "net.json.edges"]),
    "save_mapping": (
        lambda i, d, v: save_mapping(i["mapping"][v], d / "mapping.json"),
        ["mapping.json"]),
    "save_spikes_binary": (
        lambda i, d, v: save_spikes_binary(i["record"][v], d / "spikes.bin"),
        ["spikes.bin"]),
    "save_spikes_csv": (
        lambda i, d, v: save_spikes_csv(i["record"][v], d / "spikes.csv"),
        ["spikes.csv"]),
    "save_membrane_csv": (
        lambda i, d, v: save_membrane_csv(i["record"][v], d / "membrane.csv"),
        ["membrane.csv"]),
    "write_analysis": (
        lambda i, d, v: pipeline.write_analysis(i["record"][v],
                                                AnalysisConfig(), d),
        ["rates.csv", "rate_histograms.csv", "analysis.json"]),
    "adapt_stage": (
        lambda i, d, v: pipeline.adapt_stage(i["spec"][v],
                                             AdaptationConfig(), d),
        ["adaptation_report.json", "adaptation_report.txt"]),
    "map_stage": (
        lambda i, d, v: pipeline.map_stage(i["spec"][v], WaferTopology(), d),
        ["capacity_report.json", "mapping_report.json"]),
    "simulate_stage": (
        lambda i, d, v: pipeline.simulate_stage(i["spec"][v], SIM, d),
        ["throughput.json", "throughput.txt"]),
    "cli_sweep": (lambda i, d, v: _sweep(d, v), ["sweep.csv"]),
    "cli_wafer_report": (lambda i, d, v: _wafer_report(d, v),
                         ["wafer_report.json"]),
}


def _no_temp_files(d):
    return not list(d.rglob("*.tmp"))


@pytest.mark.parametrize("writer,name", [
    (writer, name) for writer, (_, names) in WRITERS.items()
    for name in names])
def test_failed_rename_keeps_the_old_file(inputs, tmp_path, monkeypatch,
                                          writer, name):
    write = WRITERS[writer][0]
    write(inputs, tmp_path, 0)
    before = (tmp_path / name).read_bytes()
    replace = os.replace

    def fail_on_name(src, dst):
        if Path(dst).name == name:
            raise OSError("disk full")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", fail_on_name)
    with pytest.raises(OSError, match="disk full"):
        write(inputs, tmp_path, 1)
    assert (tmp_path / name).read_bytes() == before
    assert _no_temp_files(tmp_path)
    # without the failure, the second write replaces the file
    monkeypatch.undo()
    write(inputs, tmp_path, 1)
    assert (tmp_path / name).read_bytes() != before


@pytest.mark.parametrize("writer", ["save_spikes_csv", "save_membrane_csv"])
def test_csv_failing_mid_stream_keeps_the_old_file(inputs, tmp_path,
                                                   monkeypatch, writer):
    write, (name,) = WRITERS[writer]
    monkeypatch.setattr(engine, "_CSV_CHUNK", 4)
    write(inputs, tmp_path, 0)
    before = (tmp_path / name).read_bytes()
    rows, calls = engine._csv_rows, []

    def second_chunk_fails(*args):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("mid-stream")
        return rows(*args)

    monkeypatch.setattr(engine, "_csv_rows", second_chunk_fails)
    with pytest.raises(RuntimeError, match="mid-stream"):
        write(inputs, tmp_path, 1)
    assert (tmp_path / name).read_bytes() == before
    assert _no_temp_files(tmp_path)


def test_sidecar_failing_mid_stream_keeps_the_old_spec(inputs, tmp_path,
                                                       monkeypatch):
    write, names = WRITERS["save_spec"]
    write(inputs, tmp_path, 0)
    before = {n: (tmp_path / n).read_bytes() for n in names}
    records, calls = EdgeList._records, []

    def second_list_fails(self):
        calls.append(self)
        if len(calls) == 2:
            raise RuntimeError("mid-stream")
        return records(self)

    monkeypatch.setattr(EdgeList, "_records", second_list_fails)
    with pytest.raises(RuntimeError, match="mid-stream"):
        write(inputs, tmp_path, 1)
    assert {n: (tmp_path / n).read_bytes() for n in names} == before
    assert _no_temp_files(tmp_path)


# --- one function opens files for writing -------------------------------------

_WRITE_METHODS = {"write_text", "write_bytes", "tofile"}


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether ``call`` writes a file: ``write_text``, ``write_bytes`` or
    ``tofile``, or ``open(path, mode)``/``path.open(mode)`` with a mode that
    is not a constant holding none of ``w``, ``a``, ``x`` and ``+``."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", None)
    if name in _WRITE_METHODS:
        return True
    if name != "open":
        return False
    at = 1 if isinstance(func, ast.Name) else 0  # open(path, mode), p.open(mode)
    mode = next((k.value for k in call.keywords if k.arg == "mode"),
                call.args[at] if len(call.args) > at else None)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def _file_writers(source: str) -> list[str]:
    """The innermost function around each call in ``source`` that opens a
    file for writing (``<module>`` outside any function), in order."""
    found, scope = [], ["<module>"]

    class Visitor(ast.NodeVisitor):
        def visit_FunctionDef(self, node):
            scope.append(node.name)
            self.generic_visit(node)
            scope.pop()

        def visit_Call(self, node):
            if _opens_for_writing(node):
                found.append(scope[-1])
            self.generic_visit(node)

    Visitor().visit(ast.parse(source))
    return found


def test_write_detector_sees_every_idiom():
    source = """
p.write_text(s)
def f():
    with open(p, "wb") as out:
        pass
    with p.open("a") as out:
        pass
    open(p, mode="r+")
    open(p, mode)
    arr.tofile(p)
def g():
    p.read_text(); open(p); open(p, "rb"); p.open(); p.open("r")
    resources.files("x").joinpath("y").open()
"""
    assert _file_writers(source) == ["<module>"] + ["f"] * 5


def test_only_atomic_write_opens_files_for_writing():
    found = [(path.name, func) for path in sorted(SRC.glob("*.py"))
             for func in _file_writers(path.read_text())]
    assert found == [("network.py", "_atomic_write")]
