"""Tests of the benchmark itself, at tiny sizes (a few seconds per run).

Run with ``python3 -m pytest bench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import tracer

TINY = run.Sizes(
    fhn_nodes=20,
    fhn_t_final=0.5,
    fhn_checkpoint_every=50,
    synth_nodes=20,
    synth_columns=300,
    synth_rank=5,
    synth_checkpoint_every=100,
)

# metrics that must be numbers on a workload; the rest may read n/a
APPLIES = {
    "fhn_desk": {"simulate_s", "verify_s", "bound_ratio", "fhn.simulate_s", "fhn.snapshots",
                 "oracle.sweep_s", "oracle.sweep_update_share", "weighted_linalg.operator_norm_s",
                 "perturbation.gap_ok_modes", "io_formats.write_stream_s",
                 "io_formats.read_stream_matrix_s"},
    "synth_long": {"resume_s", "io_formats.restore_ms", "cli.resume_self_s",
                   "io_formats.checkpoint_ms.p50", "weighted_linalg.defect_W"},
    "synth_long_no_w": set(),
}
NOT_CALLED = {
    "fhn_desk": {"resume_s", "io_formats.restore_ms", "cli.resume_self_s"},
    "synth_long": {"simulate_s", "verify_s", "bound_ratio", "fhn.simulate_s", "oracle.sweep_s"},
    "synth_long_no_w": {"resume_s", "io_formats.checkpoint_ms.p50", "weighted_linalg.defect_W",
                        "oracle.sweep_s"},
}
ALWAYS = {"setup_s", "wall_s", "pod_cols_per_s", "peak_rss_mb", "pod_e", "failed_frac",
          "incremental.updates", "incremental.update_us.p50", "weighted_linalg.small_svd_share",
          "cli.import_s", "cli.pod_self_s", "cli.trace_rows", "trace.overhead"}


def tiny_run(workload, tmp_path, traced=False):
    return run.run_workload(workload, 7, 0, traced, sizes=TINY, out_dir=tmp_path, setup_repeats=1)


@pytest.fixture(scope="module", params=sorted(run.WORKLOADS))
def traced_report(request, tmp_path_factory):
    return tiny_run(request.param, tmp_path_factory.mktemp(request.param), traced=True)


def test_every_metric_emitted_with_unit(traced_report, capsys):
    rep = traced_report
    assert rep["failed"] == 0, rep["failures"]
    assert set(rep["end_to_end"]) == set(run.END_TO_END)
    assert set(rep["per_layer"]) == set(layers.PER_LAYER)
    values = {**rep["end_to_end"], **rep["per_layer"]}
    for name in ALWAYS | APPLIES[rep["workload"]]:
        assert not isinstance(values[name], str), (name, values[name])
    for name in NOT_CALLED[rep["workload"]]:
        assert values[name] == layers.NA, (name, values[name])
    if rep["workload"] == "synth_long_no_w":
        assert values["io_formats.checkpoints"] == 0  # a count of zero, not n/a
    assert rep["end_to_end"]["failed_frac"] == 0.0

    run.print_report(rep)
    line = run.contract_line(rep)
    printed = capsys.readouterr().out
    units = {**{k: v[0] for k, v in run.END_TO_END.items()}, **layers.PER_LAYER}
    for name, unit in units.items():
        assert any(name in ln.split() and unit in ln.split() for ln in printed.splitlines()), name
    assert line["correct"] and line["failed"] == 0
    for name, entry in line["metrics"].items():
        assert entry["unit"] == units[name]


def test_untraced_run_reports_end_to_end_contract(tmp_path):
    rep = tiny_run("synth_long_no_w", tmp_path)
    assert rep["per_layer"] is None
    line = run.contract_line(rep)
    assert set(line["metrics"]) == set(run.CONTRACT_END_TO_END)
    assert all(entry["value"] > 0 for entry in line["metrics"].values())


def test_failed_command_counts(tmp_path, monkeypatch):
    real_spawn = run.spawn

    def spawn(args, *rest):
        if "--resume" in args:  # a checkpoint that is not there: data error, exit 2
            args = list(args)
            args[args.index("--resume") + 1] = "absent.podc"
        return real_spawn(args, *rest)

    monkeypatch.setattr(run, "spawn", spawn)
    rep = tiny_run("synth_long", tmp_path)
    assert rep["end_to_end"]["failed_frac"] > 0.0
    assert any("resume exited 2" in f for f in rep["failures"])
    assert not run.contract_line(rep)["correct"]


def test_resumed_checkpoint_one_byte_off_counts(tmp_path, monkeypatch):
    real_spawn = run.spawn

    def spawn(args, cwd, log, deadline):
        result = real_spawn(args, cwd, log, deadline)
        if "--resume" in args:
            out = args[args.index("--output") + 1]
            path = Path(cwd) / f"{out}.podc"
            blob = bytearray(path.read_bytes())
            blob[len(blob) // 2] ^= 0x01
            path.write_bytes(bytes(blob))
        return result

    monkeypatch.setattr(run, "spawn", spawn)
    rep = tiny_run("synth_long", tmp_path)
    assert rep["end_to_end"]["failed_frac"] > 0.0
    assert rep["failures"] == ["resumed checkpoint differs from the uninterrupted run's"]


@pytest.fixture
def restore_call_sites():
    """Undo ``tracer.install`` on the imported incpod modules."""
    saved = []
    for module_name, dotted, *_ in tracer.CALL_SITES + tracer.COUNT_SITES + tracer.ITER_SITES:
        owner, attr = tracer._resolve(module_name, dotted)
        saved.append((owner, attr, owner.__dict__[attr]))
    yield
    for owner, attr, orig in saved:
        setattr(owner, attr, orig)


def test_renamed_call_site_reports_missing(tmp_path, monkeypatch, restore_call_sites):
    import incpod.cli

    sites = tuple(
        (mod, "update_renamed" if name == "incremental.update" else attr, name, hook)
        for mod, attr, name, hook in tracer.CALL_SITES
    )
    monkeypatch.setattr(tracer, "CALL_SITES", sites)
    from incpod.fhn import FhnParams, Mesh1D, build_weight_matrix, simulate
    from incpod.io_formats import write_stream, write_weight_matrix

    stream = tmp_path / "s"

    mesh = Mesh1D(10)
    snaps = simulate(FhnParams(), mesh, 0.2)
    write_stream(f"{stream}.pods", snaps.times, snaps.weights, snaps.columns)
    write_weight_matrix(f"{stream}.wm", build_weight_matrix(mesh))

    t = tracer.Tracer("test")
    tracer.install(t)
    idx = t.open("cli.pod")
    code = incpod.cli.main(["pod", "--input", str(stream), "--output", str(tmp_path / "o")])
    t.close(idx)
    t.dump(tmp_path / "trace.json")
    assert code == 0
    metrics = layers.layer_metrics({"pod": json.loads((tmp_path / "trace.json").read_text())})
    assert metrics["incremental.updates"] == layers.MISSING
    assert metrics["incremental.update_us.p50"] == layers.MISSING
    assert metrics["oracle.sweep_s"] == layers.NA
    assert isinstance(metrics["io_formats.stream_read_s"], float)


def test_benchmark_json_matches_run_py():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.CONTRACT_WORKLOADS)
    assert set(run.CONTRACT_WORKLOADS) <= set(run.WORKLOADS)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert list(e2e) == list(run.CONTRACT_END_TO_END)
    for name, m in e2e.items():
        assert (m["unit"], m["better"]) == run.END_TO_END[name]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == list(run.CONTRACT_PER_LAYER)
    for m in spec["per_layer"]:
        assert m["unit"] == layers.PER_LAYER[m["name"]]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fhn_desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
