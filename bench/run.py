"""Benchmark of the incpod CLI pipeline.

    python3 bench/run.py --workload fhn_desk --seed 0 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 50 --trace 1

Each workload is a sequence of real ``incpod`` commands, each in its own
child process started through ``launcher.py``, one at a time, with BLAS
threads pinned. A run sets up its inputs three to nine times (median
reported as ``setup_s``), then repeats the workload's pass for as long as
another pass still fits in ``--seconds``, and reports medians over the
passes. Every pass checks the program's outputs; ``failed`` counts commands
that exited non-zero and checks that did not hold.

With ``--trace 1`` each round is an untraced pass followed by a traced one;
the traced commands record spans (``tracer.py``) from which ``layers.py``
derives the per-layer metrics, and ``trace.overhead`` compares the two.

The report is printed as a table, written to
``.bench_out/results/<workload>-seed<seed>-trace<t>.json`` with the
environment record, and summarised on the last stdout line as one JSON
object with the metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import filecmp
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCHER = HERE / "launcher.py"

# Pinned in every child: one BLAS thread, and a fixed hash seed so that set
# and dict order repeat from run to run.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
SETUP_S = 3.0  # set-up time to spend at least, within the repeat limits
RUN_LIMIT_S = 170.0  # a run must end within 180 s; commands are killed past this

# name -> (unit, better); every end-to-end metric of the report
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "simulate_s": ("s", "lower"),
    "pod_cols_per_s": ("columns/s", "higher"),
    "verify_s": ("s", "lower"),
    "resume_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "pod_e": ("norm", "lower"),
    "bound_ratio": ("ratio", "lower"),
    "failed_frac": ("fraction", "lower"),
}
# The metrics of the last-line JSON: those measured on every workload whose
# spread over seeds a bound can hold. pod_e is exact for a seed, but on the
# synthetic stream it moves by up to 2x from seed to seed.
CONTRACT_END_TO_END = ("setup_s", "wall_s", "pod_cols_per_s", "peak_rss_mb")
CONTRACT_PER_LAYER = (
    "io_formats.read_weight_matrix_s",
    "io_formats.stream_read_s",
    "io_formats.stream_read_mb_per_s",
    "io_formats.checkpoints",
    "incremental.updates",
    "incremental.update_us.p50",
    "incremental.update_us.p99",
    "incremental.update_us.early",
    "incremental.update_us.late",
    "incremental.update_growth",
    "incremental.update_growth_norm",
    "incremental.rank_grew",
    "incremental.reorth",
    "incremental.T_p",
    "incremental.T_sv",
    "incremental.final_k",
    "weighted_linalg.small_svd_us.p50",
    "weighted_linalg.small_svd_us.p99",
    "weighted_linalg.small_svd_share",
    "weighted_linalg.matvec_per_update",
    "weighted_linalg.mgs_calls",
    "weighted_linalg.mgs_ms",
    "weighted_linalg.defect_V",
    "cli.import_s",
    "cli.pod_self_s",
    "cli.trace_rows",
    "trace.overhead",
)


@dataclasses.dataclass(frozen=True)
class Sizes:
    fhn_nodes: int = 200  # m = 400
    fhn_t_final: float = 2.5  # 688 snapshots
    fhn_tol: str = "1e-12"
    fhn_checkpoint_every: int = 200
    synth_nodes: int = 500  # m = 1000
    synth_columns: int = 4000
    synth_rank: int = 40
    synth_noise: float = 1e-11
    synth_tol: str = "1e-9"
    synth_checkpoint_every: int = 1000


class SetupError(Exception):
    pass


@dataclasses.dataclass
class Outcome:
    name: str
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    trace: dict | None


def child_env():
    env = dict(os.environ)
    env.update(PINNED_ENV)
    return env


def spawn(args, cwd, log, deadline):
    """Run ``launcher.py args`` to completion; return (exit code, wall s,
    rusage). stdout and stderr go to ``log``.out / ``log``.err."""
    with open(f"{log}.out", "w") as out, open(f"{log}.err", "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER), *args],
            cwd=cwd,
            stdout=out,
            stderr=err,
            env=child_env(),
        )
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    return proc.returncode, wall, usage


class Run:
    """One benchmark run of one workload: its directory, tally and children."""

    def __init__(self, workload, seed, sizes, workdir):
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self._serial = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def launch(self, args, tag):
        self._serial += 1
        log = self.workdir / "logs" / f"{self._serial:04d}-{tag}"
        log.parent.mkdir(exist_ok=True)
        code, wall, usage = spawn(args, self.workdir, log, self.deadline)
        return code, wall, usage, Path(f"{log}.out").read_text(), log

    def setup_child(self, args):
        code, _, _, stdout, log = self.launch(args, "setup")
        if code != 0:
            err = Path(f"{log}.err").read_text().strip().splitlines()
            raise SetupError(f"set-up child {args[0]} exited {code}: {err[-1:] or ''}")
        return stdout

    def command(self, name, argv, traced):
        """One timed incpod command; a non-zero exit counts as failed."""
        args = ["cli"]
        trace_file = None
        if traced:
            trace_file = self.workdir / "logs" / f"trace-{self._serial + 1:04d}.json"
            run_id = f"{self.workload}-s{self.seed}-{self._serial + 1:04d}-{name}"
            args += ["--trace", str(trace_file), "--run-id", run_id]
        code, wall, usage, stdout, _ = self.launch([*args, "--", *argv], name)
        self.check(code == 0, f"{name} exited {code}")
        trace = None
        if trace_file is not None and trace_file.exists():
            trace = json.loads(trace_file.read_text())
        cpu = usage.ru_utime + usage.ru_stime
        return Outcome(name, code, wall, cpu, usage.ru_maxrss / 1024.0, stdout, trace)


# -- output checks ----------------------------------------------------------

def summary(stdout):
    """The ``key=value`` pairs a command prints, e.g. ``n=2451 rank=62 e=...``."""
    return dict(re.findall(r"(\w+)=(\S+)", stdout))


def check_pod(run, outcome, tol, tol_sv, columns=None):
    """Check ``pod``'s summary line; return its ``e`` (None if unreadable).

    The bound must not exceed its cap T_p*tol + T_sv*tol_sv. ``pod`` prints e
    to 7 significant digits, so the cap gets that rounding's half-unit.
    """
    fields = summary(outcome.stdout)
    try:
        n, e, t_p, t_sv = (fields[k] for k in ("n", "e", "T_p", "T_sv"))
        n, e, t_p, t_sv = int(n), float(e), int(t_p), int(t_sv)
    except (KeyError, ValueError):
        run.check(False, f"{outcome.name} printed no readable n, e, T_p, T_sv")
        return None
    cap = t_p * float(tol) + t_sv * float(tol_sv)
    run.check(e <= cap * (1 + 5e-7), f"{outcome.name}: e={e} above T_p*tol+T_sv*tol_sv={cap}")
    if columns is not None:
        run.check(n == columns, f"{outcome.name} consumed {n} of {columns} columns")
    return e


def check_sweep(run, path):
    """Every tolerance cell of verify's sweep must be dominated; return the
    largest incr_error_bound / exact_error."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError:
        rows = []
    if not run.check(bool(rows), f"{path.name} missing or empty"):
        return None
    ratios = []
    for row in rows:
        cell = f"{row.get('tol')},{row.get('tol_sv')}"
        run.check(row.get("dominated") == "true", f"sweep cell {cell} not dominated")
        try:
            ratios.append(float(row["incr_error_bound"]) / float(row["exact_error"]))
        except (KeyError, ValueError, ZeroDivisionError):
            pass  # the ratio is a report, not a check
    return max(ratios) if ratios else None


def files_equal(a, b):
    try:
        return filecmp.cmp(a, b, shallow=False)
    except OSError:
        return False


def trace_rows(path):
    try:
        with open(path) as fh:
            return sum(1 for _ in fh) - 1
    except OSError:
        return None


# -- workloads --------------------------------------------------------------


class FhnDesk:
    why = (
        "desk-scale FHN simulate -> pod -> verify; "
        "the only workload where fhn, oracle and the operator norm work"
    )
    seeded = False

    def setup(self, run):
        run.setup_child(["probe"])

    def run_pass(self, run, out, traced):
        sz = run.sizes
        sim = run.command(
            "simulate",
            ["simulate", "--nodes", str(sz.fhn_nodes), "--t-final", str(sz.fhn_t_final),
             "--output", "fhn"],
            traced,
        )
        pod = run.command(
            "pod",
            ["pod", "--input", "fhn", "--output", f"{out}/pod", "--tol", sz.fhn_tol,
             "--tol-sv", sz.fhn_tol, "--checkpoint-every", str(sz.fhn_checkpoint_every)],
            traced,
        )
        ver = run.command("verify", ["verify", "--input", "fhn", "--output", f"{out}/ver"], traced)
        snapshots = summary(sim.stdout).get("s", "")
        columns = int(snapshots) if snapshots.isdigit() else None
        e = check_pod(run, pod, sz.fhn_tol, sz.fhn_tol, columns)
        ratio = check_sweep(run, run.workdir / f"{out}/ver_sweep.csv")
        return [sim, pod, ver], {
            "simulate_s": sim.wall_s,
            "verify_s": ver.wall_s,
            "pod_cols_per_s": (columns or 0) / pod.wall_s,
            "pod_e": e,
            "bound_ratio": ratio,
        }


class SynthLong:
    why = (
        "seeded rank-40 stream, W kept, checkpoints and a resume from N/2; "
        "the with-W update and checkpoint I/O dominate"
    )
    seeded = True
    keep_w = True

    def pod_flags(self, sz):
        flags = ["--tol", sz.synth_tol, "--tol-sv", sz.synth_tol]
        if self.keep_w:
            return flags + ["--checkpoint-every", str(sz.synth_checkpoint_every)]
        return flags + ["--no-w"]

    def setup(self, run):
        sz = run.sizes
        args = ["synth", "--seed", str(run.seed), "--nodes", str(sz.synth_nodes),
                "--columns", str(sz.synth_columns), "--rank", str(sz.synth_rank),
                "--noise", repr(sz.synth_noise), "--out", "synth"]
        if self.keep_w:
            args += ["--prefix-columns", str(sz.synth_columns // 2), "--prefix-out", "prefix",
                     "--checkpoint-out", "half", "--", *self.pod_flags(sz)]
        run.setup_child(args)

    def run_pass(self, run, out, traced):
        sz = run.sizes
        flags = self.pod_flags(sz)
        pod = run.command(
            "pod", ["pod", "--input", "synth", "--output", f"{out}/pod", *flags], traced
        )
        cmds = [pod]
        e = check_pod(run, pod, sz.synth_tol, sz.synth_tol, sz.synth_columns)
        metrics = {"pod_cols_per_s": sz.synth_columns / pod.wall_s, "pod_e": e}
        if self.keep_w:
            res = run.command(
                "resume",
                ["pod", "--input", "synth", "--output", f"{out}/resumed", *flags,
                 "--resume", "half.podc"],
                traced,
            )
            cmds.append(res)
            check_pod(run, res, sz.synth_tol, sz.synth_tol, sz.synth_columns)
            run.check(
                files_equal(run.workdir / f"{out}/pod.podc", run.workdir / f"{out}/resumed.podc"),
                "resumed checkpoint differs from the uninterrupted run's",
            )
            metrics["resume_s"] = res.wall_s
        return cmds, metrics


class SynthLongNoW(SynthLong):
    why = (
        "the same stream through pod --no-w, no checkpoints; "
        "bypasses the W rotation and checkpoint I/O"
    )
    keep_w = False


WORKLOADS = {"fhn_desk": FhnDesk(), "synth_long": SynthLong(), "synth_long_no_w": SynthLongNoW()}
# The workloads of BENCHMARK.json. synth_long_no_w runs on request only: with
# a third workload, the time allowed for all runs would leave each run too
# short for steady medians.
CONTRACT_WORKLOADS = ("fhn_desk", "synth_long")


# -- one run ----------------------------------------------------------------


def environment(run, probe_stdout):
    info = json.loads(probe_stdout.strip().splitlines()[-1])
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "incpod").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = done.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **info,
        "pinned_env": PINNED_ENV,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload_seeds": {"data": run.seed} if WORKLOADS[run.workload].seeded else {},
        "seed": run.seed,
    }


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run_workload(name, seed, seconds, traced, sizes=Sizes(), out_dir=None, setup_repeats=3):
    """Set up, measure and check one workload; return the full report."""
    spec = WORKLOADS[name]
    out_dir = Path(out_dir or ROOT / ".bench_out")
    workdir = out_dir / f"work-{name}"
    run = Run(name, seed, sizes, workdir)

    # At least setup_repeats set-ups; cheap ones are repeated, up to three
    # times as often, until SETUP_S have gone into them.
    setups = []
    env = None
    while len(setups) < max(1, setup_repeats) or (
        sum(setups) < SETUP_S and len(setups) < 3 * setup_repeats
    ):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        if env is None:
            env = environment(run, run.setup_child(["probe"]))
        t0 = time.perf_counter()
        spec.setup(run)
        setups.append(time.perf_counter() - t0)

    plain, traced_passes = [], []
    start = round_start = time.perf_counter()
    round_s = []
    while True:
        rounds = (False, True) if traced else (False,)
        failed_before = run.failed
        for tr in rounds:
            out = f"pass{len(plain) + len(traced_passes)}"
            (workdir / out).mkdir()
            cmds, metrics = spec.run_pass(run, out, tr)
            metrics["wall_s"] = sum(c.wall_s for c in cmds)
            metrics["peak_rss_mb"] = max(c.rss_mb for c in cmds)
            if tr:
                traces = {c.name: c.trace for c in cmds if c.trace is not None}
                metrics["layers"] = traces
                metrics["trace_rows"] = trace_rows(workdir / f"{out}/pod_trace.csv")
            metrics["commands"] = [
                {"name": c.name, "code": c.code, "wall_s": c.wall_s, "cpu_s": c.cpu_s,
                 "rss_mb": c.rss_mb}
                for c in cmds
            ]
            (traced_passes if tr else plain).append(metrics)
            shutil.rmtree(workdir / out)
        now = time.perf_counter()
        round_s.append(now - round_start)
        round_start = now
        # No round is started that would, at the median round's length, end
        # past --seconds; nor one that could, at the longest's, pass the deadline.
        if run.failed > failed_before or now - start + statistics.median(round_s) > seconds:
            break
        if time.monotonic() + max(round_s) > run.deadline:
            break

    e2e = {name_: None for name_ in END_TO_END}
    e2e["setup_s"] = statistics.median(setups)
    for key in e2e:
        if key not in ("setup_s", "peak_rss_mb", "failed_frac"):
            e2e[key] = _median(p.get(key) for p in plain)
    e2e["peak_rss_mb"] = max(p["peak_rss_mb"] for p in plain)
    e2e["failed_frac"] = run.failed / max(1, run.attempted)
    e2e = {k: (layers.NA if v is None else v) for k, v in e2e.items()}

    per_layer = None
    if traced:
        overhead = statistics.median(p["wall_s"] for p in traced_passes) / e2e["wall_s"] - 1.0
        per_layer = layers.median_of_passes(
            [layers.layer_metrics(p["layers"], p["trace_rows"], overhead) for p in traced_passes]
        )

    if run.failed == 0:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "passes": len(plain),
        "traced_passes": len(traced_passes),
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "end_to_end": e2e,
        "per_layer": per_layer,
        "environment": env,
        "pass_log": [
            {k: v for k, v in p.items() if k != "layers"} for p in plain + traced_passes
        ],
    }


# -- report -----------------------------------------------------------------


def _fmt(value):
    return value if isinstance(value, str) else repr(value)


def print_report(rep):
    print(
        f"== {rep['workload']}  seed={rep['seed']}  trace={rep['trace']}  "
        f"passes={rep['passes']}  traced_passes={rep['traced_passes']}  "
        f"attempted={rep['attempted']}  failed={rep['failed']}"
    )
    print("environment: " + json.dumps(rep["environment"], sort_keys=True))
    for failure in rep["failures"]:
        print(f"FAILED: {failure}")
    print("end to end:")
    for name, (unit, better) in END_TO_END.items():
        print(f"  {name:<36} {_fmt(rep['end_to_end'][name]):>24} {unit:<10} ({better} is better)")
    if rep["per_layer"] is not None:
        print("per layer (traced):")
        for name, unit in layers.PER_LAYER.items():
            print(f"  {name:<36} {_fmt(rep['per_layer'][name]):>24} {unit}")


def contract_line(rep):
    """The last-line JSON: the BENCHMARK.json metrics that were measured."""
    if rep["per_layer"] is None:
        values, units = rep["end_to_end"], {k: v[0] for k, v in END_TO_END.items()}
        names = CONTRACT_END_TO_END
    else:
        values, units, names = rep["per_layer"], layers.PER_LAYER, CONTRACT_PER_LAYER
    metrics = {
        n: {"value": values[n], "unit": units[n]} for n in names if not isinstance(values[n], str)
    }
    unmeasured = [f"{n}={values[n]}" for n in names if isinstance(values[n], str)]
    if unmeasured:
        print("not measured: " + ", ".join(unmeasured))
    return {
        "correct": rep["failed"] == 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = []
    for name in names:
        try:
            rep = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except SetupError as exc:
            print(f"bench: {name}: {exc}", file=sys.stderr)
            return 2
        results = ROOT / ".bench_out" / "results"
        results.mkdir(parents=True, exist_ok=True)
        path = results / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(rep, indent=1, sort_keys=True))
        print_report(rep)
        lines.append((name, contract_line(rep)))
    if len(lines) == 1:
        print(json.dumps(lines[0][1]))
    else:
        print(
            json.dumps(
                {
                    "correct": all(line["correct"] for _, line in lines),
                    "attempted": sum(line["attempted"] for _, line in lines),
                    "failed": sum(line["failed"] for _, line in lines),
                    "metrics": {
                        f"{name}.{metric}": value
                        for name, line in lines
                        for metric, value in line["metrics"].items()
                    },
                }
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
