import csv
import io
import os
import shutil
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from incpod import cli
from incpod.cli import main
from incpod.errors import InvalidInputError
from incpod.fhn import Mesh1D, build_weight_matrix
from incpod.incremental import RUN, SvdState, Tolerances, run_stream
from incpod.io_formats import (
    StreamReader,
    StreamWriter,
    checkpoint,
    read_stream_matrix,
    read_weight_matrix,
    restore,
    write_stream,
    write_weight_matrix,
)


@pytest.fixture(scope="module")
def fhn_prefix(tmp_path_factory):
    """Small simulated dataset shared by the CLI tests."""
    prefix = str(tmp_path_factory.mktemp("cli") / "fhn")
    assert main(["simulate", "--nodes", "40", "--t-final", "0.8",
                 "--output", prefix]) == 0
    return prefix


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def write_prefix(prefix, source, times, weights, cols):
    """Stream ``cols`` to ``prefix.pods``, with ``source``'s weight matrix."""
    n = cols.shape[1]
    with StreamWriter(prefix + ".pods", cols.shape[0], count=n) as w:
        for j in range(n):
            w.write_column(times[j], weights[j], cols[:, j])
    shutil.copy(source + ".wm", prefix + ".wm")


def run_with_blas_threads(threads, tmp_path, *argv):
    """Run ``incpod.cli argv`` in a child with ``threads`` BLAS threads in
    its environment, or with the variables unset if None; returns the
    output prefix it wrote."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    if threads:
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
    out = str(tmp_path / f"{argv[0]}_threads_{threads}")
    subprocess.run([sys.executable, "-m", "incpod.cli", *argv, "--output", out], env=env,
                   check=True, capture_output=True)
    return out


def run_cut(rows, where):
    """The first column n of a trace where a checkpoint falls inside an
    open run, where a run closes at n = 0 (mod RUN), or on a growth column
    that closes an open run. A column joined a run if it was p-truncated
    (e_p > 0) at rank >= 1 before it."""
    joined = {int(n): float(e_p) > 0.0 for n, _, _, e_p, _, _ in rows[1:]}
    grew = {int(n): float(e_p) == 0.0 and float(p) > 0.0 for n, _, p, e_p, _, _ in rows}
    for n in sorted(joined):
        if not joined.get(n - 1):
            continue
        if (where == "in_run" and joined[n] and n % RUN
                or where == "run_boundary" and joined[n] and n % RUN == 0
                or where == "growth" and grew[n]):
            return n
    raise AssertionError(f"no {where} column in the trace")


class TestUsageErrors:
    def test_nodes_too_small(self, tmp_path):
        assert main(["simulate", "--nodes", "1", "--output", str(tmp_path / "x")]) == 1

    def test_nonpositive_horizon(self, tmp_path):
        assert main(["simulate", "--t-final", "0", "--output", str(tmp_path / "x")]) == 1

    def test_bad_tolerance(self, fhn_prefix, tmp_path):
        assert main(["pod", "--input", fhn_prefix, "--output", str(tmp_path / "p"),
                     "--tol", "0"]) == 1

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_same_input_output(self, fhn_prefix):
        assert main(["pod", "--input", fhn_prefix, "--output", fhn_prefix]) == 1

    @pytest.mark.parametrize("args", [["0", "5", "1"], ["-1", "3", "1"], ["3", "3", "-1"]],
                             ids=["zero_m", "negative_m", "negative_seed"])
    def test_bad_random_instance(self, tmp_path, args):
        assert main(["verify", "--output", str(tmp_path / "v"), "--random", *args]) == 1

    @pytest.mark.parametrize("flag", [["--checkpoint-every", "5"], ["--resume", "x.podc"]],
                             ids=["checkpoint_every", "resume"])
    def test_no_w_cannot_checkpoint(self, fhn_prefix, tmp_path, flag):
        out = str(tmp_path / "p")
        assert main(["pod", "--input", fhn_prefix, "--output", out, "--no-w", *flag]) == 1


class TestSimulate:
    def test_outputs_exist_with_expected_dimension(self, fhn_prefix):
        with StreamReader(fhn_prefix + ".pods") as reader:
            assert reader.m == 80
            # adaptive step count, observed once and pinned as a range
            assert 50 <= reader.count <= 2000


class TestPod:
    def test_trace_monotone_error_bound(self, fhn_prefix, tmp_path):
        out = str(tmp_path / "pod")
        assert main(["pod", "--input", fhn_prefix, "--output", out,
                     "--tol", "1e-12", "--tol-sv", "1e-12"]) == 0
        rows = read_csv_rows(out + "_trace.csv")
        assert rows[0] == ["n", "k", "p", "e_p", "e_sv", "e"]
        # one row per stream column, the first one's p its norm
        with StreamReader(fhn_prefix + ".pods") as reader:
            assert [r[0] for r in rows[1:]] == [str(n) for n in range(1, reader.count + 1)]
        assert rows[1][1] == "1" and float(rows[1][2]) > 0.0
        e_vals = [float(r[5]) for r in rows[1:]]
        assert all(b >= a for a, b in zip(e_vals, e_vals[1:]))
        assert e_vals[-1] > 0.0

    def test_deterministic_outputs(self, fhn_prefix, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out1, out2):
            assert main(["pod", "--input", fhn_prefix, "--output", out]) == 0
        assert (
            open(out1 + ".podc", "rb").read() == open(out2 + ".podc", "rb").read()
        )
        assert (
            open(out1 + "_eigenvalues.csv").read()
            == open(out2 + "_eigenvalues.csv").read()
        )

    def test_dimension_mismatch_exit_code(self, fhn_prefix, tmp_path):
        other = str(tmp_path / "smaller")
        assert main(["simulate", "--nodes", "30", "--t-final", "0.2",
                     "--output", other]) == 0
        # stream from one mesh, weight matrix from another
        mixed = str(tmp_path / "mixed")
        import shutil

        shutil.copy(fhn_prefix + ".pods", mixed + ".pods")
        shutil.copy(other + ".wm", mixed + ".wm")
        assert main(["pod", "--input", mixed, "--output", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("dims, entry", [
        ("3 3 x", "1 1 1.0"),
        ("3 3 -1", "1 1 1.0"),
        ("-3 -3 1", "1 1 1.0"),
        ("3 3 1", "5 1 1.0"),
        ("3 3 1", "0 0 1.0"),
        ("3 3 1", "a 1 1.0"),
        ("3 3 1", "1 1 abc"),
        ("3 3 1", "1 1 nan"),
    ], ids=["dims", "negative_nnz", "negative_m", "row_outside", "index_zero",
            "index", "value", "nonfinite"])
    def test_malformed_weight_matrix_exit_code(self, fhn_prefix, tmp_path, dims, entry):
        bad = str(tmp_path / "bad")
        shutil.copy(fhn_prefix + ".pods", bad + ".pods")
        with open(bad + ".wm", "w") as fh:
            fh.write(f"%%WeightMatrix symmetric\n{dims}\n{entry}\n")
        assert main(["pod", "--input", bad, "--output", str(tmp_path / "o")]) == 2

    def test_missing_input_exit_code(self, tmp_path):
        assert main(["pod", "--input", str(tmp_path / "nope"),
                     "--output", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("leading_zeros, cut", [
        pytest.param(0, None, id="0"),
        pytest.param(3, None, id="3"),
        pytest.param(5, 2, id="cut_in_zeros"),
        pytest.param(0, "in_run", id="in_run"),
        # two leading zeros put a run's end, n = 0 (mod RUN), between two
        # appended columns of this data
        pytest.param(2, "run_boundary", id="run_boundary"),
        pytest.param(0, "growth", id="growth"),
    ])
    def test_checkpoint_resume_bitwise(self, fhn_prefix, tmp_path, leading_zeros, cut):
        times, weights, cols = read_stream_matrix(fhn_prefix + ".pods")
        # zero columns ahead of the data: counted by n, passed over on resume
        cols = np.hstack([np.zeros((cols.shape[0], leading_zeros)), cols])
        times = np.concatenate([np.zeros(leading_zeros), times])
        weights = np.concatenate([np.ones(leading_zeros), weights])
        full_prefix = str(tmp_path / "data")
        write_prefix(full_prefix, fhn_prefix, times, weights, cols)
        if cut is None:
            cut = leading_zeros + (cols.shape[1] - leading_zeros) // 2

        # uninterrupted reference
        full_out = str(tmp_path / "full")
        assert main(["pod", "--input", full_prefix, "--output", full_out]) == 0
        if isinstance(cut, str):
            cut = run_cut(read_csv_rows(full_out + "_trace.csv")[1:], cut)

        # interrupted: pod over a truncated copy, checkpointing as we go
        part_prefix = str(tmp_path / "part")
        write_prefix(part_prefix, fhn_prefix, times, weights, cols[:, :cut])
        part_out = str(tmp_path / "part_run")
        # a prefix of zeros ends at rank 0 (exit 2), after its checkpoint
        code = main(["pod", "--input", part_prefix, "--output", part_out,
                     "--checkpoint-every", str(cut)])
        assert code == (2 if cut <= leading_zeros else 0)

        # resume over the full stream from the mid-run checkpoint, into the
        # interrupted run's own prefix: its trace is continued
        assert main(["pod", "--input", full_prefix, "--output", part_out,
                     "--resume", part_out + ".podc"]) == 0

        for suffix in (".podc", "_eigenvalues.csv", "_trace.csv"):
            assert Path(part_out + suffix).read_bytes() == Path(full_out + suffix).read_bytes()

    @pytest.mark.parametrize("left_trace", ["none", "other_run", "past_checkpoint"])
    def test_resumed_trace(self, fhn_prefix, tmp_path, left_trace):
        times, weights, cols = read_stream_matrix(fhn_prefix + ".pods")
        cut = cols.shape[1] // 2
        part_prefix = str(tmp_path / "part")
        write_prefix(part_prefix, fhn_prefix, times, weights, cols[:, :cut])
        ckpt = str(tmp_path / "ckpt")
        assert main(["pod", "--input", part_prefix, "--output", ckpt]) == 0
        full_out = str(tmp_path / "full")
        assert main(["pod", "--input", fhn_prefix, "--output", full_out]) == 0
        full_trace = Path(full_out + "_trace.csv").read_bytes()
        header, *rows = full_trace.splitlines(keepends=True)

        out = str(tmp_path / "out")
        if left_trace == "other_run":
            # the stream and tolerances halved: every row has the same n and
            # k as the resumed run's, but half its e
            halved = str(tmp_path / "halved")
            write_prefix(halved, fhn_prefix, times, weights, cols * 0.5)
            assert main(["pod", "--input", halved, "--output", out,
                         "--tol", "5e-11", "--tol-sv", "5e-11"]) == 0
        elif left_trace == "past_checkpoint":
            # the interrupted run traced columns after its last checkpoint
            Path(out + "_trace.csv").write_bytes(full_trace)
        assert main(["pod", "--input", fhn_prefix, "--output", out,
                     "--resume", ckpt + ".podc"]) == 0

        expected = full_trace if left_trace == "past_checkpoint" else b"".join(
            [header, *rows[cut:]])
        assert Path(out + "_trace.csv").read_bytes() == expected

    @pytest.mark.parametrize("mismatch", ["short_stream", "other_m", "other_tols"])
    def test_resume_rejects_foreign_checkpoint(self, fhn_prefix, tmp_path, mismatch):
        source, stream, flags = fhn_prefix, fhn_prefix, []
        if mismatch == "short_stream":
            # the checkpoint consumed the whole stream; resume over 10 columns
            times, weights, cols = read_stream_matrix(fhn_prefix + ".pods")
            stream = str(tmp_path / "short")
            write_prefix(stream, fhn_prefix, times, weights, cols[:, :10])
        elif mismatch == "other_m":
            source = str(tmp_path / "other")
            assert main(["simulate", "--nodes", "30", "--t-final", "0.2",
                         "--output", source]) == 0
        else:
            # the checkpoint is made at the default tolerances
            flags = ["--tol", "1e-3"]
        ckpt = str(tmp_path / "ckpt")
        assert main(["pod", "--input", source, "--output", ckpt]) == 0
        before = Path(ckpt + ".podc").read_bytes()
        assert main(["pod", "--input", stream, "--output", ckpt,
                     "--resume", ckpt + ".podc", *flags]) == 2
        assert Path(ckpt + ".podc").read_bytes() == before

    def test_resume_from_version_4_exit_code(self, fhn_prefix, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        assert main(["pod", "--input", fhn_prefix, "--output", ckpt]) == 0
        blob = Path(ckpt + ".podc").read_bytes()
        Path(ckpt + ".podc").write_bytes(blob[:4] + struct.pack("<I", 4) + blob[8:])
        assert main(["pod", "--input", fhn_prefix, "--output", str(tmp_path / "p"),
                     "--resume", ckpt + ".podc"]) == 2

    def test_resume_from_version_5_exit_code(self, fhn_prefix, tmp_path):
        # version 5 had version 6's layout with V = L^-T Q in place of Q: a
        # well-formed one is refused, not resumed from its V as Q
        ckpt = str(tmp_path / "ckpt")
        assert main(["pod", "--input", fhn_prefix, "--output", ckpt]) == 0
        state, _ = restore(ckpt + ".podc")
        state.M = read_weight_matrix(fhn_prefix + ".wm")
        head = Path(ckpt + ".podc").read_bytes()[8 : 8 + 88]
        payload = head + b"".join(
            np.ascontiguousarray(a, dtype="<f8").tobytes()
            for a in (state.V, state.sigma, state.W0, state.Wp, state.run)
        )
        Path(ckpt + ".podc").write_bytes(
            b"PODC" + struct.pack("<I", 5) + payload + struct.pack("<I", zlib.crc32(payload)))
        assert main(["pod", "--input", fhn_prefix, "--output", str(tmp_path / "p"),
                     "--resume", ckpt + ".podc"]) == 2

    def test_not_positive_definite_weight_exit_code(self, tmp_path):
        # pod streams in the weight's Cholesky factor: an indefinite weight
        # is a numerical failure, as in verify
        bad = str(tmp_path / "bad")
        write_stream(bad + ".pods", [1.0, 2.0], [1.0, 1.0], np.array([[1.0, 0.5], [0.0, 1.0]]))
        with open(bad + ".wm", "w") as fh:
            fh.write("%%WeightMatrix symmetric\n2 2 2\n1 1 1\n2 2 -1\n")
        assert main(["pod", "--input", bad, "--output", str(tmp_path / "o")]) == 3

    def test_resume_from_nonpositive_tolerance_exit_code(self, fhn_prefix, tmp_path):
        # tol (payload bytes 72-80) forged to -1 under a valid CRC
        ckpt = str(tmp_path / "ckpt")
        assert main(["pod", "--input", fhn_prefix, "--output", ckpt]) == 0
        blob = Path(ckpt + ".podc").read_bytes()
        payload = blob[8:80] + struct.pack("<d", -1.0) + blob[88:-4]
        Path(ckpt + ".podc").write_bytes(blob[:8] + payload + struct.pack("<I", zlib.crc32(payload)))
        assert main(["pod", "--input", fhn_prefix, "--output", str(tmp_path / "p"),
                     "--resume", ckpt + ".podc"]) == 2

    def test_resume_from_w0_wider_than_wp_exit_code(self, fhn_prefix, tmp_path):
        # a CRC-valid checkpoint whose W0 has more columns (4) than Wp has
        # rows (3) is refused, not resumed by folding a later column's row
        m = read_weight_matrix(fhn_prefix + ".wm").dim
        rng = np.random.default_rng(3)
        state = SvdState(
            Q=np.linalg.qr(rng.standard_normal((m, 3)))[0], sigma=np.array([3.0, 2.0, 1.0]),
            W0=rng.standard_normal((5, 4)), Wp=np.eye(3), n=5,
            D=rng.standard_normal((3, RUN)), j=1,
        )
        ckpt = tmp_path / "wide.podc"
        checkpoint(state, ckpt, Tolerances())
        assert main(["pod", "--input", fhn_prefix, "--output", str(tmp_path / "p"),
                     "--resume", str(ckpt)]) == 2

    def test_resume_from_empty_checkpoint_exit_code(self, fhn_prefix, tmp_path):
        # magic, version 1 and the CRC of an empty payload, nothing else
        ckpt = tmp_path / "empty.podc"
        ckpt.write_bytes(b"PODC" + struct.pack("<II", 1, zlib.crc32(b"")))
        assert main(["pod", "--input", fhn_prefix, "--output", str(tmp_path / "p"),
                     "--resume", str(ckpt)]) == 2

    def test_no_w_flag(self, fhn_prefix, tmp_path):
        import os

        out = str(tmp_path / "now")
        assert main(["pod", "--input", fhn_prefix, "--output", out, "--no-w"]) == 0
        assert os.path.exists(out + "_eigenvalues.csv")
        assert not os.path.exists(out + ".podc")  # nothing to checkpoint without W

    def test_checkpoint_every_produces_same_final_state(self, fhn_prefix, tmp_path):
        plain, every = str(tmp_path / "plain"), str(tmp_path / "every")
        assert main(["pod", "--input", fhn_prefix, "--output", plain]) == 0
        assert main(["pod", "--input", fhn_prefix, "--output", every,
                     "--checkpoint-every", "25"]) == 0
        assert (
            open(plain + ".podc", "rb").read() == open(every + ".podc", "rb").read()
        )


@pytest.mark.parametrize("subcommand", ["pod", "verify"])
def test_bytes_after_declared_records_exit_code(fhn_prefix, tmp_path, subcommand):
    padded = str(tmp_path / "padded")
    shutil.copy(fhn_prefix + ".wm", padded + ".wm")
    Path(padded + ".pods").write_bytes(Path(fhn_prefix + ".pods").read_bytes() + bytes(1000))
    assert main([subcommand, "--input", padded, "--output", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("subcommand", ["verify", "report"])
def test_nan_in_stream_is_a_data_error(tmp_path, capsys, subcommand):
    # verify decomposes the whole stream before it streams a column, so the
    # NaN must be caught where the stream is read, not by the SVD (exit 3)
    prefix = str(tmp_path / "nan")
    write_weight_matrix(prefix + ".wm", build_weight_matrix(Mesh1D(5)))
    cols = np.random.default_rng(0).standard_normal((10, 8))
    cols[4, 5] = np.nan
    write_stream(prefix + ".pods", np.arange(1.0, 9.0), np.ones(8), cols)
    capsys.readouterr()
    assert main([subcommand, "--input", prefix, "--output", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1


class TestVerify:
    def test_grid_on_fhn_data(self, fhn_prefix, tmp_path):
        out = str(tmp_path / "ver")
        assert main(["verify", "--input", fhn_prefix, "--output", out]) == 0
        rows = read_csv_rows(out + "_sweep.csv")
        assert rows[0] == ["tol", "tol_sv", "rank", "exact_error",
                           "incr_error_bound", "dominated"]
        assert len(rows) == 10
        assert all(r[5] == "true" for r in rows[1:])
        modes = read_csv_rows(out + "_modes.csv")
        assert modes[0][0] == "j"
        assert len(modes) > 1

    def test_random_mode(self, tmp_path):
        out = str(tmp_path / "rnd")
        assert main(["verify", "--output", out, "--random", "20", "12", "7"]) == 0
        rows = read_csv_rows(out + "_sweep.csv")
        assert len(rows) == 2
        assert float(rows[1][4]) == 0.0  # no truncation events
        assert rows[1][5] == "true"

    def test_modes_file_is_rewritten_when_no_mode_qualifies(self, tmp_path):
        # a rank-1 run has no distinct prefix of modes: its _modes.csv holds
        # the header only, not the rows of an earlier run under the prefix
        out = str(tmp_path / "x")
        assert main(["verify", "--output", out, "--random", "20", "12", "7"]) == 0
        assert len(read_csv_rows(out + "_modes.csv")) > 1
        assert main(["verify", "--output", out, "--random", "1", "1", "0"]) == 0
        assert read_csv_rows(out + "_sweep.csv")[1][2] == "1"
        assert read_csv_rows(out + "_modes.csv") == [
            ["j", "sigma_j", "eps_j", "E_j", "gap_ok", "v_err", "v_bound", "w_err", "w_bound"]
        ]

    def test_column_cap(self, fhn_prefix, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_COLUMNS", 3)
        out = str(tmp_path / "cap")
        assert main(["verify", "--input", fhn_prefix, "--output", out]) == 2

    def test_not_positive_definite_weights_exit_code(self, fhn_prefix, tmp_path):
        from incpod.io_formats import read_stream_matrix, write_stream

        # tiny stream with an indefinite weight matrix: numerical failure
        bad = str(tmp_path / "bad")
        write_stream(bad + ".pods", [1.0, 2.0], [1.0, 1.0],
                     np.array([[1.0, 0.5], [0.0, 1.0]]))
        with open(bad + ".wm", "w") as fh:
            fh.write("%%WeightMatrix symmetric\n2 2 2\n1 1 1\n2 2 -1\n")
        assert main(["verify", "--input", bad, "--output",
                     str(tmp_path / "o")]) == 3

    def test_outputs_do_not_depend_on_blas_threads(self, tmp_path):
        # verify sets one BLAS thread itself: children started with one
        # thread, two, or the variables unset write the same bytes. At 100
        # nodes a two-thread BLAS changes the exact SVD's modes
        data = str(tmp_path / "fhn")
        assert main(["simulate", "--nodes", "100", "--t-final", "2.5", "--output", data]) == 0
        outs = [run_with_blas_threads(threads, tmp_path, "verify", "--input", data)
                for threads in ("1", "2", None)]
        for suffix in ("_sweep.csv", "_modes.csv"):
            first = Path(outs[0] + suffix).read_bytes()
            assert all(Path(o + suffix).read_bytes() == first for o in outs[1:]), suffix


class TestReport:
    def test_figure_data(self, fhn_prefix, tmp_path):
        out = str(tmp_path / "rep")
        assert main(["report", "--input", fhn_prefix, "--output", out,
                     "--tol", "1e-12", "--tol-sv", "1e-12"]) == 0
        sv = read_csv_rows(out + "_singular_values.csv")
        assert sv[0] == ["index", "exact_sigma", "incremental_sigma"]
        # leading values agree closely
        assert float(sv[1][1]) == pytest.approx(float(sv[1][2]), rel=1e-9)
        errs = read_csv_rows(out + "_mode_errors.csv")
        assert errs[0] == ["index", "sigma", "m_norm_error"]
        assert float(errs[1][2]) < 1e-6


BLOCK_FLAGS = ["--tol", "1e-9", "--tol-sv", "1e-9"]


@pytest.fixture(scope="module")
def block_prefix(tmp_path_factory):
    """A rank-40 stream plus noise of 1e-11 under the FEM mass weight of 500
    nodes (m = 1000), the shape of the benchmark's synthetic stream: 32
    directions from the first columns on, direction 32 + i first in column
    110 + 80 i, inside a block. At BLOCK_FLAGS most blocks are all appends,
    and some have a growth after appends."""
    prefix = str(tmp_path_factory.mktemp("blocks") / "synth")
    M = build_weight_matrix(Mesh1D(500))
    rng = np.random.default_rng(25)
    n = 700
    coeffs = rng.standard_normal((40, n)) * np.geomspace(1.0, 1e-5, 40)[:, None]
    start = np.concatenate([np.zeros(32), 110 + 80 * np.arange(8)])
    coeffs *= np.arange(n)[None, :] >= start[:, None]
    cols = rng.standard_normal((M.dim, 40)) @ coeffs + 1e-11 * rng.standard_normal((M.dim, n))
    write_weight_matrix(prefix + ".wm", M)
    write_stream(prefix + ".pods", np.arange(1.0, n + 1.0), np.ones(n), cols)
    full = prefix + "_full"
    assert main(["pod", "--input", prefix, "--output", full, *BLOCK_FLAGS]) == 0
    return prefix


def block_cut(rows, where):
    """The first n of a trace (rows without the header) where the state
    lies inside a block whose columns all joined the run, at the end of such
    a block, or right after a growth column that follows appends in its
    block. Row n is column n, at position (n - 1) mod RUN."""
    joined = [None] + [float(r[3]) > 0.0 for r in rows]  # joined[n]: column n
    for n in range(RUN + 1, len(rows)):
        pos = n % RUN
        block = range(n - (pos or RUN) + 1, n + 1)  # the columns of n's block so far
        if where == "in_block" and pos >= 2 and all(joined[t] for t in block):
            return n
        if where == "block_end" and not pos and all(joined[t] for t in block):
            return n
        if (where == "after_growth" and pos >= 3 and not joined[n]
                and all(joined[t] for t in block[:-1])):
            return n
    raise AssertionError(f"no {where} cut in the trace")


class TestBlockPod:
    """pod where the rest of an all-append block is projected at once."""

    @pytest.mark.parametrize("where", ["in_block", "block_end", "after_growth", "prefix_end"])
    def test_resume_bitwise(self, block_prefix, tmp_path, where):
        full = block_prefix + "_full"
        rows = read_csv_rows(full + "_trace.csv")[1:]
        n = block_cut(rows, "in_block" if where == "prefix_end" else where)
        out = str(tmp_path / "out")
        if where == "prefix_end":
            # the interrupted run's stream ends at n, inside the block
            times, weights, cols = read_stream_matrix(block_prefix + ".pods")
            part = str(tmp_path / "part")
            write_prefix(part, block_prefix, times, weights, cols[:, :n])
            assert main(["pod", "--input", part, "--output", out, *BLOCK_FLAGS]) == 0
        else:
            # interrupted right after its checkpoint at n, with the rest of
            # n's block already drawn from the stream and projected
            class Stop(Exception):
                pass

            def on_column(state, report):
                if state.n == n:
                    checkpoint(state, out + ".podc", Tolerances(1e-9, 1e-9))
                    raise Stop

            M = read_weight_matrix(block_prefix + ".wm")
            with StreamReader(block_prefix + ".pods") as reader, pytest.raises(Stop):
                run_stream((c for _, _, c in reader), M, Tolerances(1e-9, 1e-9),
                           on_column=on_column)
            # its trace ran to n; the rows past it are dropped on resume
            shutil.copy(full + "_trace.csv", out + "_trace.csv")
        state, _ = restore(out + ".podc")
        assert state.n == n and state.j == (0 if where == "after_growth" else n % RUN)
        assert main(["pod", "--input", block_prefix, "--output", out, *BLOCK_FLAGS,
                     "--resume", out + ".podc"]) == 0
        for suffix in (".podc", "_eigenvalues.csv", "_trace.csv"):
            assert Path(out + suffix).read_bytes() == Path(full + suffix).read_bytes()

    def test_bad_column_inside_a_block(self, block_prefix, tmp_path):
        # a NaN at position 20 of a block of appends, which is drawn from
        # position 1 on: the columns before the NaN are consumed, reported
        # and checkpointed, and the NaN leaves the state as it was
        rows = read_csv_rows(block_prefix + "_full_trace.csv")[1:]
        bad = block_cut(rows, "block_end") - RUN + 20  # 0-based index of the NaN column
        times, weights, cols = read_stream_matrix(block_prefix + ".pods")
        cols = cols.copy()
        cols[7, bad] = np.nan
        data, out = str(tmp_path / "nan"), str(tmp_path / "out")
        write_prefix(data, block_prefix, times, weights, cols)
        assert main(["pod", "--input", data, "--output", out, *BLOCK_FLAGS,
                     "--checkpoint-every", "1"]) == 2
        assert restore(out + ".podc")[0].n == bad
        trace = Path(out + "_trace.csv").read_bytes().splitlines(keepends=True)
        full = Path(block_prefix + "_full_trace.csv").read_bytes().splitlines(keepends=True)
        assert trace == full[: bad + 1]

        M, tols, seen = read_weight_matrix(data + ".wm"), Tolerances(1e-9, 1e-9), []
        state = SvdState.empty(M.dim)

        def on_column(s, report):
            seen.append((s.n, s.j, s.e, s.T_p, s.Q, s.sigma, s.Wp, s.run.copy()))

        with pytest.raises(InvalidInputError):
            run_stream(iter(cols.T), M, tols, state=state, on_column=on_column)
        n, j, e, T_p, Q, sigma, Wp, run = seen[-1]
        assert (n, j) == (bad, bad % RUN)
        assert (state.n, state.j, state.e, state.T_p) == (n, j, e, T_p)
        assert state.Q is Q and state.sigma is sigma and state.Wp is Wp
        assert np.array_equal(state.run, run)

    def test_truncated_record_inside_a_block(self, block_prefix, tmp_path):
        # the file ends inside the record at position 20 of a block of
        # appends: the records before it are consumed and checkpointed, and
        # pod exits 2
        rows = read_csv_rows(block_prefix + "_full_trace.csv")[1:]
        cut = block_cut(rows, "block_end") - RUN + 20
        data, out = str(tmp_path / "cut"), str(tmp_path / "out")
        shutil.copy(block_prefix + ".wm", data + ".wm")
        blob = Path(block_prefix + ".pods").read_bytes()
        record = 16 + 8 * 1000
        Path(data + ".pods").write_bytes(blob[: 24 + cut * record + record // 2])
        assert main(["pod", "--input", data, "--output", out, *BLOCK_FLAGS,
                     "--checkpoint-every", "1"]) == 2
        assert restore(out + ".podc")[0].n == cut
        full = Path(block_prefix + "_full_trace.csv").read_bytes().splitlines(keepends=True)
        assert Path(out + "_trace.csv").read_bytes().splitlines(keepends=True) == full[: cut + 1]


    def test_outputs_do_not_depend_on_blas_threads(self, block_prefix, tmp_path):
        # pod sets one BLAS thread itself: children started with one thread,
        # two, or the variables unset write the same bytes
        outs = [run_with_blas_threads(threads, tmp_path, "pod", "--input", block_prefix,
                                      *BLOCK_FLAGS)
                for threads in ("1", "2", None)]
        for suffix in (".podc", "_eigenvalues.csv", "_trace.csv"):
            first = Path(outs[0] + suffix).read_bytes()
            assert all(Path(o + suffix).read_bytes() == first for o in outs[1:]), suffix


def test_trace_rows_are_csv_rows():
    # the trace's one format gives the bytes csv.writer gave
    values = [(1, 0, 0.0, -0.0, 1e-300, 5e-324), (4000, 40, np.inf, -np.inf, np.nan, 0.1),
              (7, 3, 3.2e-10, 1.0 / 3.0, 2.0**70, -1.25e-7)]
    for n, k, *floats in values:
        buf = io.StringIO(newline="")
        csv.writer(buf).writerow([str(n), str(k)] + [f"{v:.17g}" for v in floats])
        assert cli._TRACE_ROW % (n, k, *floats) == buf.getvalue()
