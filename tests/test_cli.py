import csv
import shutil
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from incpod.cli import main
from incpod.incremental import RUN
from incpod.io_formats import StreamReader, StreamWriter, read_stream_matrix


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

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_bad_column_cap(self, fhn_prefix, tmp_path, cap):
        assert main(["verify", "--input", fhn_prefix, "--output", str(tmp_path / "v"),
                     f"--max-columns={cap}"]) == 1

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
        pytest.param(0, "run_boundary", id="run_boundary"),
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

    def test_column_cap(self, fhn_prefix, tmp_path):
        out = str(tmp_path / "cap")
        assert main(["verify", "--input", fhn_prefix, "--output", out,
                     "--max-columns", "3"]) == 2

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
