import csv
import errno
import os
import struct
import zlib

import numpy as np
import pytest
import scipy.sparse

from incpod.errors import CorruptCheckpointError, CorruptStreamError, FormatError
from incpod.fhn import Mesh1D, build_weight_matrix
from incpod.incremental import RUN, SvdState, Tolerances, flush, run_stream, update
from incpod.io_formats import (
    StreamReader,
    StreamWriter,
    checkpoint,
    read_stream_matrix,
    read_weight_matrix,
    restore,
    write_csv,
    write_stream,
    write_weight_matrix,
)
from incpod.weighted_linalg import WeightMatrix

from conftest import m_orthonormal_columns, random_weight


class TestStream:
    def test_roundtrip_bitwise(self, rng, tmp_path):
        path = tmp_path / "s.pods"
        cols = rng.standard_normal((7, 3))
        times = np.array([0.1, 0.2, 0.35])
        weights = np.sqrt(np.diff(np.concatenate([[0.0], times])))
        write_stream(path, times, weights, cols)
        t2, w2, c2 = read_stream_matrix(path)
        assert np.array_equal(t2, times)
        assert np.array_equal(w2, weights)
        assert np.array_equal(c2, cols)

    def test_iterates_one_column_at_a_time(self, rng, tmp_path):
        path = tmp_path / "s.pods"
        cols = rng.standard_normal((4, 5))
        write_stream(path, np.arange(1.0, 6.0), np.ones(5), cols)
        with StreamReader(path) as reader:
            assert reader.m == 4 and reader.count == 5
            for j, (t, w, c) in enumerate(reader):
                assert t == float(j + 1)
                assert np.array_equal(c, cols[:, j])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.pods"
        path.write_bytes(b"")
        with pytest.raises(FormatError):
            StreamReader(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pods"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(FormatError):
            StreamReader(path)

    def test_truncated_record_offset(self, rng, tmp_path):
        path = tmp_path / "t.pods"
        cols = rng.standard_normal((6, 2))
        write_stream(path, [0.1, 0.2], [1.0, 1.0], cols)
        header = 24
        record = 16 + 6 * 8
        blob = path.read_bytes()
        path.write_bytes(blob[: header + record + 10])  # cut inside record 2
        with StreamReader(path) as reader:
            it = iter(reader)
            next(it)
            with pytest.raises(CorruptStreamError) as exc:
                next(it)
        assert exc.value.offset == header + record

    @pytest.mark.parametrize("count", [0, RUN + 5])
    @pytest.mark.parametrize("end", ["whole", "cut", "extra"])
    def test_chunked_reads_yield_every_whole_record_first(self, rng, tmp_path, count, end):
        # records are read RUN at a time, here one full read and a partial
        # one; a cut inside record RUN + 3, or bytes after the last record
        # (past a declared count, or a partial record of an unterminated
        # stream), raise only after every record before them has been
        # yielded, each column with the file's bits
        m, n = 6, RUN + 5
        cols = rng.standard_normal((m, n))
        path = tmp_path / "s.pods"
        with StreamWriter(path, m, count=count) as w:
            for j in range(n):
                w.write_column(j + 0.5, 2.0 * j, cols[:, j])
        header, record = 24, 16 + 8 * m
        blob = path.read_bytes()
        whole = n
        if end == "cut":
            whole = RUN + 3
            path.write_bytes(blob[: header + whole * record + 10])
        elif end == "extra":
            path.write_bytes(blob + bytes(3))
        got = []
        with StreamReader(path) as reader:
            it = iter(reader)
            while len(got) < whole:
                got.append(next(it))
            if end != "whole":
                with pytest.raises(CorruptStreamError) as exc:
                    next(it)
                assert exc.value.offset == header + whole * record
            else:
                assert next(it, None) is None
        for j, (t, weight, c) in enumerate(got):  # held past the later reads
            assert (t, weight) == (j + 0.5, 2.0 * j)
            assert c.tobytes() == cols[:, j].tobytes()

    def test_unterminated_stream_reads_to_eof(self, rng, tmp_path):
        path = tmp_path / "live.pods"
        with StreamWriter(path, 3, count=0) as w:
            w.write_column(0.5, 1.0, np.arange(3.0))
            w.write_column(1.0, 1.0, np.arange(3.0) + 1)
        t, _, c = read_stream_matrix(path)
        assert t.size == 2 and c.shape == (3, 2)

    def test_declared_count_mismatch_on_close(self, tmp_path):
        w = StreamWriter(tmp_path / "x.pods", 2, count=3)
        w.write_column(0.1, 1.0, np.zeros(2))
        with pytest.raises(ValueError):
            w.close()

    def test_column_cap_guard(self, rng, tmp_path):
        path = tmp_path / "cap.pods"
        write_stream(path, [1.0, 2.0], [1.0, 1.0], rng.standard_normal((3, 2)))
        with pytest.raises(FormatError):
            read_stream_matrix(path, max_columns=1)

    @pytest.mark.parametrize("count", [0, 1, 16, 17, 40])
    def test_matrix_is_one_fortran_array(self, rng, tmp_path, count):
        # an unterminated stream (declared count 0) doubles its buffer from
        # 16 columns; a declared count fills one array of that size
        cols = rng.standard_normal((5, count or 37))
        cols[0, :3] = -0.0
        path = tmp_path / "s.pods"
        with StreamWriter(path, 5, count=count) as w:
            for j in range(cols.shape[1]):
                w.write_column(j + 0.5, 2.0 * j, cols[:, j])
        times, weights, U = read_stream_matrix(path)
        assert U.flags.f_contiguous and U.shape == cols.shape
        assert U.tobytes(order="F") == cols.tobytes(order="F")
        assert np.array_equal(times, np.arange(cols.shape[1]) + 0.5)
        assert np.array_equal(weights, 2.0 * np.arange(cols.shape[1]))
        # so each column the streams draw is contiguous, with the file's bits
        for j, c in enumerate(U.T):
            assert c.flags.c_contiguous and c.tobytes() == cols[:, j].tobytes()

    def test_empty_stream_matrix(self, tmp_path):
        for count in (0, 3):
            path = tmp_path / f"empty{count}.pods"
            path.write_bytes(struct.pack("<4sIQQ", b"PODS", 1, 4, count))  # a header only
            if count:
                with pytest.raises(CorruptStreamError):
                    read_stream_matrix(path)
            else:
                times, weights, U = read_stream_matrix(path)
                assert U.shape == (4, 0) and times.shape == weights.shape == (0,)

    def test_unterminated_column_cap_guard(self, rng, tmp_path):
        path = tmp_path / "live.pods"
        with StreamWriter(path, 3, count=0) as w:
            for j in range(40):
                w.write_column(float(j), 1.0, rng.standard_normal(3))
        assert read_stream_matrix(path, max_columns=40)[2].shape == (3, 40)
        with pytest.raises(FormatError, match="exceeds column cap 39"):
            read_stream_matrix(path, max_columns=39)


class TestWeightMatrixFormat:
    def test_identity_three_lines(self, tmp_path):
        path = tmp_path / "I.wm"
        write_weight_matrix(path, WeightMatrix(np.eye(3)))
        lines = path.read_text().splitlines()
        assert lines[0] == "%%WeightMatrix symmetric"
        assert lines[1] == "3 3 3"
        assert len(lines) == 5
        M2 = read_weight_matrix(path)
        assert np.array_equal(M2.entries.toarray(), np.eye(3))

    def test_fhn_block_count_and_spd(self, tmp_path):
        n = 500
        M = build_weight_matrix(Mesh1D(n))
        path = tmp_path / "fhn.wm"
        write_weight_matrix(path, M)
        nnz = int(path.read_text().splitlines()[1].split()[2])
        assert nnz == 2 * (2 * n - 1)
        M2 = read_weight_matrix(path)
        M2.apply_lt(np.ones(M2.dim))  # SPD after read: the factor exists
        assert (abs(M2.entries - M.entries)).max() == 0.0

    def test_random_spd_roundtrip_bitwise(self, rng, tmp_path):
        M = random_weight(rng, 12)
        path = tmp_path / "r.wm"
        write_weight_matrix(path, M)
        M2 = read_weight_matrix(path)
        assert (abs(M2.entries - scipy.sparse.csr_matrix(M.entries))).max() == 0.0

    @staticmethod
    def coo_file(M):
        """The weight file as scipy's COO view of M's entries gives it: the
        nonzero lower-triangle triplets, sorted by row, then column."""
        coo = scipy.sparse.coo_matrix(M.entries)
        keep = coo.row >= coo.col
        rows, cols, vals = coo.row[keep], coo.col[keep], coo.data[keep]
        lines = [f"%%WeightMatrix symmetric\n{M.dim} {M.dim} {rows.size}\n"]
        for k in np.lexsort((cols, rows)):
            lines.append(f"{rows[k] + 1} {cols[k] + 1} {vals[k]:.17g}\n")
        return "".join(lines)

    def test_bytes_equal_the_coo_listing(self, rng, tmp_path):
        dense = random_weight(rng, 12).entries.copy()
        dense[3, 1] = dense[1, 3] = -0.0  # a signed zero is not an entry
        band = np.array([rng.uniform(2.0, 3.0, 9), rng.uniform(-1, 1, 9), np.zeros(9)])
        band[1, 4] = -0.0
        band[1, -1] = 7.0  # past the matrix's end: not an entry
        for M in (build_weight_matrix(Mesh1D(40)), WeightMatrix(dense),
                  WeightMatrix.from_band(band), WeightMatrix(np.zeros((0, 0)))):
            path = tmp_path / "M.wm"
            write_weight_matrix(path, M)
            assert path.read_text() == self.coo_file(M)

    def test_upper_triangle_rejected(self, tmp_path):
        path = tmp_path / "u.wm"
        path.write_text("%%WeightMatrix symmetric\n2 2 1\n1 2 0.5\n")
        with pytest.raises(FormatError):
            read_weight_matrix(path)

    def test_lower_triangle_mirrored(self, tmp_path):
        path = tmp_path / "l.wm"
        path.write_text("%%WeightMatrix symmetric\n2 2 3\n1 1 2\n2 1 0.5\n2 2 2\n")
        M = read_weight_matrix(path)
        assert M.entries[0, 1] == 0.5 and M.entries[1, 0] == 0.5

    def test_bad_header(self, tmp_path):
        path = tmp_path / "b.wm"
        path.write_text("%%MatrixMarket whatever\n2 2 0\n")
        with pytest.raises(FormatError):
            read_weight_matrix(path)


class TestCheckpoint:
    def _make_state(self, rng, m=10, n=8):
        M = random_weight(rng, m)
        U = rng.standard_normal((m, n))
        state = run_stream(iter(U.T), M, Tolerances(1e-6, 1e-6))
        return state, M

    def test_roundtrip_bitwise(self, rng, tmp_path):
        state, _ = self._make_state(rng)
        tols = Tolerances(1e-6, 1e-8)
        path = tmp_path / "c.podc"
        checkpoint(state, path, tols)
        restored, tols2 = restore(path)
        assert np.array_equal(restored.Q, state.Q) and restored.M is None
        assert np.array_equal(restored.sigma, state.sigma)
        assert np.array_equal(restored.W, state.W)
        assert restored.k == state.k and restored.n == state.n
        assert restored.e == state.e
        assert restored.T_p == state.T_p and restored.T_sv == state.T_sv
        assert tols2 == tols

    def test_flipped_byte_detected(self, rng, tmp_path):
        state, _ = self._make_state(rng)
        path = tmp_path / "c.podc"
        checkpoint(state, path, Tolerances())
        blob = bytearray(path.read_bytes())
        blob[40] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptCheckpointError):
            restore(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"hello world")
        with pytest.raises(FormatError):
            restore(path)

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6])
    def test_empty_payload_rejected(self, tmp_path, version):
        # magic, version, then the CRC of an empty payload: 12 bytes
        path = tmp_path / "short.podc"
        path.write_bytes(b"PODC" + struct.pack("<II", version, zlib.crc32(b"")))
        with pytest.raises(FormatError):
            restore(path)

    def test_version_1_rejected(self, rng, tmp_path):
        # a well-formed version-1 file: its header also held e's compensation term
        state, _ = self._make_state(rng)
        m = state.V.shape[0]
        payload = struct.pack("<QQQddQQdd", m, state.n, state.k, state.e, 0.0,
                              state.T_p, state.T_sv, 1e-10, 1e-10)
        for a in (state.V, state.sigma, state.W):
            payload += np.ascontiguousarray(a, dtype="<f8").tobytes()
        path = tmp_path / "v1.podc"
        path.write_bytes(b"PODC" + struct.pack("<I", 1) + payload
                         + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(FormatError, match="version 1"):
            restore(path)

    def test_version_2_rejected(self, rng, tmp_path):
        # a well-formed version-2 file: W whole, no factor shapes in the header
        state, _ = self._make_state(rng)
        m = state.V.shape[0]
        payload = struct.pack("<QQQdQQdd", m, state.n, state.k, state.e,
                              state.T_p, state.T_sv, 1e-10, 1e-10)
        for a in (state.V, state.sigma, state.W):
            payload += np.ascontiguousarray(a, dtype="<f8").tobytes()
        path = tmp_path / "v2.podc"
        path.write_bytes(b"PODC" + struct.pack("<I", 2) + payload
                         + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(FormatError, match="version 2"):
            restore(path)

    def test_version_3_rejected(self, rng, tmp_path):
        # version 3 had this layout, but its n left out leading zero columns
        state, _ = self._make_state(rng)
        path = tmp_path / "v3.podc"
        checkpoint(state, path, Tolerances())
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + struct.pack("<I", 3) + blob[8:])
        with pytest.raises(FormatError, match="version 3"):
            restore(path)

    def test_version_4_rejected(self, rng, tmp_path):
        # version 4 had no open run: j and D came in version 5
        state, _ = self._make_state(rng)
        path = tmp_path / "v4.podc"
        checkpoint(state, path, Tolerances())
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + struct.pack("<I", 4) + blob[8:])
        with pytest.raises(FormatError, match="version 4"):
            restore(path)

    def test_version_5_rejected(self, rng, tmp_path):
        # version 5 had this layout with V = L^-T Q in place of Q
        state, _ = self._make_state(rng)
        path = tmp_path / "v5.podc"
        checkpoint(state, path, Tolerances())
        blob = path.read_bytes()
        head = blob[8 : 8 + 88]
        payload = head + b"".join(
            np.ascontiguousarray(a, dtype="<f8").tobytes()
            for a in (state.V, state.sigma, state.W0, state.Wp, state.run)
        )
        path.write_bytes(b"PODC" + struct.pack("<I", 5) + payload
                         + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(FormatError, match="version 5"):
            restore(path)

    @staticmethod
    def _open_run(rng, m=8, n=10):
        """A state whose last n - 2 columns, in the span of the first two,
        are an open run."""
        M = random_weight(rng, m)
        U = m_orthonormal_columns(rng, M, 2) @ rng.standard_normal((2, n))
        return run_stream(iter(U.T), M, Tolerances(1e-8, 1e-8)), M, U

    def test_open_run_roundtrip(self, rng, tmp_path):
        state, M, U = self._open_run(rng)
        assert state.j == 8 and state.W.shape == (2, 2)
        path = tmp_path / "run.podc"
        checkpoint(state, path, Tolerances(1e-8, 1e-8))
        restored, tols = restore(path)
        assert restored.j == state.j and restored.D.shape == (state.k, RUN)
        assert np.array_equal(restored.D[:, : state.j], state.D[:, : state.j])
        assert np.array_equal(restored.W, state.W) and restored.n == state.n
        flush(restored, tols)
        flush(state, tols)
        for name in ("Q", "sigma", "W"):  # the restored state has no weight to build V
            assert np.array_equal(getattr(restored, name), getattr(state, name)), name

    @staticmethod
    def _forge_j(path, j):
        """Rewrite the header's j (payload bytes 40-48) under a valid CRC."""
        blob = path.read_bytes()
        payload = blob[8:48] + struct.pack("<Q", j) + blob[56:-4]
        path.write_bytes(blob[:8] + payload + struct.pack("<I", zlib.crc32(payload)))

    @pytest.mark.parametrize("case, j, match", [
        ("open_run", RUN, "fewer than"),
        ("rank_zero", 1, "rank 0"),
        ("open_run", 9, "inconsistent with n"),
    ], ids=["full_run", "run_at_rank_zero", "n0_negative"])
    def test_inconsistent_run_rejected(self, rng, tmp_path, case, j, match):
        # forged j with a valid CRC: a run holds fewer than RUN columns,
        # there is none at rank 0, and n0 = n - j - (rows of Wp - k0) must
        # lie in [0, n] (n = 10, j = 9, two rows of Wp: n0 = -1)
        if case == "open_run":
            state = self._open_run(rng)[0]
        else:
            state = SvdState.empty(4)
            for _ in range(3):
                update(state, np.zeros(4), WeightMatrix(np.eye(4)), Tolerances())
        path = tmp_path / "c.podc"
        checkpoint(state, path, Tolerances())
        self._forge_j(path, j)
        with pytest.raises(CorruptCheckpointError, match=match):
            restore(path)

    @pytest.mark.parametrize("value", [-1.0, 0.0, -0.0, float("nan")], ids=str)
    @pytest.mark.parametrize("at", [72, 80], ids=["tol", "tol_sv"])
    def test_nonpositive_tolerance_rejected(self, rng, tmp_path, at, value):
        # a forged tol or tol_sv (payload bytes 72-80 or 80-88) under a
        # valid CRC is a corrupt checkpoint
        state, _ = self._make_state(rng)
        path = tmp_path / "c.podc"
        checkpoint(state, path, Tolerances())
        blob = path.read_bytes()
        payload = blob[8 : 8 + at] + struct.pack("<d", value) + blob[16 + at : -4]
        path.write_bytes(blob[:8] + payload + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(CorruptCheckpointError, match="tolerances must be positive"):
            restore(path)

    def test_rank_zero_roundtrip(self, tmp_path):
        # a state cut inside the leading zero columns: k = 0, W has 3 rows
        M = WeightMatrix(np.eye(4))
        state = SvdState.empty(4)
        for _ in range(3):
            update(state, np.zeros(4), M, Tolerances())
        path = tmp_path / "zero.podc"
        checkpoint(state, path, Tolerances())
        restored, _ = restore(path)
        assert restored.k == 0 and restored.n == 3 and restored.e == 0.0
        assert restored.V.shape == (4, 0) and restored.W.shape == (3, 0)

    @pytest.mark.parametrize("k0, rows_p", [(8, 7), (8, 17), (0, 8)],
                             ids=["n0_above_n", "n0_negative", "length_mismatch"])
    def test_inconsistent_factor_shapes_rejected(self, rng, tmp_path, k0, rows_p):
        # forged k0 and rows of Wp with a valid CRC, on a state just after a
        # fold (k0 = k = 8, n = 8). n0 = n - (rows_p - k0) must lie in [0, n]:
        # it is 9 and -1 in the first two, whose payload length still
        # matches; the third has n0 = 0 and a payload 64 values too long
        state, _ = self._make_state(rng)
        state.W0, state.Wp = state.W, np.eye(state.k)
        path = tmp_path / "c.podc"
        checkpoint(state, path, Tolerances())
        blob = path.read_bytes()
        payload = blob[8:32] + struct.pack("<QQ", k0, rows_p) + blob[48:-4]
        path.write_bytes(blob[:8] + payload + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(CorruptCheckpointError):
            restore(path)

    def test_w0_wider_than_wp_rejected(self, rng, tmp_path):
        # W0 (5, 4) multiplies the first four rows of Wp, which has three:
        # n0 = n - j - (rows of Wp - k0) = 5 - 1 + 1 = 5 lies in [0, n], the
        # payload length matches and the CRC is valid, yet W0 @ Wp[:k0] would
        # fold in a row of a later column
        state = SvdState(
            Q=np.linalg.qr(rng.standard_normal((6, 3)))[0], sigma=np.array([3.0, 2.0, 1.0]),
            W0=rng.standard_normal((5, 4)), Wp=np.eye(3), n=5,
            D=rng.standard_normal((3, RUN)), j=1,
        )
        path = tmp_path / "c.podc"
        checkpoint(state, path, Tolerances())
        with pytest.raises(CorruptCheckpointError, match="Wp has 3 rows, W0 4 columns"):
            restore(path)

    def test_payload_length_checked(self, rng, tmp_path):
        state, _ = self._make_state(rng)
        path = tmp_path / "c.podc"
        checkpoint(state, path, Tolerances())
        blob = path.read_bytes()
        payload = blob[8:-4] + b"\0\0\0"  # not a whole f64
        path.write_bytes(blob[:8] + payload + struct.pack("<I", zlib.crc32(payload)))
        with pytest.raises(CorruptCheckpointError):
            restore(path)

    @pytest.mark.parametrize(
        "where", ["before_fold", "on_fold", "after_fold", "in_run", "run_boundary", "growth"]
    )
    def test_resume_is_bitwise_identical(self, rng, tmp_path, where):
        # dual path: checkpoint/restore mid-stream vs uninterrupted, cut at
        # each phase of the W0/Wp fold cycle, inside an open run, where a
        # run closes at n = 0 (mod RUN) and on a growth column that closes one
        M = random_weight(rng, 12)
        U = m_orthonormal_columns(rng, M, 3) @ rng.standard_normal((3, 100))
        U[:, 40::25] += 1e-6 * rng.standard_normal((12, 3))  # grown, then truncated
        tols = Tolerances(1e-8, 1e-6)

        seen = []  # (n, j, rank_grew, folded) after each column
        last = {"W0": None}

        def on_column(s, rep):
            seen.append((s.n, s.j, rep.rank_grew, s.W0 is not last["W0"]))
            last["W0"] = s.W0

        direct = run_stream(iter(U.T), M, tols, on_column=on_column)
        folds = [n for n, _, _, folded in seen[1:] if folded]
        open_before = {n + 1: j > 0 for n, j, _, _ in seen}
        cut = {
            "before_fold": folds[1] - 1,
            "on_fold": folds[1],
            "after_fold": folds[1] + 1,
            "in_run": next(n for n, j, _, _ in seen if j >= 2),
            "run_boundary": next(n for n, j, _, _ in seen if n % RUN == 0 and open_before[n]),
            "growth": next(n for n, _, grew, _ in seen if n > 3 and grew and open_before[n]),
        }[where]  # columns 1..cut go in before the checkpoint

        half = run_stream(iter(U[:, :cut].T), M, tols)
        assert half.n == cut
        assert {
            "on_fold": half.Wp.shape[0] == half.k,
            "in_run": half.j >= 2,
            "run_boundary": half.j == 0 and half.n % RUN == 0,
            "growth": half.j == 0,
        }.get(where, True)
        path = tmp_path / "mid.podc"
        checkpoint(half, path, tols)
        resumed, tols2 = restore(path)
        resumed = run_stream(iter(U.T), M, tols2, state=resumed)

        for s, name in ((direct, "direct"), (resumed, "resumed")):
            checkpoint(s, tmp_path / f"{name}.podc", tols)
            flush(s, tols)
            checkpoint(s, tmp_path / f"{name}_flushed.podc", tols)
        for name in ("", "_flushed"):
            assert (tmp_path / f"resumed{name}.podc").read_bytes() == (
                tmp_path / f"direct{name}.podc"
            ).read_bytes()

    def test_failed_write_keeps_previous_file(self, rng, tmp_path, monkeypatch):
        state, M = self._make_state(rng)
        path = tmp_path / "c.podc"
        checkpoint(state, path, Tolerances())
        before = path.read_bytes()
        update(state, rng.standard_normal(10), M, Tolerances(1e-6, 1e-6))

        def disk_full(fd):
            raise OSError(errno.ENOSPC, "no space left on device")

        monkeypatch.setattr(os, "fsync", disk_full)
        with pytest.raises(OSError):
            checkpoint(state, path, Tolerances())
        assert path.read_bytes() == before
        assert not (tmp_path / "c.podc.tmp").exists()

    @pytest.mark.parametrize("open_run", [False, True], ids=["closed", "open_run"])
    def test_bytes_equal_the_concatenated_payload(self, rng, tmp_path, open_run):
        # the file, written array by array with a running CRC, equals the
        # payload built whole and its CRC
        if open_run:
            state, _, _ = self._open_run(rng)
            assert state.j > 0
        else:
            state, _ = self._make_state(rng)
            assert state.j == 0
        tols = Tolerances(1e-8, 1e-9)
        path = tmp_path / "c.podc"
        checkpoint(state, path, tols)
        payload = struct.pack(
            "<QQQQQQdQQdd", state.Q.shape[0], state.n, state.k, state.W0.shape[1],
            state.Wp.shape[0], state.j, state.e, state.T_p, state.T_sv, tols.tol, tols.tol_sv,
        )
        for a in (state.Q, state.sigma, state.W0, state.Wp, state.run):
            payload += np.ascontiguousarray(a, dtype="<f8").tobytes()
        expected = b"PODC" + struct.pack("<I", 6) + payload + struct.pack("<I", zlib.crc32(payload))
        assert path.read_bytes() == expected

    def test_requires_w(self, rng):
        M = random_weight(rng, 5)
        state = run_stream(iter(rng.standard_normal((1, 5))), M, Tolerances(), keep_w=False)
        with pytest.raises(ValueError):
            checkpoint(state, "/tmp/never-written.podc", Tolerances())


class TestCsv:
    def test_seventeen_significant_digits(self, tmp_path):
        path = tmp_path / "r.csv"
        value = 1.0 / 3.0
        write_csv(path, ["a", "b", "ok"], [(value, 7, True), (2.5, -1, False)])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["a", "b", "ok"]
        assert float(rows[1][0]) == value  # round trips through 17 digits
        assert rows[1][1] == "7" and rows[1][2] == "true"
        assert rows[2][2] == "false"
