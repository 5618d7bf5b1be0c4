"""Bit-exact file formats: snapshot streams, weight matrices, checkpoints, CSV.

Streams and checkpoints are little-endian binary for exact f64 round trips;
the weight matrix uses a human-auditable text triplet format (the FEM mass
matrix is tridiagonal per block, so the file stays small).
"""

from __future__ import annotations

import contextlib
import csv
import os
import struct
import zlib

import numpy as np

from .errors import CorruptCheckpointError, CorruptStreamError, FormatError
from .incremental import RUN, SvdState, Tolerances
from .weighted_linalg import WeightMatrix

__all__ = [
    "StreamWriter",
    "StreamReader",
    "write_stream",
    "read_stream_matrix",
    "write_weight_matrix",
    "read_weight_matrix",
    "checkpoint",
    "restore",
    "write_csv",
]

_STREAM_MAGIC = b"PODS"
_CHECKPOINT_MAGIC = b"PODC"
_STREAM_VERSION = 1
_CHECKPOINT_VERSION = 7
_STREAM_HEADER = struct.Struct("<4sIQQ")  # magic, version, m, count


class StreamWriter:
    """Column-at-a-time snapshot stream writer.

    ``count=0`` declares an unterminated stream (live/pipe use); a positive
    count is validated against the number of columns written on close.
    """

    def __init__(self, path, m, count=0):
        self.m = int(m)
        self.count = int(count)
        self._written = 0
        self._fh = open(path, "wb")
        self._fh.write(_STREAM_HEADER.pack(_STREAM_MAGIC, _STREAM_VERSION, self.m, self.count))

    def write_column(self, t, weight, column):
        column = np.ascontiguousarray(column, dtype="<f8")
        if column.shape != (self.m,):
            raise ValueError(f"column has shape {column.shape}, expected ({self.m},)")
        self._fh.write(struct.pack("<dd", float(t), float(weight)))
        self._fh.write(column.tobytes())
        self._written += 1

    def close(self):
        if self._fh is None:
            return
        self._fh.close()
        self._fh = None
        if self.count and self._written != self.count:
            raise ValueError(
                f"declared {self.count} columns but wrote {self._written}"
            )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class StreamReader:
    """Iterates (t, weight, column) records with O(m) memory, RUN records
    per read; a declared count of records must end the file (else
    :class:`CorruptStreamError`)."""

    def __init__(self, path):
        self._fh = open(path, "rb")
        header = self._fh.read(_STREAM_HEADER.size)
        if len(header) < _STREAM_HEADER.size:
            self._fh.close()
            raise FormatError("snapshot stream too short for a header")
        magic, version, m, count = _STREAM_HEADER.unpack(header)
        if magic != _STREAM_MAGIC:
            self._fh.close()
            raise FormatError(f"bad magic {magic!r}, expected {_STREAM_MAGIC!r}")
        if version != _STREAM_VERSION:
            self._fh.close()
            raise FormatError(f"unsupported stream version {version}")
        self.m = m
        self.count = count  # 0 means unterminated

    def __iter__(self):
        """Yield each record as (t, weight, column), the column a read-only
        view of the record's bytes. Records are read RUN at a time; a
        truncated record, or data after the declared count, raises
        :class:`CorruptStreamError` once the complete records before it
        have been yielded."""
        record_bytes = 16 + 8 * self.m
        left = self.count  # records still declared; unused if unterminated
        while True:
            offset = self._fh.tell()
            if self.count and not left:
                if self._fh.read(1):
                    raise CorruptStreamError(f"data after the last record at byte {offset}", offset)
                return
            want = min(RUN, left) if self.count else RUN
            blob = self._fh.read(want * record_bytes)
            whole = len(blob) // record_bytes
            records = np.frombuffer(blob, dtype="<f8", count=whole * (record_bytes // 8))
            for record in records.reshape(whole, record_bytes // 8):
                yield float(record[0]), float(record[1]), record[2:]
            if whole < want:  # the end of the file
                if self.count or len(blob) % record_bytes:
                    offset += whole * record_bytes
                    raise CorruptStreamError(
                        f"stream truncated mid-record at byte {offset}", offset=offset
                    )
                return
            left -= whole

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def write_stream(path, times, weights, columns):
    """Write a complete stream with a known column count."""
    columns = np.asarray(columns)
    with StreamWriter(path, columns.shape[0], count=columns.shape[1]) as w:
        for j in range(columns.shape[1]):
            w.write_column(times[j], weights[j], columns[:, j])


def read_stream_matrix(path, max_columns=None):
    """Materialize a stream: (times, weights, m x s column matrix).

    The matrix is Fortran-ordered, filled a column at a time, so that it
    exists once; an unterminated stream's buffer doubles as it fills (the
    matrix is then a view of its first s columns). ``max_columns`` is an
    out-of-memory guard; exceeding it raises :class:`FormatError` before
    the bulk of the file is read.
    """
    with StreamReader(path) as reader:
        if max_columns is not None and reader.count > max_columns:
            raise FormatError(
                f"stream declares {reader.count} columns, cap is {max_columns}"
            )
        size = reader.count or 16
        times, weights, U = np.empty(size), np.empty(size), np.empty((reader.m, size), order="F")
        s = 0
        for t, w, c in reader:
            if max_columns is not None and s >= max_columns:
                raise FormatError(f"stream exceeds column cap {max_columns}")
            if s == times.size:  # only an unterminated stream outgrows them
                times, weights = (np.concatenate([a, np.empty(s)]) for a in (times, weights))
                grown = np.empty((reader.m, 2 * s), order="F")
                grown[:, :s] = U
                U = grown
            times[s], weights[s], U[:, s] = t, w, c
            s += 1
    return times[:s], weights[:s], U[:, :s]


def write_weight_matrix(path, M):
    """Coordinate text format, lower triangle only, 17 significant digits.

    Header line ``%%WeightMatrix symmetric``, dims line ``m m nnz``, then
    1-based ``i j value`` triplets with i >= j.
    """
    rows, cols, vals = M.lower_entries()
    with open(path, "w") as fh:
        fh.write("%%WeightMatrix symmetric\n")
        fh.write(f"{M.dim} {M.dim} {rows.size}\n")
        for i, j, v in zip(rows, cols, vals):
            fh.write(f"{i + 1} {j + 1} {v:.17g}\n")


def read_weight_matrix(path):
    """Parse the triplet format back into a :class:`WeightMatrix`, whose
    lower band the triplets fill. A repeated triplet is summed in file
    order, as scipy's COO to CSR conversion does."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        if header != "%%WeightMatrix symmetric":
            raise FormatError(f"bad weight-matrix header {header!r}")
        dims = fh.readline().split()
        if len(dims) != 3:
            raise FormatError("malformed dims line")
        try:
            m1, m2, nnz = (int(v) for v in dims)
        except ValueError:
            raise FormatError(f"malformed dims line {dims}") from None
        if min(m1, m2, nnz) < 0:
            raise FormatError(f"negative size in dims line {dims}")
        if m1 != m2:
            raise FormatError(f"weight matrix must be square, got {m1} x {m2}")
        rows, cols, vals = [], [], []
        for _ in range(nnz):
            line = fh.readline()
            if not line:
                raise FormatError(f"expected {nnz} entries, file ended early")
            parts = line.split()
            if len(parts) != 3:
                raise FormatError(f"malformed entry line {line!r}")
            try:
                i, j, v = int(parts[0]) - 1, int(parts[1]) - 1, float(parts[2])
            except ValueError:
                raise FormatError(f"malformed entry line {line!r}") from None
            if not (0 <= i < m1 and 0 <= j < m1):
                raise FormatError(f"entry ({i + 1}, {j + 1}) outside a {m1} x {m1} matrix")
            if not np.isfinite(v):
                raise FormatError(f"non-finite entry line {line!r}")
            if i < j:
                raise FormatError(
                    f"upper-triangle entry ({i + 1}, {j + 1}); store the lower triangle"
                )
            rows.append(i)
            cols.append(j)
            vals.append(v)
        if fh.readline():
            raise FormatError("trailing data after declared entries")
    depth = np.array(rows, dtype=np.intp) - np.array(cols, dtype=np.intp)
    band = np.zeros((int(depth.max(initial=0)) + 1, m1))
    np.add.at(band, (depth, cols), vals)
    return WeightMatrix.from_band(band)


# checkpoint payload header: m, n, k, k0, rows of Wp, j (u64), e (f64),
# T_p, T_sv (u64), tol, tol_sv (f64), the weight's CRC32 (u32, see
# _weight_crc); then Q, sigma, W0, Wp and the open run D[:, :j] as f64
# runs; trailing CRC32 of the payload. The run's j columns have no rows of
# W yet, so W0 has n0 = n - j - (rows of Wp - k0) rows. ``e`` is the whole
# error-bound accumulator and the factors and the run are stored as they
# are (a checkpoint never flushes), so these values and the weight are all
# a resumed run needs to continue bitwise. Version 5 added j and D to
# version 4; version 6 stores Q = L^T V in place of V; version 7 adds the
# weight's CRC, since Q means V only under the weight it was streamed in.
_CKPT_HEAD = struct.Struct("<QQQQQQdQQddI")


def _weight_crc(M):
    """CRC32 of the weight's nonzero lower entries, as the triplets of
    :func:`write_weight_matrix` list them: the 0-based rows and the columns
    as little-endian u64, then the values as f64. A :class:`WeightMatrix`
    is its lower band however it was built, so one matrix has one CRC and
    computes one set of bits under it."""
    rows, cols, vals = M.lower_entries()
    crc = zlib.crc32(rows.astype("<u8"))
    crc = zlib.crc32(cols.astype("<u8"), crc)
    return zlib.crc32(vals.astype("<f8"), crc)


def checkpoint(state, path, tols):
    """Persist a state (requires W and the weight the state was streamed
    in, ``state.M``) so a stream can resume bitwise.

    The file is written to ``<path>.tmp``, flushed to disk and then renamed
    over ``path``, so a failed write or rename leaves the previous
    checkpoint intact (and removes the ``.tmp`` file).
    """
    if state.Wp is None:
        raise ValueError("checkpointing requires the right singular vectors")
    if state.M is None:
        raise ValueError("the state has no weight matrix to checkpoint it under")
    head = _CKPT_HEAD.pack(
        state.Q.shape[0],
        state.n,
        state.k,
        state.W0.shape[1],
        state.Wp.shape[0],
        state.j,
        state.e,
        state.T_p,
        state.T_sv,
        tols.tol,
        tols.tol_sv,
        _weight_crc(state.M),
    )
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", _CHECKPOINT_VERSION))
            fh.write(head)
            crc = zlib.crc32(head)  # of the payload, folded in as it is written
            for a in (state.Q, state.sigma, state.W0, state.Wp, state.run):
                chunk = np.ascontiguousarray(a, dtype="<f8")
                fh.write(chunk)
                crc = zlib.crc32(chunk, crc)
            fh.write(struct.pack("<I", crc))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def restore(path, M):
    """Load a checkpoint made under the weight matrix ``M``; returns
    ``(state, tolerances)``, the state carrying M. A checkpoint of another
    dimension or another weight is a :class:`FormatError`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != _CHECKPOINT_MAGIC:
        raise FormatError("not a checkpoint file")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != _CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    payload, crc_bytes = blob[8:-4], blob[-4:]
    (stored_crc,) = struct.unpack("<I", crc_bytes)
    if zlib.crc32(payload) != stored_crc:
        raise CorruptCheckpointError("checkpoint CRC mismatch")
    if len(payload) < _CKPT_HEAD.size:
        raise FormatError(f"payload shorter than the {_CKPT_HEAD.size}-byte header")
    m, n, k, k0, rows_p, j, e, t_p, t_sv, tol, tol_sv, weight_crc = _CKPT_HEAD.unpack_from(
        payload
    )
    if m != M.dim:
        raise FormatError(f"checkpoint dimension {m} does not match stream {M.dim}")
    if weight_crc != _weight_crc(M):
        raise FormatError("checkpoint was made under another weight matrix")
    try:
        tols = Tolerances(tol=tol, tol_sv=tol_sv)
    except ValueError as exc:
        raise CorruptCheckpointError(f"{exc}: tol {tol!r}, tol_sv {tol_sv!r}") from None
    if j >= RUN:
        raise CorruptCheckpointError(f"open run of {j} columns; a run holds fewer than {RUN}")
    if j and not k:
        raise CorruptCheckpointError(f"open run of {j} columns at rank 0")
    n0 = n - j - (rows_p - k0)
    # Wp's first k0 rows are the ones W0 multiplies: it has at least k0
    if rows_p < k0 or not 0 <= n0 <= n:
        raise CorruptCheckpointError(
            f"Wp has {rows_p} rows, W0 {k0} columns and the run {j} columns, "
            f"inconsistent with n = {n}"
        )
    sizes = (m * k, k, n0 * k0, rows_p * k, k * j)
    expected = _CKPT_HEAD.size + 8 * sum(sizes)
    if len(payload) != expected:
        raise CorruptCheckpointError(
            f"payload holds {len(payload)} bytes, expected {expected}"
        )
    arrays = np.frombuffer(payload, dtype="<f8", offset=_CKPT_HEAD.size)
    # one copy per array, so each gets its own buffer as in an uninterrupted run
    Q, sigma, W0, Wp, run = (a.copy() for a in np.split(arrays, np.cumsum(sizes[:-1])))
    D = None
    if j:
        D = np.empty((k, RUN))
        D[:, :j] = run.reshape(k, j)
    state = SvdState(
        Q=Q.reshape(m, k), sigma=sigma, W0=W0.reshape(n0, k0), Wp=Wp.reshape(rows_p, k),
        n=n, e=e, T_p=t_p, T_sv=t_sv, D=D, j=j, M=M,
    )
    return state, tols


def _format_cell(value):
    if isinstance(value, (bool, np.bool_)) or value is None:
        return "" if value is None else ("true" if value else "false")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def write_csv(path, header, rows):
    """CSV report: header row, RFC 4180 quoting, 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])
