"""Command-line front end: simulate, pod, verify, report.

Paths are prefix-based: ``simulate --output runs/fhn`` writes
``runs/fhn.pods`` (snapshot stream) and ``runs/fhn.wm`` (weight matrix);
the other subcommands read the same pair via ``--input``.

Exit codes: 0 success, 1 usage (``verify --random`` refuses M above 4,000
and N above 20,000), 2 data/format error, 3 numerical failure, 4
environment error (numpy's OpenBLAS lacks a LAPACK routine).

Every subcommand runs on numpy alone: ``simulate``'s band LU, the weight's
Cholesky factor and the oracle's exact SVD call the LAPACK in numpy's own
OpenBLAS. ``main`` runs a subcommand with that OpenBLAS on one thread, so
that its outputs do not depend on the environment's thread settings, and
gives the caller's thread count back when it returns. ``pod`` streams in
the Cholesky factor of the weight matrix, so a weight that is not positive
definite fails there too (exit 3).

With two usable cores, ``verify`` shares its
nine tolerance cells with the one worker of a forked process pool (see
``oracle.tolerance_sweep``); its outputs are byte-identical to a run on one
core.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import _lapack
from .errors import (
    AmbiguousAlignmentError,
    FormatError,
    IntegrationFailureError,
    InvalidInputError,
    LapackUnavailableError,
    NotPositiveDefiniteError,
    PreconditionViolationError,
    RankDeficientError,
)
from .fhn import FhnParams, Mesh1D, build_weight_matrix, simulate
# ``update`` is not called here; bench/tracer.py wraps ``incpod.cli.update``
# by name and expects it to exist.
from .incremental import Tolerances, flush, run_stream, update  # noqa: F401
from .io_formats import (
    StreamReader,
    checkpoint,
    read_stream_matrix,
    read_weight_matrix,
    restore,
    write_csv,
    write_stream,
    write_weight_matrix,
)
from .oracle import exact_weighted_svd, tolerance_sweep
from .perturbation import vector_bound_check
from .weighted_linalg import WeightMatrix

VERIFY_GRID = tuple(
    Tolerances(t, tsv) for t in (1e-8, 1e-10, 1e-12) for tsv in (1e-8, 1e-10, 1e-12)
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _checked(convert, ok, what):
    """argparse ``type`` that converts the text and requires ``ok(value)``."""

    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text} is not {what}")
        return value

    return parse


_POSITIVE = _checked(float, lambda v: v > 0.0, "positive")
_NODES = _checked(int, lambda v: v >= 2, "at least 2")
_NONNEGATIVE = _checked(int, lambda v: v >= 0, "nonnegative")
_MAX_COLUMNS = 20000  # the columns verify and report hold in memory at most
_MAX_RANDOM_ROWS = 4000  # verify --random's dense M x M weight: 0.54 GB peak at N = 10


def build_parser():
    parser = _Parser(prog="incpod", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, with_tols=True):
        if with_tols:
            p.add_argument("--tol", type=_POSITIVE, default=1e-10)
            p.add_argument("--tol-sv", type=_POSITIVE, default=1e-10)
        p.add_argument("--input")
        p.add_argument("--output", required=True)

    p_sim = sub.add_parser("simulate", help="generate FHN snapshots + weight matrix")
    p_sim.add_argument("--nodes", type=_NODES, default=500)
    p_sim.add_argument("--t-final", type=_POSITIVE, default=10.0)
    p_sim.add_argument("--output", required=True)

    p_pod = sub.add_parser("pod", help="stream the snapshots through the SVD update")
    add_common(p_pod)
    p_pod.add_argument("--checkpoint-every", type=_NONNEGATIVE, default=0)
    p_pod.add_argument("--no-w", action="store_true",
                       help="skip right singular vectors (no checkpoint or resume)")
    p_pod.add_argument("--resume", help="checkpoint file to continue from")

    p_ver = sub.add_parser("verify", help="tolerance sweep against the exact oracle")
    add_common(p_ver, with_tols=False)  # verify sweeps fixed tolerance grids
    p_ver.add_argument(
        "--random",
        nargs=3,
        type=int,
        metavar=("M", "N", "SEED"),
        help="verify on a random m x n instance instead of --input",
    )

    p_rep = sub.add_parser("report", help="singular value / mode error CSVs")
    add_common(p_rep)
    return parser


def _load_inputs(args, materialize=False):
    if not args.input:
        raise UsageError("--input is required for this subcommand")
    M = read_weight_matrix(args.input + ".wm")
    if materialize:
        times, weights, U = read_stream_matrix(args.input + ".pods", max_columns=_MAX_COLUMNS)
        if U.shape[0] != M.dim:
            raise FormatError(
                f"stream dimension {U.shape[0]} does not match weight matrix {M.dim}"
            )
        if not np.isfinite(U).all():
            raise InvalidInputError("stream contains non-finite entries")
        return M, U
    reader = StreamReader(args.input + ".pods")
    if reader.m != M.dim:
        reader.close()
        raise FormatError(
            f"stream dimension {reader.m} does not match weight matrix {M.dim}"
        )
    return M, reader


def cmd_simulate(args):
    t0 = time.perf_counter()
    mesh = Mesh1D(args.nodes)
    snaps = simulate(FhnParams(), mesh, args.t_final)
    M = build_weight_matrix(mesh)
    write_stream(args.output + ".pods", snaps.times, snaps.weights, snaps.columns)
    write_weight_matrix(args.output + ".wm", M)
    wall = time.perf_counter() - t0
    print(f"s={snaps.count} m={snaps.m} wall={wall:.2f}s")
    return 0


# the rows csv.writer would write, which quotes no number
_TRACE_HEADER = "n,k,p,e_p,e_sv,e\r\n"
_TRACE_ROW = "%d,%d,%.17g,%.17g,%.17g,%.17g\r\n"


def _open_trace(path, state):
    """Open the trace for the rows after ``state``. A resumed run keeps the
    rows of the trace at ``path`` up to a complete row n = ``state.n`` that
    carries the state's k and e, and drops later ones; any other file is
    replaced by a trace that starts at the header."""
    keep = None
    if state is not None and os.path.exists(path):
        n, k, e = (str(v).encode() for v in (state.n, state.k, f"{state.e:.17g}\r\n"))
        with open(path, "rb") as fh:
            offset = 0
            for line in fh:
                offset += len(line)
                fields = line.split(b",")
                if fields[0] == n:
                    keep = offset if (fields[1], fields[-1]) == (k, e) else None
                    break
    if keep is not None:
        os.truncate(path, keep)
        return open(path, "a", newline="")
    fh = open(path, "w", newline="")
    fh.write(_TRACE_HEADER)
    return fh


def cmd_pod(args):
    if args.no_w and (args.checkpoint_every or args.resume):
        raise UsageError("--no-w keeps no right singular vectors to checkpoint or resume")
    M, reader = _load_inputs(args)
    tols = Tolerances(args.tol, args.tol_sv)
    ckpt_path = args.output + ".podc"
    state = None
    with reader:
        if args.resume:
            state, ckpt_tols = restore(args.resume, M)
            if ckpt_tols != tols:
                raise FormatError(f"checkpoint was made with {ckpt_tols}, not {tols}")
        with _open_trace(args.output + "_trace.csv", state) as trace:
            # rows go straight to the file, so the trace's memory does not
            # grow with the column count
            every = args.checkpoint_every

            def on_column(state, rep):
                trace.write(_TRACE_ROW % (state.n, state.k, rep.p, rep.e_p, rep.e_sv, state.e))
                if every and state.n % every == 0:
                    checkpoint(state, ckpt_path, tols)

            columns = (c for _, _, c in reader)
            state = run_stream(
                columns, M, tols, keep_w=not args.no_w, state=state, on_column=on_column
            )

    # the final checkpoint holds the open run, as a resumed run's does, so
    # that the two are byte-identical; the outputs come from the closed run
    if state.Wp is not None:
        checkpoint(state, ckpt_path, tols)
    flush(state, tols)
    eigenvalues = state.sigma**2  # V is not written, so it is not built
    write_csv(
        args.output + "_eigenvalues.csv",
        ["index", "sigma", "eigenvalue"],
        [(i + 1, state.sigma[i], eigenvalues[i]) for i in range(state.k)],
    )
    print(
        f"n={state.n} rank={state.k} e={state.e:.6e} T_p={state.T_p} T_sv={state.T_sv}"
    )
    return 0


def _mode_errors(exact, state, count):
    """The M-norm errors of the first ``count`` modes after sign alignment,
    ||q_j - q~_j|| on the columns of Q = L^T V."""
    errs = []
    for j in range(count):
        q_ex, q_in = exact.Q[:, j], state.Q[:, j]
        if q_in @ q_ex < 0.0:
            q_in = -q_in
        errs.append(float(np.linalg.norm(q_ex - q_in)))
    return errs


def _distinct_prefix(sigma, k):
    """Largest usable k with sigma_1 > ... > sigma_{k+1} > 0."""
    usable = 0
    for j in range(min(k, sigma.size - 1)):
        if sigma[j + 1] <= 0.0 or sigma[j + 1] >= sigma[j]:
            break
        usable = j + 1
    return usable


def cmd_verify(args):
    if args.random:
        m, n, seed = args.random
        if m < 1 or n < 1 or seed < 0:
            raise UsageError(f"--random needs M, N >= 1 and SEED >= 0, got {m} {n} {seed}")
        if m > _MAX_RANDOM_ROWS:
            raise UsageError(f"--random M is {m}, cap is {_MAX_RANDOM_ROWS}")
        if n > _MAX_COLUMNS:
            raise UsageError(f"--random N is {n}, cap is {_MAX_COLUMNS}")
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((m, m))
        M = WeightMatrix(((A @ A.T) + (A @ A.T).T) / 2.0 + m * np.eye(m))
        U = rng.standard_normal((m, n))
        grid = [Tolerances(1e-300, 1e-300)]
    else:
        M, U = _load_inputs(args, materialize=True)
        grid = list(VERIFY_GRID)

    ex = exact_weighted_svd(U, M)
    sigma1 = ex.sigma[0] if ex.k else 0.0
    rows = tolerance_sweep(U, M, grid)
    out_rows = []
    for row in rows:
        dominated = row.exact_error <= row.incr_error_bound + 1e-10 * sigma1
        out_rows.append(row.csv_values() + (dominated,))
    write_csv(
        args.output + "_sweep.csv",
        ["tol", "tol_sv", "rank", "exact_error", "incr_error_bound", "dominated"],
        out_rows,
    )

    # vector/value bound report for the tightest-tolerance run
    tight = min(rows, key=lambda r: (r.tol, r.tol_sv))
    eps = max(tight.incr_error_bound, np.finfo(float).tiny)
    k = _distinct_prefix(ex.sigma, min(30, tight.state.k))
    # written also when no mode qualifies, so that no older file survives
    bound_rows = vector_bound_check(ex, tight.state, eps, k) if k >= 1 else []
    write_csv(
        args.output + "_modes.csv",
        ["j", "sigma_j", "eps_j", "E_j", "gap_ok", "v_err", "v_bound", "w_err", "w_bound"],
        [r.csv_values() for r in bound_rows],
    )
    all_dominated = all(r[-1] for r in out_rows)
    print(f"rows={len(out_rows)} dominated={'all' if all_dominated else 'VIOLATED'}")
    return 0 if all_dominated else 3


def cmd_report(args):
    M, U = _load_inputs(args, materialize=True)
    tols = Tolerances(args.tol, args.tol_sv)
    rows = tolerance_sweep(U, M, [tols])
    state = rows[0].state
    ex = exact_weighted_svd(U, M)

    count = max(ex.k, state.k)
    sv_rows = []
    for j in range(count):
        sv_rows.append(
            (
                j + 1,
                ex.sigma[j] if j < ex.k else None,
                state.sigma[j] if j < state.k else None,
            )
        )
    write_csv(
        args.output + "_singular_values.csv",
        ["index", "exact_sigma", "incremental_sigma"],
        sv_rows,
    )

    shared = min(ex.k, state.k)
    errs = _mode_errors(ex, state, shared)
    write_csv(
        args.output + "_mode_errors.csv",
        ["index", "sigma", "m_norm_error"],
        [(j + 1, ex.sigma[j], errs[j]) for j in range(shared)],
    )
    print(f"rank={state.k} e={state.e:.6e} exact_error={rows[0].exact_error:.6e}")
    return 0


_DISPATCH = {
    "simulate": cmd_simulate,
    "pod": cmd_pod,
    "verify": cmd_verify,
    "report": cmd_report,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "input", None) == args.output:
            raise UsageError("--input and --output prefixes must differ")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    threads = None
    try:
        # one thread: the same bits in any environment (module docstring)
        threads = _lapack.set_num_threads(1)
        return _DISPATCH[args.subcommand](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, InvalidInputError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (
        AmbiguousAlignmentError,
        IntegrationFailureError,
        NotPositiveDefiniteError,
        PreconditionViolationError,
        RankDeficientError,
        np.linalg.LinAlgError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except LapackUnavailableError as exc:
        print(f"environment error: {exc}", file=sys.stderr)
        return 4
    finally:
        if threads is not None:
            _lapack.set_num_threads(threads)


if __name__ == "__main__":
    sys.exit(main())
