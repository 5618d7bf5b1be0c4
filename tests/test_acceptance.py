"""Acceptance suite: one test per exit criterion, printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. The FitzHugh-Nagumo
desk-scale dataset (500 nodes, horizon 10) is simulated once per session
and shared by the criteria that need it.
"""

import functools
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from incpod.fhn import FhnParams, Mesh1D, build_weight_matrix, simulate
from incpod.incremental import Tolerances, reconstruct, run_stream
from incpod.io_formats import StreamWriter, write_weight_matrix
from incpod.oracle import exact_weighted_svd, tolerance_sweep
from incpod.perturbation import bound_sequence, singular_value_gap_check, vector_bound_check
from incpod.weighted_linalg import (
    WeightMatrix,
    small_svd,
    weighted_operator_norm,
)

from conftest import engineered_pair, random_weight, rank_one_perturbation

TOL_GRID = [
    Tolerances(t, tsv) for t in (1e-8, 1e-10, 1e-12) for tsv in (1e-8, 1e-10, 1e-12)
]
_timings = {}


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[ACCEPTANCE] {label}: FAIL")
                raise
            print(f"\n[ACCEPTANCE] {label}: PASS ({time.perf_counter() - t0:.1f}s)")

        return wrapper

    return deco


@pytest.fixture(scope="module")
def fhn_data():
    t0 = time.perf_counter()
    mesh = Mesh1D(500)
    snaps = simulate(FhnParams(), mesh, 10.0)
    M = build_weight_matrix(mesh)
    _timings["simulate"] = time.perf_counter() - t0
    return snaps, M


@pytest.fixture(scope="module")
def fhn_oracle(fhn_data):
    snaps, M = fhn_data
    return exact_weighted_svd(snaps.columns, M)


@pytest.fixture(scope="module")
def fhn_sweep(fhn_data):
    snaps, M = fhn_data
    t0 = time.perf_counter()
    rows = tolerance_sweep(snaps.columns, M, TOL_GRID)
    _timings["sweep"] = time.perf_counter() - t0
    return rows


@criterion("criterion 1: bound domination on FHN grid")
def test_c1_bound_domination(fhn_sweep, fhn_oracle):
    sigma1 = fhn_oracle.sigma[0]
    assert len(fhn_sweep) == 9
    for row in fhn_sweep:
        assert row.exact_error <= row.incr_error_bound + 1e-10 * sigma1, (
            f"tol={row.tol:g} tol_sv={row.tol_sv:g}: "
            f"{row.exact_error:e} > {row.incr_error_bound:e}"
        )
    tight = next(r for r in fhn_sweep if r.tol == 1e-12 and r.tol_sv == 1e-12)
    assert tight.exact_error <= 1e-9  # published magnitude, loosened for scale
    # tightening tol_sv from 1e-8 to 1e-10 retains more modes at fixed tol
    by_pair = {(r.tol, r.tol_sv): r.rank for r in fhn_sweep}
    for tol in (1e-8, 1e-10, 1e-12):
        assert by_pair[(tol, 1e-8)] <= by_pair[(tol, 1e-10)]
    elapsed = _timings["simulate"] + _timings["sweep"]
    assert elapsed < 300.0, f"criterion 1 pipeline took {elapsed:.0f}s"


@criterion("criterion 2: error bound capped by T_p tol + T_sv tol_sv")
def test_c2_corollary_cap(fhn_sweep):
    for row in fhn_sweep:
        t_p, t_sv = row.T_p, row.T_sv
        cap = t_p * row.tol + t_sv * row.tol_sv
        assert row.incr_error_bound <= cap, (
            f"e={row.incr_error_bound:e} exceeds cap {cap:e} (T_p={t_p}, T_sv={t_sv})"
        )


@criterion("criterion 3: exactness without truncation, 50 random instances")
def test_c3_exactness_without_truncation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    tols = Tolerances(1e-300, 1e-300)
    for _ in range(50):
        m = int(rng.integers(10, 101))
        n = int(rng.integers(5, 61))
        M = random_weight(rng, m)
        U = rng.standard_normal((m, n))
        state = run_stream(iter(U.T), M, tols)
        ex = exact_weighted_svd(U, M)
        k = min(state.k, ex.k)
        assert np.max(np.abs(state.sigma[:k] - ex.sigma[:k])) <= 1e-11 * ex.sigma[0]
        norm_u = weighted_operator_norm(U, M)
        assert weighted_operator_norm(U - reconstruct(state), M) <= 1e-11 * norm_u
    assert time.perf_counter() - t0 < 30.0


@criterion("criterion 4: p-truncation and rank-truncation error identities")
def test_c4_truncation_error_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = int(rng.integers(6, 40))
        n = int(rng.integers(3, 25))
        M = random_weight(rng, m)
        U = rng.standard_normal((m, n))
        c = rng.standard_normal(m)
        ex = exact_weighted_svd(U, M)
        proj = ex.V @ (ex.V.T @ M.matvec(c))
        r = c - proj
        p = np.sqrt(r @ M.matvec(r))
        lhs = weighted_operator_norm(
            np.column_stack([U, c]) - np.column_stack([U, proj]), M
        )
        assert lhs == pytest.approx(p, rel=1e-11)
    for _ in range(50):
        m = int(rng.integers(6, 40))
        n = int(rng.integers(4, 25))
        M = random_weight(rng, m)
        U = rng.standard_normal((m, n))
        ex = exact_weighted_svd(U, M)
        r = int(rng.integers(1, ex.k))
        trunc = (ex.V[:, :r] * ex.sigma[:r]) @ ex.W[:, :r].T
        err = weighted_operator_norm(U - trunc, M)
        assert err == pytest.approx(ex.sigma[r], rel=1e-11)
    assert time.perf_counter() - t0 < 30.0


@criterion("criterion 5: zero-bottom-row SVD structure, 50 instances")
def test_c5_zero_row_structure():
    rng = np.random.default_rng(5)
    for _ in range(50):
        k = int(rng.integers(1, 12))
        Q = np.zeros((k + 1, k + 1))
        Q[:k, :k] = np.diag(np.sort(rng.uniform(0.5, 10.0, k))[::-1])
        Q[:k, k] = rng.standard_normal(k)
        V_Q, s, _ = small_svd(Q)
        assert np.count_nonzero(s < 1e-13 * s[0]) == 1
        e_last = np.zeros(k + 1)
        e_last[-1] = 1.0
        deviation = min(
            np.max(np.abs(V_Q[:, -1] - e_last)), np.max(np.abs(V_Q[:, -1] + e_last))
        )
        assert deviation <= 1e-12


@criterion("criterion 6: singular values track the oracle within e")
def test_c6_singular_value_bound(fhn_sweep, fhn_oracle):
    sigma1 = fhn_oracle.sigma[0]
    for row in fhn_sweep:
        eps = row.incr_error_bound + 1e-10 * sigma1
        assert singular_value_gap_check(fhn_oracle.sigma, row.sigma, eps), (
            f"tol={row.tol:g} tol_sv={row.tol_sv:g}: "
            "singular value deviation exceeds the error bound"
        )


@criterion("criterion 7: singular vector bounds on 100 perturbation pairs")
def test_c7_vector_bounds():
    # frozen from an independent evaluation of the closed form at
    # sigma=[2,1], eps=0.1
    seq = bound_sequence([2.0, 1.0], 0.1, 1)
    assert seq.E_seq[0] == pytest.approx(0.2718024804245706, abs=1e-10)

    rng = np.random.default_rng(7)
    applicable_total = 0
    for _ in range(100):
        m = int(rng.integers(10, 20))
        n = int(rng.integers(8, 16))
        M = random_weight(rng, m)
        U, _, _, _ = engineered_pair(rng, M, n, [16.0, 8.0, 4.0, 2.0, 1.0])
        eps = 10.0 ** rng.uniform(-10.0, -8.0)
        pert = exact_weighted_svd(U + rank_one_perturbation(rng, M, n, eps), M)
        ex = exact_weighted_svd(U, M)
        rows = vector_bound_check(ex, pert, eps=eps, k=3)
        for r in rows:
            if r.gap_ok:
                applicable_total += 1
                assert r.v_ok, f"v bound violated at j={r.j}: {r.v_err} > {r.v_bound}"
                assert r.w_ok, f"w bound violated at j={r.j}: {r.w_err} > {r.w_bound}"
    assert applicable_total >= 100  # the engineered gaps keep most rows applicable


@criterion("criterion 8: first 20 POD modes accurate, errors grow with decay")
def test_c8_mode_accuracy(fhn_data, fhn_sweep, fhn_oracle):
    t0 = time.perf_counter()
    _, M = fhn_data
    row = next(r for r in fhn_sweep if r.tol == 1e-12 and r.tol_sv == 1e-12)
    state = row.state
    count = 20
    assert state.k >= count and fhn_oracle.k >= count
    errs = []
    V_ex, V_in = fhn_oracle.V, state.V
    for j in range(count):
        v_ex = V_ex[:, j]
        v_in = V_in[:, j]
        if v_ex @ M.matvec(v_in) < 0.0:
            v_in = -v_in
        d = v_ex - v_in
        errs.append(np.sqrt(d @ M.matvec(d)))
    errs = np.asarray(errs)
    assert np.max(errs) <= 1e-4
    # errors grow as the singular values decay
    assert np.mean(errs[:10]) < np.mean(errs[10:])
    assert time.perf_counter() - t0 + _timings["simulate"] < 120.0


def _pod_subprocess(args):
    """Run the CLI in a child process, returning (exit code, peak RSS KiB)."""
    cmd = [sys.executable, "-m", "incpod.cli"] + args
    proc = subprocess.Popen(
        cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    _, status, rusage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage.ru_maxrss


def _write_synthetic_stream(path, m, count, rank=8, seed=99):
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((m, rank))
    freqs = np.linspace(0.3, 1.7, rank)
    with StreamWriter(path, m, count=count) as w:
        for j in range(count):
            coeff = np.cos(freqs * (j + 1)) + 0.1 * np.sin(3.0 * freqs * (j + 1))
            w.write_column(float(j + 1), 1.0, basis @ coeff)


@criterion("criterion 9: streaming memory contract and bitwise resume")
def test_c9_streaming_contract(tmp_path):
    m = 1000
    weight_path = str(tmp_path / "synth.wm")
    write_weight_matrix(weight_path, WeightMatrix.from_band(np.ones((1, m))))

    prefixes = {}
    for label, count in (("small", 200), ("big", 10_000)):
        prefix = str(tmp_path / label)
        _write_synthetic_stream(prefix + ".pods", m, count)
        import shutil

        shutil.copy(weight_path, prefix + ".wm")
        prefixes[label] = prefix

    code, rss_small = _pod_subprocess(
        ["pod", "--input", prefixes["small"], "--output", str(tmp_path / "out_small")]
    )
    assert code == 0
    code, rss_big = _pod_subprocess(
        ["pod", "--input", prefixes["big"], "--output", str(tmp_path / "out_big")]
    )
    assert code == 0
    assert rss_big < 3 * rss_small, (
        f"peak RSS grew from {rss_small} KiB (200 cols) to {rss_big} KiB "
        "(10000 cols); streaming contract violated"
    )

    # checkpoint/resume path must be bitwise identical to one uninterrupted run
    from incpod.io_formats import read_stream_matrix

    times, weights, cols = read_stream_matrix(prefixes["small"] + ".pods")
    cut = 100
    part = str(tmp_path / "part")
    with StreamWriter(part + ".pods", m, count=cut) as w:
        for j in range(cut):
            w.write_column(times[j], weights[j], cols[:, j])
    import shutil

    shutil.copy(weight_path, part + ".wm")
    from incpod.cli import main

    assert main(["pod", "--input", part, "--output", str(tmp_path / "half")]) == 0
    assert (
        main(
            [
                "pod",
                "--input",
                prefixes["small"],
                "--output",
                str(tmp_path / "resumed"),
                "--resume",
                str(tmp_path / "half") + ".podc",
            ]
        )
        == 0
    )
    direct = (tmp_path / "out_small.podc").read_bytes()
    resumed = (tmp_path / "resumed.podc").read_bytes()
    assert resumed == direct
