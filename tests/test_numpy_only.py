"""Everything but ``simulate`` runs on numpy alone.

``import incpod``, the ``pod``, ``verify`` and ``report`` subcommands and the
products of a weight matrix read from a file load no scipy module, and
only a ``verify`` whose sweep forks its pool loads ``multiprocessing`` or
``concurrent.futures``. Each check runs in a fresh interpreter, whose
``sys.modules`` has not seen the scipy that this test process imports for
its references.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from incpod.cli import main
from incpod.fhn import Mesh1D, build_weight_matrix
from incpod.io_formats import StreamWriter, read_weight_matrix, write_weight_matrix

SRC = str(Path(__file__).resolve().parents[1] / "src")

# the child's last line: the scipy, multiprocessing and concurrent modules
# it has loaded
REPORT_MODULES = """
import json, sys
roots = ("scipy", "multiprocessing", "concurrent")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in roots)))
"""


def run_child(code, *args):
    """Run ``code`` + REPORT_MODULES in a fresh interpreter on this checkout's
    package; returns the scipy, multiprocessing and concurrent modules it
    loaded."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code) + REPORT_MODULES, *map(str, args)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    # nor multiprocessing or concurrent.futures, which only a verify sweep
    # that forks imports
    assert run_child("import incpod, incpod.cli") == []


@pytest.fixture(scope="module")
def synth_prefix(tmp_path_factory):
    """A rank-6 stream plus noise under an FEM mass weight: it has growth
    columns, runs of non-growing columns and a σ-truncation at tol 1e-9."""
    prefix = str(tmp_path_factory.mktemp("numpy_only") / "synth")
    M = build_weight_matrix(Mesh1D(30))
    rng = np.random.default_rng(11)
    basis = rng.standard_normal((M.dim, 6)) * np.geomspace(1.0, 1e-6, 6)
    n = 150
    cols = basis @ rng.standard_normal((6, n)) + 1e-9 * rng.standard_normal((M.dim, n))
    write_weight_matrix(prefix + ".wm", M)
    for name, count in (("", n), ("_half", 77)):
        with StreamWriter(prefix + name + ".pods", M.dim, count=count) as w:
            for j in range(count):
                w.write_column(float(j + 1), 1.0, cols[:, j])
    Path(prefix + "_half.wm").write_bytes(Path(prefix + ".wm").read_bytes())
    return prefix


def test_pod_checkpoint_resume_and_no_w_load_no_scipy(synth_prefix, tmp_path):
    full, part = str(tmp_path / "full"), str(tmp_path / "part")
    tols = ["--tol", "1e-9", "--tol-sv", "1e-9"]
    assert main(["pod", "--input", synth_prefix, "--output", full, *tols]) == 0
    loaded = run_child(
        """
        import sys
        from incpod.cli import main
        data, part, tols = sys.argv[1], sys.argv[2], sys.argv[3:]
        assert main(["pod", "--input", data + "_half", "--output", part,
                     "--checkpoint-every", "7", *tols]) == 0
        assert main(["pod", "--input", data, "--output", part,
                     "--resume", part + ".podc", *tols]) == 0
        assert main(["pod", "--input", data, "--output", part + "_no_w", "--no-w", *tols]) == 0
        """,
        synth_prefix, part, *tols,
    )
    assert loaded == []
    for suffix in (".podc", "_eigenvalues.csv", "_trace.csv"):
        assert Path(part + suffix).read_bytes() == Path(full + suffix).read_bytes()


# verify in a child with one BLAS thread, so that its sweep may fork its pool;
# argv: data prefix, output prefix, "one_core" to pin the child to core 0
VERIFY_CHILD = """
import os, sys
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
if sys.argv[3] == "one_core":
    os.sched_setaffinity(0, {0})
from incpod.cli import main
assert main(["verify", "--input", sys.argv[1], "--output", sys.argv[2]]) == 0
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_verify_loads_no_scipy_forked_or_on_one_core(synth_prefix, tmp_path):
    forked, one_core = str(tmp_path / "forked"), str(tmp_path / "one_core")
    loaded = run_child(VERIFY_CHILD, synth_prefix, forked, "all_cores")
    if len(os.sched_getaffinity(0)) >= 2:  # only a sweep that forks imports them
        assert {"multiprocessing", "concurrent.futures"} <= set(loaded)
    assert [m for m in loaded if m.startswith("scipy")] == []
    assert run_child(VERIFY_CHILD, synth_prefix, one_core, "one_core") == []
    for suffix in ("_sweep.csv", "_modes.csv"):
        assert Path(forked + suffix).read_bytes() == Path(one_core + suffix).read_bytes()


def test_random_verify_and_report_load_no_scipy(synth_prefix, tmp_path):
    loaded = run_child(
        """
        import sys
        from incpod.cli import main
        data, out = sys.argv[1], sys.argv[2]
        assert main(["verify", "--random", "60", "40", "0", "--output", out + "_random"]) == 0
        assert main(["report", "--input", data, "--output", out + "_report"]) == 0
        """,
        synth_prefix, tmp_path / "out",
    )
    assert loaded == []


def _random_spd_file(path, rng, m=40):
    """A sparse SPD matrix as lower-triangle triplets in shuffled order, one
    off-diagonal triplet written twice. Returns the 0-based (rows, cols,
    values) of the lines."""
    rows, cols = np.tril_indices(m, -1)
    keep = rng.random(rows.size) < 0.15
    rows, cols = rows[keep], cols[keep]
    vals = rng.standard_normal(rows.size)
    diag = np.full(m, 4.0 * (np.abs(vals).sum() + 1.0)) * (1.0 + rng.random(m))
    rows = np.concatenate([rows, np.arange(m), rows[:1]])
    cols = np.concatenate([cols, np.arange(m), cols[:1]])
    vals = np.concatenate([vals, diag, vals[:1]])
    order = rng.permutation(rows.size)
    _write_triplets(path, rows[order], cols[order], vals[order], m)
    return rows[order], cols[order], vals[order]


def _write_triplets(path, rows, cols, vals, m):
    with open(path, "w") as fh:
        fh.write(f"%%WeightMatrix symmetric\n{m} {m} {rows.size}\n")
        for i, j, v in zip(rows, cols, vals):
            fh.write(f"{i + 1} {j + 1} {v:.17g}\n")


def _coo_reference(rows, cols, vals, m):
    """The matrix the triplets describe, built by scipy's COO to CSR path
    (which sums repeats), with the lower triangle mirrored."""
    off = rows != cols
    r = np.concatenate([rows, cols[off]])
    c = np.concatenate([cols, rows[off]])
    v = np.concatenate([vals, vals[off]])
    return scipy.sparse.coo_matrix((v, (r, c)), shape=(m, m)).tocsr()


def test_file_matvec_bitwise_without_scipy(tmp_path, rng):
    fhn_path = str(tmp_path / "fhn.wm")
    write_weight_matrix(fhn_path, build_weight_matrix(Mesh1D(60)))
    spd_path = str(tmp_path / "spd.wm")
    lines = _random_spd_file(spd_path, rng)
    empty_path = str(tmp_path / "empty_row.wm")  # row and column 7 hold no entry
    rows, cols, vals = lines
    keep = (rows != 7) & (cols != 7)
    empty_row = rows[keep], cols[keep], vals[keep]
    _write_triplets(empty_path, *empty_row, 40)
    loaded = run_child(
        """
        import sys
        import numpy as np
        from incpod.io_formats import read_weight_matrix
        from incpod.weighted_linalg import m_orthonormality_defect
        for path in sys.argv[1:]:
            M = read_weight_matrix(path)
            X = np.random.default_rng(3).standard_normal((M.dim, 5)) * np.logspace(-8, 8, 5)
            X[::2, 0] = -0.0
            X[:, 2] = -0.0  # every product in the column is a signed zero
            np.save(path + ".x.npy", X)
            np.save(path + ".y.npy", np.column_stack([M.matvec(x) for x in X.T]))
            np.save(path + ".Y.npy", M.matvec(X))
            m_orthonormality_defect(X, M)  # the traced run's final-state hook
        """,
        fhn_path, spd_path, empty_path,
    )
    assert loaded == []
    references = {
        fhn_path: build_weight_matrix(Mesh1D(60)).entries,
        spd_path: _coo_reference(*lines, 40),
        empty_path: _coo_reference(*empty_row, 40),
    }
    for path, reference in references.items():
        X = np.load(path + ".x.npy")
        assert np.load(path + ".y.npy").tobytes() == (reference @ X).tobytes()
        assert np.load(path + ".Y.npy").tobytes() == (reference @ X).tobytes()
        entries = read_weight_matrix(path).entries
        assert (abs(entries - reference)).max() == 0.0
        assert np.array_equal(entries @ X, reference @ X)


def test_repeated_triplet_is_summed(tmp_path, rng):
    path = str(tmp_path / "spd.wm")
    rows, cols, vals = _random_spd_file(path, rng)
    pairs, counts = np.unique(np.column_stack([rows, cols]), axis=0, return_counts=True)
    [(i, j)] = pairs[counts == 2]
    [v, v2] = vals[(rows == i) & (cols == j)]
    dense = read_weight_matrix(path).entries.toarray()
    assert dense[i, j] == dense[j, i] == v + v2 == 2.0 * v
    assert np.array_equal(dense, _coo_reference(rows, cols, vals, 40).toarray())

