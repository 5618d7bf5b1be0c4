"""File formats: snapshot streams, weight matrices, and bitwise resume.

Writes a small synthetic stream to disk, consumes it one column at a time
(never holding the matrix in memory), checkpoints halfway, and shows that
restore + the remaining columns lands bit-for-bit on the uninterrupted
result.
"""

import tempfile
from itertools import islice
from pathlib import Path

import numpy as np

from incpod import Tolerances, WeightMatrix, flush, run_stream
from incpod.io_formats import (
    StreamReader,
    checkpoint,
    read_weight_matrix,
    restore,
    write_stream,
    write_weight_matrix,
)

rng = np.random.default_rng(11)
workdir = Path(tempfile.mkdtemp(prefix="incpod_demo_"))
m, s = 50, 60

M = WeightMatrix(np.diag(rng.uniform(0.5, 2.0, m)))
columns = rng.standard_normal((m, 5)) @ rng.standard_normal((5, s))
times = np.cumsum(rng.uniform(0.01, 0.1, s))
weights = np.sqrt(np.diff(np.concatenate([[0.0], times])))

stream_path = workdir / "demo.pods"
weights_path = workdir / "demo.wm"
write_stream(stream_path, times, weights, columns * weights)
write_weight_matrix(weights_path, M)
print(f"wrote {stream_path} ({stream_path.stat().st_size} bytes) "
      f"and {weights_path}")

M2 = read_weight_matrix(weights_path)
tols = Tolerances(1e-10, 1e-10)


# one uninterrupted pass
with StreamReader(stream_path) as reader:
    direct = run_stream((c for _, _, c in reader), M2, tols)

# interrupted pass: stop halfway, checkpoint, restore, finish
with StreamReader(stream_path) as reader:
    half = run_stream(islice((c for _, _, c in reader), s // 2), M2, tols)
ckpt = workdir / "half.podc"
checkpoint(half, ckpt, tols)
resumed, tols2 = restore(ckpt)
with StreamReader(stream_path) as reader:
    # the restored state passes over the columns it already consumed
    resumed = run_stream((c for _, _, c in reader), M2, tols2, state=resumed)

# both streams end inside the same open run (a checkpoint never closes one);
# the flush folds it into V, sigma and W in the same way for both
print(f"open run at the end: {direct.j} and {resumed.j} columns")
direct, resumed = flush(direct, tols), flush(resumed, tols)
print(f"direct run:  rank {direct.k}, e = {direct.e:.6e}")
print(f"resumed run: rank {resumed.k}, e = {resumed.e:.6e}")
print("bitwise identical:",
      np.array_equal(direct.V, resumed.V)
      and np.array_equal(direct.sigma, resumed.sigma)
      and np.array_equal(direct.W, resumed.W)
      and direct.e == resumed.e)
