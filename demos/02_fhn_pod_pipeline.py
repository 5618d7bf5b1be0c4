"""FitzHugh-Nagumo POD pipeline: simulate, stream, sweep tolerances.

Reproduces the shape of the published experiment at desk scale: a 1D
excitable-medium system is integrated with an adaptive implicit stepper,
the sqrt(dt)-scaled snapshot columns are streamed through the incremental
SVD for a grid of truncation tolerances, and each run is compared against
the exact weighted SVD of the full snapshot matrix. Every row must show
exact_error <= error bound; the script exits with status 1 if one does not.
"""

import sys

import numpy as np

from incpod import FhnParams, Mesh1D, Tolerances, build_weight_matrix, simulate
from incpod.oracle import exact_weighted_svd, tolerance_sweep

# Keep the mesh small so the demo runs in seconds; bump nodes/t_final for
# the full desk-scale experiment (500 nodes, horizon 10).
mesh = Mesh1D(120)
t_final = 3.0

print(f"simulating FHN on {mesh.nodes} nodes up to t={t_final} ...")
snaps = simulate(FhnParams(), mesh, t_final)
M = build_weight_matrix(mesh)
print(f"  {snaps.count} snapshots of dimension {snaps.m}")

exact = exact_weighted_svd(snaps.columns, M)
print(f"  weighted singular values: sigma_1={exact.sigma[0]:.3e}, "
      f"sigma_10={exact.sigma[9]:.3e}, rank={exact.k}")

grid = [Tolerances(t, tsv)
        for t in (1e-8, 1e-10, 1e-12)
        for tsv in (1e-8, 1e-10, 1e-12)]
rows = tolerance_sweep(snaps.columns, M, grid)

print(f"\n{'tol':>8} {'tol_sv':>8} {'rank':>5} {'exact error':>13} "
      f"{'error bound':>13}  dominated")
all_dominated = True
for row in rows:
    ok = row.exact_error <= row.incr_error_bound + 1e-10 * exact.sigma[0]
    all_dominated &= ok
    print(f"{row.tol:>8.0e} {row.tol_sv:>8.0e} {row.rank:>5d} "
          f"{row.exact_error:>13.4e} {row.incr_error_bound:>13.4e}  {ok}")

# POD eigenvalues are the squared singular values; the leading modes carry
# nearly all of the energy.
tight = rows[-1].state
energy = np.cumsum(tight.sigma**2) / np.sum(tight.sigma**2)
hold = int(np.searchsorted(energy, 0.9999) + 1)
print(f"\n{hold} modes capture 99.99% of the snapshot energy")

if not all_dominated:
    sys.exit("a sweep row is not dominated by its error bound")
