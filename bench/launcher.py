"""Child-process entry point of the benchmark: one incpod command per process.

    launcher.py probe
        Import incpod from this checkout's ``src`` and print the environment
        record (Python, numpy, scipy, BLAS) as one JSON line.
    launcher.py synth --seed S --nodes N --columns C --rank R --noise X
                      --out PREFIX [--prefix-columns K --prefix-out P
                      --checkpoint-out Q -- <pod flags>]
        Write a seeded low-rank-plus-noise stream with the FEM mass weight of
        an N-node mesh. With ``--prefix-columns``, also write the first K
        columns as their own stream and run ``incpod pod`` over it in this
        process, leaving the checkpoint at ``Q.podc``.
    launcher.py cli [--trace FILE --run-id ID] -- <incpod argv>
        Run ``incpod.cli.main(argv)`` and exit with its code. Only with
        ``--trace`` is ``tracer.py`` imported and installed.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)


def _split(argv):
    """Options before ``--`` as a dict, and the arguments after it."""
    if "--" in argv:
        cut = argv.index("--")
        opts, rest = argv[:cut], argv[cut + 1 :]
    else:
        opts, rest = argv, []
    if len(opts) % 2:
        raise SystemExit(f"launcher: options must come in pairs, got {opts}")
    return dict(zip(opts[::2], opts[1::2])), rest


def probe():
    import incpod
    import numpy
    import scipy

    where = os.path.dirname(os.path.abspath(incpod.__file__))
    if not where.startswith(SRC + os.sep):
        print(f"launcher: incpod imported from {where}, not from {SRC}", file=sys.stderr)
        return 2
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(
        json.dumps(
            {
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            }
        )
    )
    return 0


def synth(opts, pod_flags):
    import numpy as np
    import scipy.linalg

    from incpod.cli import main as incpod_main
    from incpod.fhn import Mesh1D, build_weight_matrix
    from incpod.io_formats import write_stream, write_weight_matrix

    seed, nodes = int(opts["--seed"]), int(opts["--nodes"])
    columns, rank = int(opts["--columns"]), int(opts["--rank"])
    noise, out = float(opts["--noise"]), opts["--out"]

    M = build_weight_matrix(Mesh1D(nodes))
    m = M.dim
    rng = np.random.default_rng(seed)
    # V = L^-T Q is M-orthonormal, so the signal's weighted singular values
    # are exactly geomspace(1, 1e-6, rank)
    L = scipy.linalg.cholesky(M.entries.toarray(), lower=True)
    Q, _ = np.linalg.qr(rng.standard_normal((m, rank)))
    V = scipy.linalg.solve_triangular(L, Q, lower=True, trans="T")
    W, _ = np.linalg.qr(rng.standard_normal((columns, rank)))
    U = (V * np.geomspace(1.0, 1e-6, rank)) @ W.T
    U += noise * rng.standard_normal((m, columns))
    times = np.arange(1.0, columns + 1.0)
    weights = np.ones(columns)

    write_weight_matrix(out + ".wm", M)
    write_stream(out + ".pods", times, weights, U)
    if "--prefix-columns" not in opts:
        return 0
    k, prefix = int(opts["--prefix-columns"]), opts["--prefix-out"]
    write_weight_matrix(prefix + ".wm", M)
    write_stream(prefix + ".pods", times[:k], weights[:k], U[:, :k])
    return incpod_main(
        ["pod", "--input", prefix, "--output", opts["--checkpoint-out"], *pod_flags]
    )


def cli(opts, argv):
    trace_path = opts.get("--trace")
    if trace_path is None:
        from incpod.cli import main as incpod_main

        return incpod_main(argv)

    from tracer import Tracer, install

    tracer = Tracer(opts["--run-id"])
    idx = tracer.open("cli.import")
    import incpod.cli

    tracer.close(idx)
    install(tracer)
    try:
        idx = tracer.open("cli." + argv[0])
        try:
            return incpod.cli.main(argv)
        finally:
            tracer.close(idx)
    finally:
        tracer.dump(trace_path)


def main(argv):
    mode, (opts, rest) = argv[0], _split(argv[1:])
    if mode == "probe":
        return probe()
    if mode == "synth":
        return synth(opts, rest)
    if mode == "cli":
        return cli(opts, rest)
    print(f"launcher: unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
