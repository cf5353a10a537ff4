"""Sweep the fp32 kernel's GEMM orientations and fold layouts: the data
behind its rule.

``F32NHWCKernel`` multiplies its patch matrix ``cols (rows, C*K*K+1)`` by
the logical ``(C*K*K+1, M)`` fold either row-major, ``cols @ wmat``, or
weight-major, ``(wT @ cols^T)^T`` followed by a copy into channels-last
memory.  The fold has one layout: C-contiguous ``(C*K*K+1, M)``, or the
transpose view of a C-contiguous ``(M, C*K*K+1)`` array ("weight-major
layout").  :func:`repro.core.kernels.nhwc.weight_major` picks the product
per call from the patch rows and the fold size, and ``fold`` picks the
layout from the fold size alone, so a layer never re-folds.  This script
times, for every fold shape of compiled lenet5 and full-width vgg16:

* ``C`` — the row-major product over the C-contiguous layout,
* ``R`` — the row-major product over the weight-major layout,
* ``W`` — the weight-major product over the weight-major layout.

Consecutive calls cycle through copies of the fold, so each reads it
from beyond the per-core L2, as a model's layers do.  It prints two
tables of time ratios, the medians of interleaved runs (above 1: the
second is faster).  ``R/W`` compares the orientations on the
weight-major layout; ``*`` marks the calls the rule runs weight-major.
``C/rule`` compares the C-contiguous layout with what the rule runs on
the weight-major one; ``*`` marks the folds ``fold`` stores
weight-major.

    PYTHONPATH=src python benchmarks/gemm_orientation.py

Recorded on a 2-core x86 VM (OpenBLAS 0.3.31, two threads, 2 MiB L2 per
core), the last of three runs:

    R/W: fold (CK+1, M)           1      2      4      8     16     32     64    128    256   1024
    (76, 6)                   0.92   0.78   0.76   0.74   0.72   0.73   0.68   0.67   0.57   0.52
    (151, 16)                 0.94   0.83   0.85   0.83   0.89   0.81   0.86   0.62   0.44   0.47
    (401, 120)                0.95   0.90   1.99   0.98   1.61   1.22   0.96   0.93   0.73   0.64
    (28, 64)                  0.93   1.00   0.94   0.92   0.91   0.87   0.76   0.68   0.53   0.23
    (577, 64)                 1.02   0.95   0.97   1.30   0.97   1.09   1.00   0.88   0.74   0.64
    (577, 128)                1.01   0.95   0.96   0.95   1.77   1.29   1.04   0.93   0.78   0.66
    (1153, 128)               0.99   0.96   0.99   1.64   1.68   1.22   0.95   0.92   0.80   0.75
    (1153, 256)               0.97   0.97   2.18   1.82   2.14   1.47   1.08   0.97   0.90   0.83
    (2305, 256)               1.00*  2.27*  2.52*  2.03*  2.03*  1.59*  1.20*  1.01*  0.97   0.84
    (2305, 512)               0.99*  2.13*  2.09*  2.01*  2.05*  1.62*  1.21*  1.10*  0.96   0.86
    (4609, 512)               1.07*  1.93*  2.30*  2.07*  1.96*  1.60*  1.29*  1.15*  1.01   0.92

    C/rule: fold (CK+1, M)        1      2      4      8     16     32     64    128    256   1024
    (76, 6)                    0.90   0.95   1.00   0.95   0.95   0.95   0.98   0.99   0.59   0.51
    (151, 16)                  0.61   0.67   0.61   0.64   0.68   0.71   0.72   0.67   0.99   0.93
    (401, 120)                 0.37   0.62   0.37   0.47   0.40   0.58   0.74   0.69   0.78   0.94
    (28, 64)                   0.64   0.47   0.43   0.45   0.45   0.50   0.58   0.63   0.58   0.97
    (577, 64)                  0.53   0.44   0.45   0.29   0.36   0.69   0.79   0.69   0.80   0.94
    (577, 128)                 0.45   0.57   0.52   0.62   0.57   0.68   0.76   0.82   0.72   1.00
    (1153, 128)                0.30   0.33   0.43   0.53   0.60   0.62   0.74   0.84   0.87   0.88
    (1153, 256)                0.41   0.45   0.46   0.49   0.55   0.61   0.69   0.83   0.91   0.96
    (2305, 256)*               2.56   1.31   1.47   1.32   1.60   1.42   1.07   0.97   1.03   1.01
    (2305, 512)*               1.28   1.33   1.36   1.37   1.70   1.50   1.16   1.06   0.96   1.00
    (4609, 512)*               0.96   1.21   1.38   1.26   1.68   1.45   1.21   1.08   0.98   1.02

Over the three runs, on the three folds above the floor, R/W read
1.12-2.52 at 2-64 rows, 1.00-1.17 at 128 and 0.82-1.01 at 256-1024,
hence the 128-row limit.  At 1 row it read 0.98-1.07: both products then
stream the same fold once for a single vector, so the orientation does
not matter there, but the layout does, C/rule reading 0.96-2.56.
C/rule read 1.19-1.70 at 2-32 rows, 0.92-1.21 at 64-128 and 0.95-1.03
at 256-1024, where the row-major product runs a little slower over the
weight-major layout: the price of one layout per fold.  On the smaller
folds, lenet5's among them, C/rule (there C/R) read 0.25-1.06, below 1
in 99% of the cells, so they stay C-contiguous.  The largest of them,
1153x256, would run 0.43-1.07x as fast stored weight-major under the
rule (C/R times R/W), hence the floor between it and 2305x256.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core.kernels import F32NHWCKernel
from repro.core.kernels.nhwc import WEIGHT_MAJOR_MIN_FOLD, weight_major

#: (C, K, M) of every lowered layer's fold in lenet5 and vgg16, small to large
FOLDS = [
    (3, 5, 6), (6, 5, 16), (16, 5, 120),  # lenet5
    (3, 3, 64), (64, 3, 64), (64, 3, 128), (128, 3, 128), (128, 3, 256),  # vgg16 ...
    (256, 3, 256), (256, 3, 512), (512, 3, 512),
]
ROWS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 1024)
#: interleaved medians per cell; the cell reports their median ratio
REPEATS = 5
#: consecutive calls cycle through copies of a fold spanning at least this
#: many bytes, so each call reads its fold from beyond the per-core L2, as
#: in a model, where the other layers' folds evict it between its calls
ROTATION_BYTES = 24 << 20


def _median_s(fn, calls: int) -> float:
    times = []
    for i in range(calls):
        t0 = perf_counter()
        fn(i)
        times.append(perf_counter() - t0)
    return float(np.median(times))


def _row(label: str, cells) -> str:
    return f"{label:<24}" + "".join(cells)


def sweep() -> None:
    rng = np.random.default_rng(0)
    orient, layout = [], []
    for c, k, m in FOLDS:
        fold = F32NHWCKernel(1).fold(rng.standard_normal((m, c, k, k)))
        n = int(np.clip(ROTATION_BYTES // fold.nbytes + 1, 2, 4096))
        c_major = [np.ascontiguousarray(fold) for _ in range(n)]  # the C-contiguous layout
        w_major = [np.ascontiguousarray(fold.T) for _ in range(n)]  # weight-major, as (M, CK+1)
        o_cells, l_cells = [], []
        for rows in ROWS:
            cols = rng.standard_normal((rows, fold.shape[0])).astype(np.float32)
            calls = int(np.clip(1e9 / (fold.size * max(rows, 4)), 20, 2000))
            run_c = lambda i: np.matmul(cols, c_major[i % n])
            run_r = lambda i: np.matmul(cols, w_major[i % n].T)
            run_w = lambda i: np.ascontiguousarray(np.matmul(w_major[i % n], cols.T).T)
            wm = weight_major(rows, fold.size)
            r_w, c_rule = [], []
            for _ in range(REPEATS):
                tc, tr, tw = (_median_s(f, calls) for f in (run_c, run_r, run_w))
                r_w.append(tr / tw)
                c_rule.append(tc / (tw if wm else tr))
            mark = "*" if wm else " "
            o_cells.append(f"{np.median(r_w):6.2f}{mark}")
            l_cells.append(f"{np.median(c_rule):7.2f}")
        stored = "*" if fold.size >= WEIGHT_MAJOR_MIN_FOLD else " "
        orient.append(_row(str(fold.shape), o_cells))
        layout.append(_row(f"{fold.shape}{stored}", l_cells))
        print(orient[-1], flush=True)
    for title, table in (("R/W", orient), ("C/rule", layout)):
        print("\n" + _row(f"{title}: fold (CK+1, M)", (f"{r:>7}" for r in ROWS)))
        print("\n".join(table))


if __name__ == "__main__":
    sweep()
