"""Pin BLAS to one thread before numpy loads, so results do not depend on
the machine's thread count. For training this is for reproducibility, not
speed: perfbench/NOTES.md ("BLAS threads") measured one and two threads on
the reference training run and found the gap smaller than run-to-run
spread. Wide forecasts are another matter: lstm_predict already runs one
worker per CPU, and OpenBLAS threads compete with them wherever a block's
recurrent product is one fused GEMM, which can double a forecast's time
(README, "Install")."""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
