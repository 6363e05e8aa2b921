"""Benchmark harness for finset: three closed-loop workloads, output checks and a tracer.

Run one workload with ``python3 finbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root.
"""

# Environment variables that pin BLAS and OpenMP to one thread; set before
# NumPy is imported so that one caller uses one core.
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
