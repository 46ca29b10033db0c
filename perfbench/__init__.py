"""bellcast's batch benchmark; run it with ``python3 perfbench/run.py``."""

# Pinned to 1 in the benchmark and in every process it starts, before numpy
# is imported, so that each workload runs on one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
