"""Reports do not depend on which OpenBLAS kernel runs the products.

A DYNAMIC_ARCH OpenBLAS picks its kernel per process from the CPU, or from
``OPENBLAS_CORETYPE``. The same small grid, GANs included, runs in two child
processes under two kernels whose products differ in their last bits, and
the deterministic report files must still be byte-identical.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CORES = ("Haswell", "Sandybridge")

# argv[1] is the output directory; prints the kernel's core name, or nothing
# when numpy's BLAS has no core-name symbol
CHILD = """
import ctypes, sys
import numpy as np
from imbench import ExperimentConfig, TrainingConfig, emit_report, mean_rank, run_benchmark, synth_dataset
from imbench.bench import report_to_f1_table

config = ExperimentConfig(
    datasets=(("synth", "", "label"),), runs=1, master_seed=3, gan_config=TrainingConfig(epochs=10)
)
report = run_benchmark(config, loaded={"synth": synth_dataset(40, 160, 6, 0.15, seed=3)})
emit_report(report, mean_rank(report_to_f1_table(report)), sys.argv[1])

umath = getattr(np, "_core", None) or np.core  # numpy 2, numpy 1
lib = ctypes.CDLL(umath._multiarray_umath.__file__)
for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename"):
    if hasattr(lib, symbol):
        corename = getattr(lib, symbol)
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        print(corename().decode())
        break
"""


def test_reports_equal_across_blas_kernels(tmp_path):
    search = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    ran = {}
    for core in CORES:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in search if p), OPENBLAS_CORETYPE=core)
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(tmp_path / core)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        if proc.returncode == -signal.SIGILL:
            pytest.skip(f"this CPU cannot run OpenBLAS's {core} kernel")
        assert proc.returncode == 0, proc.stderr
        ran[core] = proc.stdout.strip()
    if not all(ran.values()):
        pytest.skip("numpy's BLAS reports no OpenBLAS core name, so its kernel cannot be chosen")
    if len(set(ran.values())) == 1:
        pytest.skip(f"OPENBLAS_CORETYPE did not switch the kernel: both children ran {ran[CORES[0]]}")
    for name in ("metrics.csv", "ranks.csv"):
        a, b = ((tmp_path / core / name).read_bytes() for core in CORES)
        assert a == b, f"{name} differs between the {ran[CORES[0]]} and {ran[CORES[1]]} kernels"
