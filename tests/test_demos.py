"""Smoke test: the demos and the README quickstart run to completion against
the package in src/.

Demo 03 builds a TrainingConfig and trains both GANs for 200 epochs, in
about 6-7 s. Demos 05 and 06 run whole benchmark grids and are left to a
manual run.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from imbench import save_csv, synth_dataset

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "demo",
    ["01_load_scale_split.py", "02_classic_oversamplers.py", "03_gan_oversampler.py", "04_classifiers.py"],
)
def test_demo_exits_zero(demo, tmp_path):
    search = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    # TMPDIR keeps the file demo 01 writes inside the test's own directory
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in search if p), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_runs(tmp_path, monkeypatch):
    # the README's one python block, run where it finds the my_data.csv it reads
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [quickstart] = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    save_csv(synth_dataset(20, 60, 3, 0.3), tmp_path / "my_data.csv", label_column="target")
    monkeypatch.chdir(tmp_path)
    exec(compile(quickstart, "README.md", "exec"), {})
