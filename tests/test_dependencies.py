"""numpy is the package's one third-party dependency (pyproject.toml). Other
packages may be installed where the tests run, so an import of one of them
under src/ would pass every other test; this one runs the package where
they cannot be imported."""

import os
import subprocess
import sys

import imbench
from imbench.bench import synth_dataset
from imbench.data import save_csv

# The child refuses every top-level module outside the standard library, numpy
# and imbench, then runs one grid cell through the command line. It also lists
# the refused imports that imbench itself asked for, so one that imbench
# guards with try/except still fails the test; the standard library's own
# guarded imports (copy tries Jython's org.python.core) are not listed.
CHILD = """
import sys

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "imbench"}
refused = []


class RefuseThirdParty:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ALLOWED:
            return None
        frame = sys._getframe(1)
        while frame.f_globals.get("__name__", "").startswith("importlib"):
            frame = frame.f_back
        if frame.f_globals.get("__name__", "").partition(".")[0] == "imbench":
            refused.append(name)
        raise ImportError(f"{name} is not the standard library, numpy or imbench")


sys.meta_path.insert(0, RefuseThirdParty())
from imbench import cli

code = cli.main(sys.argv[1:])
print("refused:", ",".join(refused))
sys.exit(code)
"""


def test_package_runs_on_stdlib_and_numpy_alone(tmp_path):
    csv_path = tmp_path / "tiny.csv"
    save_csv(synth_dataset(10, 30, 3, 0.3, seed=0), csv_path, label_column="y")
    # the child imports the same package as this process, installed or not
    search = [os.path.dirname(os.path.dirname(imbench.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in search if p))
    argv = [
        "run", "--dataset", str(csv_path), "--label-col", "y", "--samplers", "smote",
        "--classifiers", "logreg", "--runs", "1", "--out-dir", str(tmp_path / "out"),
    ]
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "refused: "
    assert (tmp_path / "out" / "metrics.csv").is_file()
