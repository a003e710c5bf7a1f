import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # run from a scratch directory, where a demo with matplotlib saves its figure
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
