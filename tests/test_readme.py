"""The README's "Library sketch" runs as written.

The sketch's python block runs in a fresh interpreter with warnings as
errors, from a directory whose configs/gaussian_c3.txt is the shipped file
cut to time.final = 0.25.  A warning raised where Python cannot propagate it
(a ResourceWarning from an unclosed file) only reaches stderr, so stderr
must stay empty too.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import relqtraj as rq

ROOT = Path(__file__).resolve().parent.parent


def test_library_sketch_runs(tmp_path):
    section = (ROOT / "README.md").read_text().split("\n## Library sketch\n", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    text = (ROOT / "configs" / "gaussian_c3.txt").read_text()
    assert "time.final = 10" in text
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "gaussian_c3.txt").write_text(
        text.replace("time.final = 10", "time.final = 0.25"))
    package_root = str(Path(rq.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)}
    result = subprocess.run([sys.executable, "-W", "error", "-c", code], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stderr) == (0, "")
