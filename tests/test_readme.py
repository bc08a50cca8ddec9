"""The README's "Library sketch" and "Command line" blocks run as written.

The sketch's python block runs in a fresh interpreter with warnings as
errors, from a directory whose configs/gaussian_c3.txt is the shipped file
cut to time.final = 0.25.  A warning raised where Python cannot propagate it
(a ResourceWarning from an unclosed file) only reaches stderr, so stderr
must stay empty too.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import relqtraj as rq
from relqtraj.cli import main

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


def _command_lines():
    """The relqtraj lines of the sh block under "## Command line", each with
    its continuation lines joined and without the comment lines."""
    section = (ROOT / "README.md").read_text().split("\n## Command line\n", 1)[1]
    (block,) = re.findall(r"```sh\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    lines = block.replace("\\\n", " ").splitlines()
    return [ln for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    # Each line runs through cli.main from a directory whose two gaussian
    # configs are cut to time.final = 1; a line with a bracketed option runs
    # without it and then with it.  A flag the CLI no longer knows is exit 1.
    (tmp_path / "configs").mkdir()
    for name in ("gaussian_c3.txt", "gaussian_c100.txt"):
        text = (ROOT / "configs" / name).read_text()
        assert "time.final = 10" in text
        (tmp_path / "configs" / name).write_text(text.replace("time.final = 10",
                                                              "time.final = 1"))
    monkeypatch.chdir(tmp_path)
    codes = {}
    for line in _command_lines():
        variants = [re.sub(r"\s*\[[^]]*\]", "", line)]
        if "[" in line:
            variants.append(re.sub(r"\[([^]]*)\]", r"\1", line))
        for command in variants:
            prog, name, *args = shlex.split(command)
            assert prog == "relqtraj"
            codes.setdefault(name, []).append(main([name, *args]))
            assert capsys.readouterr().err == ""
    # simulate (the rerun from out/manifest.txt too) and verify exit 2: the c = 3
    # run fails reference_trajectory_zeros, whose zeros move by O(1/c^2) at finite c
    assert codes == {"simulate": [2, 2, 2], "analytic": [0], "verify": [2, 2],
                     "compare-limits": [0], "figures": [0]}
    # the block's rerun from the manifest wrote the table it claims
    assert (tmp_path / "rerun" / "snapshots.tsv").read_bytes() == \
        (tmp_path / "out" / "snapshots.tsv").read_bytes()
