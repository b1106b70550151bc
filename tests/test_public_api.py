import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import ewlgames

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs_and_all_names_resolve():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    for name in ewlgames.__all__:
        getattr(ewlgames, name)


def test_readme_command_line_block_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    commands = [
        shlex.split(line)[1:]
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("ewlgames ")
    ]
    assert {argv[0] for argv in commands} == {"solve", "sweep", "bayes-sweep", "analyze", "strategies"}
    for argv in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "ewlgames", *argv],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.returncode == 0, (argv, proc.stderr)
        for flag, suffix in (("--out", ".csv"), ("--plot", ".svg")):
            if flag not in argv:
                continue
            target = argv[argv.index(flag) + 1]
            if argv[0] == "analyze":
                assert len(list(tmp_path.glob(f"{target}_*{suffix}"))) == 3, argv
            else:
                assert (tmp_path / target).is_file(), argv
