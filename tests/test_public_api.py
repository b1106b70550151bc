import os
import re
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
