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


PUBLIC_NAMES = {
    "__version__",
    "GameDefinition",
    "StrategyParams",
    "SteppingParams",
    "StrategyGrid",
    "build_grid",
    "DEFAULT_EPSILON",
    "default_gamma_grid",
    "default_p_grid",
    "gamma_sweep",
    "bayes_sweep",
    "RecordTable",
    "critical_gamma",
    "CriticalBracket",
    "GameCatalogue",
    "CatalogueError",
    "load_catalogue",
    "load_default_catalogue",
}


def test_all_is_the_documented_library_path():
    assert len(ewlgames.__all__) == len(PUBLIC_NAMES)
    assert set(ewlgames.__all__) == PUBLIC_NAMES
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    undocumented = [
        name for name in PUBLIC_NAMES - {"__version__"} if not re.search(rf"\b{name}\b", readme)
    ]
    assert undocumented == []


def test_traced_benchmark_names_resolve():
    # The benchmark's traced mirror reads these as ewlgames.<name>; it is
    # read as text so that nothing from perfbench is imported here.
    traced = (ROOT / "perfbench" / "traced.py").read_text(encoding="utf-8")
    names = set(re.findall(r"\bew\.(\w+)", traced))
    assert names
    assert [name for name in sorted(names) if not hasattr(ewlgames, name)] == []
