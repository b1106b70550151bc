import ast
import importlib
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
    # The benchmark's traced mirror reads names as ewlgames.<name> and
    # imports others from ewlgames.<module>; it is parsed, not imported, so
    # that nothing from perfbench is imported here.
    tree = ast.parse((ROOT / "perfbench" / "traced.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "ew":
            names.add(("ewlgames", node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ewlgames."):
            names.update((node.module, alias.name) for alias in node.names)
    assert {name for module, name in names if module != "ewlgames"} >= {
        "parse_angle", "parse_steps", "read_two_player_csv", "write_records_csv",
        "write_records_json", "write_rows_csv", "Figure",
    }
    missing = [
        f"{module}.{name}" for module, name in sorted(names) if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


# What only perfbench/traced.py still calls. Outside tests/test_traced_surface.py
# the tests reach the solver through the sweeps or `equilibrium._tables` and
# the reduction, so that deleting these names deletes one test module.
ADAPTER_NAMES = {
    "payoff_tensor", "PayoffTensor", "nash_two_player", "nash_bayesian", "NashEquilibrium",
    "SweepRecord", "record_columns", "scatter_theta", "payoff_histogram", "write_rows_csv", "records",
}


def test_only_the_traced_surface_tests_reach_the_adapters():
    found = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        if path.name == "test_traced_surface.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ewlgames":
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            found.extend(f"{path.name}:{node.lineno}: {name}" for name in sorted(names & ADAPTER_NAMES))
    assert found == []


def test_oracles_import_no_package_module():
    # tests/oracles.py is the package's only circuit reference, so it must share no code with it.
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported
    assert [name for name in sorted(imported) if name.split(".")[0] in ("ewlgames", "")] == []
