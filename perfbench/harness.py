"""Child-process measurement, input preparation and output verification.

Every child gets a pinned environment: the BLAS thread variables are set
explicitly (so nothing leaks in from the caller's shell) and PYTHONPATH
points at the checkout's `src`, so the package is always built from the
source under test. Peak memory and CPU time are read per child with
os.wait4; RUSAGE_CHILDREN would carry the largest earlier child (the
1.2 GB 7968 solve) into every later number.
"""
from __future__ import annotations

import configparser
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import checks
from .inputs import analyze_records_csv, catalogue_text
from .workloads import ANALYSIS_COLUMNS, ANALYSIS_PARTS, ANALYZE_INPUT, BIN_WIDTH, CATALOGUE, GAMMA_SLICE, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SHIPPED_CATALOGUE = SRC / "ewlgames" / "data" / "games.ini"
WORK = ROOT / ".perfbench_work"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

BLAS_THREADS = "1"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
CHILD_TIMEOUT_S = 120
# Equilibria per operation that get the pure-Python deviation check.
DEVIATION_SAMPLES = 4

_PROBE = """
import json, sys
import numpy, ewlgames
try:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
except TypeError:
    blas = {}
print(json.dumps({
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "blas": blas.get("name"),
    "blas_version": blas.get("version"),
    "ewlgames": ewlgames.__version__,
    "package": ewlgames.__file__,
}))
"""


class HarnessError(Exception):
    """The benchmark cannot run here (no package source, child cannot start)."""


def pin_thread_env() -> dict[str, str]:
    """Set the BLAS thread variables in this process (and so in every child)."""
    pins = {v: BLAS_THREADS for v in THREAD_VARS}
    os.environ.update(pins)
    return pins


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


@dataclass
class ChildResult:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str


def run_child(argv: list[str], cwd: Path) -> ChildResult:
    """Run one child to completion; kill it if it outlives CHILD_TIMEOUT_S."""
    out_path = cwd / "child.out"
    with open(out_path, "w+", encoding="utf-8") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    return ChildResult(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=out_path.read_text(encoding="utf-8"),
    )


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "ewlgames", *args]


def probe_environment(work: Path) -> dict:
    """Interpreter, numpy and BLAS as a child sees them; fails unless the package comes from SRC."""
    if not (SRC / "ewlgames" / "__init__.py").is_file():
        raise HarnessError(f"no ewlgames package source under {SRC}")
    res = run_child([sys.executable, "-c", _PROBE], work)
    if res.code != 0:
        raise HarnessError(f"environment probe failed:\n{res.stdout}")
    info = json.loads(res.stdout.strip().splitlines()[-1])
    if not Path(info["package"]).resolve().is_relative_to(SRC):
        raise HarnessError(f"ewlgames imported from {info['package']}, not from {SRC}")
    return info


def measure_setup(work: Path, reps: int) -> list[float]:
    """Wall times of `python -m ewlgames --version` in fresh children, after one warm-up."""
    samples = []
    for k in range(reps + 1):
        res = run_child(cli_argv("--version"), work)
        if res.code != 0:
            raise HarnessError(f"`ewlgames --version` exited {res.code}:\n{res.stdout}")
        if k:
            samples.append(res.wall_s)
    return samples


def prepare(workload: Workload, seed: int, work: Path) -> None:
    """Fresh work directory holding the seeded inputs the CLI reads."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    write_inputs(workload, seed, work)


def write_inputs(workload: Workload, seed: int, work: Path) -> None:
    if workload.analyze:
        (work / ANALYZE_INPUT).write_text(analyze_records_csv(seed), encoding="utf-8")
    else:
        shipped = SHIPPED_CATALOGUE.read_text(encoding="utf-8")
        (work / CATALOGUE).write_text(catalogue_text(shipped, seed), encoding="utf-8")


def clear_outputs(workload: Workload, work: Path) -> None:
    for name in workload.outputs() + workload.svgs():
        (work / name).unlink(missing_ok=True)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}


def _games(work: Path, names: tuple[str, ...]) -> list[tuple[tuple[float, ...], tuple[float, ...]]]:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(work / CATALOGUE, encoding="utf-8")
    return [
        tuple(tuple(float(x) for x in parser[n][key].split(",")) for key in ("payoff_a", "payoff_b"))
        for n in names
    ]


@dataclass
class Verdict:
    count: int = 0
    digest: str = ""
    fingerprint: str = ""
    problems: list[str] = field(default_factory=list)


def fingerprint(workload: Workload, work: Path) -> str:
    """sha256 over the exact bytes of every file one operation writes."""
    h = hashlib.sha256()
    for name in workload.outputs() + workload.svgs():
        path = work / name
        h.update(name.encode() + (path.read_bytes() if path.is_file() else b"<missing>"))
    return h.hexdigest()


def verify(workload: Workload, work: Path, seed: int, *, deep: bool) -> Verdict:
    """Check one operation's outputs in `work`.

    Records must be ordered and in range. With `deep`, a sample of the
    equilibria also passes the pure-Python deviation check, and analysis
    files must equal what the benchmark derives from its own input.
    """
    v = Verdict(fingerprint=fingerprint(workload, work))
    for name in workload.outputs():
        if not (work / name).is_file():
            v.problems.append(f"{name} missing")
    if v.problems:
        return v
    for name in workload.svgs():
        v.problems += checks.svg_problems(work / name)

    if workload.analyze:
        written = {}
        for part, name in zip(ANALYSIS_PARTS, workload.outputs()):
            header, written[part] = checks.read_rows(work / name)
            if header != ANALYSIS_COLUMNS[part]:
                v.problems.append(f"{name} has header {header}")
        if deep:
            expected = checks.analyze_expected(
                (work / ANALYZE_INPUT).read_text(encoding="utf-8"), float(GAMMA_SLICE), BIN_WIDTH
            )
            for part, name in zip(ANALYSIS_PARTS, workload.outputs()):
                if not checks.rows_match(written[part], expected[part]):
                    v.problems.append(f"{name} differs from the expected {part}")
        v.count = len(written["theta_scatter"])
        v.digest = checks.rows_digest(written)
        if v.count != workload.points:
            v.problems.append(f"{v.count} rows analysed, expected {workload.points}")
    else:
        records = checks.read_records(work / workload.out)
        v.count = len(records)
        v.digest = checks.records_digest(records)
        v.problems += checks.structure_problems(records, workload.grid_size)
        if deep:
            games = _games(work, workload.games)
            candidates = checks.candidate_strategies(workload.step_values)
            rng = random.Random(seed)
            for r in checks.sample_by_point(records, DEVIATION_SAMPLES, rng):
                v.problems += [f"{r.indices} at gamma {r.gamma:.6g}: {msg}"
                               for msg in checks.equilibrium_problems(r, games, candidates)]

    return v


def reference_problems(workload: Workload, v: Verdict) -> list[str]:
    """Seed-0 outputs must match the record count and digest in reference.json."""
    ref = load_reference().get(workload.name)
    if ref is None:
        return ["no seed-0 reference recorded"]
    if (v.count, v.digest) != (ref["records"], ref["digest"]):
        return [
            f"seed-0 output ({v.count} records, {v.digest[:12]}) differs from the reference "
            f"({ref['records']} records, {ref['digest'][:12]})"
        ]
    return []
