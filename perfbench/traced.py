"""Traced, in-process mirror of the CLI pipeline for each workload.

It calls the package's public functions in the order the CLI does and
records a span around every call into a layer, plus the counts each
layer's metrics need. Counting work runs outside the layer spans, so it
shows up as unattributed time, not as layer time.

Caveat: this mirrors today's CLI through public functions. A change
that batches work inside gamma_sweep/bayes_sweep shows its gain in the
untraced run_s, but not per layer, until spans move into the program.
"""
from __future__ import annotations

import math
from pathlib import Path

import ewlgames as ew
from ewlgames.cli import parse_angle, parse_steps
from ewlgames.output import read_two_player_csv, write_records_csv, write_records_json, write_rows_csv
from ewlgames.svgplot import Figure

from .checks import multiples
from .spans import Tracer
from .workloads import ANALYSIS_COLUMNS, ANALYSIS_PARTS, ANALYZE_INPUT, BIN_WIDTH, CATALOGUE, GAMMA_SLICE, Workload

EPSILON = ew.DEFAULT_EPSILON


def run_pipeline(workload: Workload, work: Path, tracer: Tracer) -> None:
    """Run one operation of `workload` in `work` under a root span named `run`."""
    with tracer.span("run"):
        if workload.analyze:
            _analyze(workload, work, tracer)
        elif workload.bayes:
            _bayes(workload, work, tracer)
        else:
            _two_player(workload, work, tracer)


def _games(workload: Workload, work: Path, tracer: Tracer):
    with tracer.span("catalogue"):
        catalogue = ew.load_catalogue(work / CATALOGUE)
        return [catalogue.get(name) for name in workload.games]


def _grid(workload: Workload, tracer: Tracer):
    steps = parse_steps(workload.steps)
    with tracer.span("grid"):
        grid = ew.build_grid(steps)
    candidates = (
        len(multiples(steps.d_theta, math.pi))
        * len(multiples(steps.d_phi, 2 * math.pi))
        * len(multiples(steps.d_alpha, 2 * math.pi))
    )
    tracer.count("grid.candidates", candidates)
    tracer.count("grid.strategies", len(grid))
    return grid


def _kernel(tracer: Tracer, game, grid, gamma):
    with tracer.span("kernel"):
        tensor = ew.payoff_tensor(game, grid, gamma)
    n = len(grid)
    tracer.count("kernel.calls")
    tracer.count("kernel.pairs", n * n)
    tracer.count("kernel.bytes_out", 16 * n * n)  # two float64 tables, computed not measured
    return tensor


def _best_sets(payoff_b):
    """Row mask of B's best responses against each A strategy."""
    return payoff_b >= payoff_b.max(axis=1, keepdims=True) - EPSILON


def _record(grid, gamma, p, eq):
    return ew.SweepRecord(
        gamma=gamma, p=p, equilibrium=eq,
        strategy_params=tuple(grid.params[k] for k in eq.strategy_indices),
    )


def _write(tracer: Tracer, path: Path, rows: int, write) -> None:
    with tracer.span("output.write"):
        write()
    tracer.count("output.rows", rows)
    tracer.count("output.bytes", path.stat().st_size)


def _render(tracer: Tracer, path: Path, build) -> None:
    """Build a Figure with `build()` and render it, all inside the svgplot span."""
    with tracer.span("svgplot"):
        fig = build()
        fig.render(path)
    tracer.count("svgplot.points", sum(len(pts) for _, pts, _ in fig.scatters) + len(fig.bars))
    tracer.count("svgplot.bytes", path.stat().st_size)


def _two_player(workload: Workload, work: Path, tracer: Tracer) -> None:
    (game,) = _games(workload, work, tracer)
    grid = _grid(workload, tracer)
    if workload.gamma:
        gammas = [ew.EntanglementParam(parse_angle(workload.gamma)).gamma]
    else:
        gammas = ew.default_gamma_grid(workload.gamma_grid)
    n = len(grid)
    records = []
    for g in gammas:
        tensor = _kernel(tracer, game, grid, ew.EntanglementParam(g))
        with tracer.span("nash"):
            eqs = ew.nash_two_player(tensor, EPSILON)
        tracer.count("nash.calls")
        tracer.count("nash.cells", n * n)
        tracer.count("nash.equilibria", len(eqs))
        tracer.count("nash.br_members", int(_best_sets(tensor.payoff_b).sum()))
        tracer.count("nash.br_sets", n)
        with tracer.span("sweep"):
            records.extend(_record(grid, g, None, eq) for eq in eqs)

    out = work / workload.out
    _write(tracer, out, len(records), lambda: write_records_csv(out, records, bayes=False))
    if workload.plot:
        def build():
            fig = Figure(
                title=f"{game.name}: equilibrium payoffs vs entanglement",
                xlabel="entanglement gamma (rad)", ylabel="payoff",
            )
            fig.add_scatter("player A", sorted({(r.gamma, r.equilibrium.payoffs[0]) for r in records}))
            fig.add_scatter("player B", sorted({(r.gamma, r.equilibrium.payoffs[1]) for r in records}))
            return fig
        _render(tracer, work / workload.plot, build)


def _bayes(workload: Workload, work: Path, tracer: Tracer) -> None:
    game1, game2 = _games(workload, work, tracer)
    grid = _grid(workload, tracer)
    gammas = ew.default_gamma_grid(workload.gamma_grid)
    p_points = ew.default_p_grid(workload.p_grid)
    records = []
    for g in gammas:
        gamma = ew.EntanglementParam(g)
        t1 = _kernel(tracer, game1, grid, gamma)
        t2 = _kernel(tracer, game2, grid, gamma)
        # B-best sets do not depend on p: sum over a of |B1best(a)| * |B2best(a)|
        candidates = int((_best_sets(t1.payoff_b).sum(axis=1) * _best_sets(t2.payoff_b).sum(axis=1)).sum())
        for p in p_points:
            with tracer.span("bayes"):
                eqs = ew.nash_bayesian(t1, t2, ew.PriorProbability(p), EPSILON)
            tracer.count("bayes.calls")
            tracer.count("bayes.candidates", candidates)
            tracer.count("bayes.equilibria", len(eqs))
            with tracer.span("sweep"):
                records.extend(_record(grid, g, p, eq) for eq in eqs)

    out = work / workload.out
    metadata = {
        "command": "bayes-sweep",
        "game": game1.name,
        "game2": game2.name,
        "steps": list(grid.source_steps.astuple()),
        "gamma_points": len(gammas),
        "p_points": len(p_points),
        "epsilon": EPSILON,
        "grid_size": len(grid),
    }
    _write(tracer, out, len(records),
           lambda: write_records_json(out, records, bayes=True, metadata=metadata))
    if workload.plot:
        def build():
            fig = Figure(title=f"{game1.name} vs {game2.name}: A payoff",
                         xlabel="entanglement gamma (rad)", ylabel="payoff A")
            for p in sorted({p_points[0], p_points[len(p_points) // 2], p_points[-1]}):
                pts = sorted({(r.gamma, r.equilibrium.payoffs[0]) for r in records if r.p == p})
                fig.add_scatter(f"p={p:.3g}", pts)
            return fig
        _render(tracer, work / workload.plot, build)


def _analyze(workload: Workload, work: Path, tracer: Tracer) -> None:
    source = work / ANALYZE_INPUT
    with tracer.span("output.read"):
        loaded = read_two_player_csv(source)
    records = loaded.records
    tracer.count("output.rows", len(records))
    tracer.count("output.bytes", source.stat().st_size)

    swept = sorted({r.gamma for r in records} | set(loaded.gamma_values))
    gamma_slice = min(swept, key=lambda g: abs(g - parse_angle(GAMMA_SLICE)))
    with tracer.span("sweep"):
        theta_points = ew.scatter_theta(records)
        hist = ew.payoff_histogram(records, gamma_slice, BIN_WIDTH)
        theta_payoff = [(r.strategy_params[0].theta, r.equilibrium.payoffs[0]) for r in records]

    tables = {"theta_scatter": theta_points, "payoff_hist": hist, "theta_payoff": theta_payoff}
    for part, name in zip(ANALYSIS_PARTS, workload.outputs()):
        rows = tables[part]
        _write(tracer, work / name, len(rows),
               lambda: write_rows_csv(work / name, ANALYSIS_COLUMNS[part], rows))

    def scatter(title, xlabel, ylabel, points):
        def build():
            fig = Figure(title, xlabel, ylabel)
            fig.add_scatter("", points)
            return fig
        return build

    def bars():
        fig = Figure(f"A payoffs at gamma={gamma_slice:.4g}", "payoff A", "count")
        fig.add_bars((c, n, BIN_WIDTH) for c, n in hist)
        return fig

    plots = {
        "theta_scatter": scatter("equilibrium strategy angles", "theta_A (rad)", "theta_B (rad)", theta_points),
        "payoff_hist": bars,
        "theta_payoff": scatter("A payoff vs theta_A", "theta_A (rad)", "payoff A", theta_payoff),
    }
    for part, name in zip(ANALYSIS_PARTS, workload.svgs()):
        _render(tracer, work / name, plots[part])
