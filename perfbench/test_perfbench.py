"""Tests of the benchmark's own logic: deviation checker, seeded inputs, span arithmetic."""
from __future__ import annotations

import configparser
import itertools
import json
import math
from pathlib import Path

import pytest

from perfbench import checks, harness, run
from perfbench.inputs import catalogue_text
from perfbench.spans import Span, Tracer, self_times
from perfbench.workloads import WORKLOADS

COARSE = (math.pi, math.pi / 2, math.pi / 2)
PD = ((3, 0, 5, 1), (3, 5, 0, 1))
DEADLOCK = ((1, 0, 3, 2), (1, 3, 0, 2))
COOPERATE = (0.0, 0.0, 0.0)
DEFECT = (math.pi, 0.0, math.pi / 2)


def _record(gamma, p, angles, games):
    profile = [checks.strategy(*a) for a in angles]
    payoffs = checks.player_payoffs(gamma, p, games, profile)
    return checks.Record(gamma, p, tuple(range(len(angles))), tuple(angles), payoffs)


class TestDeviationCheck:
    candidates = checks.candidate_strategies(COARSE)

    def test_classical_equilibrium_passes(self):
        r = _record(0.0, None, [DEFECT, DEFECT], [PD])
        assert r.payoffs == pytest.approx((1.0, 1.0))
        assert checks.equilibrium_problems(r, [PD], self.candidates) == []

    @pytest.mark.parametrize("gamma", [0.0, 0.3])
    def test_planted_non_equilibrium_rejected(self, gamma):
        r = _record(gamma, None, [COOPERATE, COOPERATE], [PD])
        problems = checks.equilibrium_problems(r, [PD], self.candidates)
        assert any("player 0 gains" in p for p in problems)
        assert any("player 1 gains" in p for p in problems)

    def test_wrong_stated_payoff_rejected(self):
        r = _record(0.0, None, [DEFECT, DEFECT], [PD])
        bad = checks.Record(r.gamma, r.p, r.indices, r.angles, (r.payoffs[0] + 1e-6, r.payoffs[1]))
        assert any("payoff" in p for p in checks.equilibrium_problems(bad, [PD], self.candidates))

    def test_bayesian_planted_non_equilibrium_rejected(self):
        games = [PD, DEADLOCK]
        good = _record(0.0, 0.5, [DEFECT, DEFECT, DEFECT], games)
        assert checks.equilibrium_problems(good, games, self.candidates) == []
        bad = _record(0.0, 0.5, [DEFECT, COOPERATE, DEFECT], games)
        assert any("player 1 gains" in p for p in checks.equilibrium_problems(bad, games, self.candidates))

    def test_maximal_entanglement_bell_state(self):
        probs = checks.outcome_probs(math.pi / 2, checks.strategy(*COOPERATE), checks.strategy(*COOPERATE))
        assert probs == pytest.approx((1.0, 0.0, 0.0, 0.0))
        probs = checks.outcome_probs(math.pi / 2, checks.strategy(*DEFECT), checks.strategy(*COOPERATE))
        assert probs == pytest.approx((0.0, 0.0, 1.0, 0.0))


def _games(text: str) -> dict[str, list[list[float]]]:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    return {
        name: [[float(x) for x in parser[name][k].split(",")] for k in ("payoff_a", "payoff_b")]
        for name in parser.sections()
    }


class TestSeededCatalogue:
    shipped = harness.SHIPPED_CATALOGUE.read_text(encoding="utf-8")

    def test_seed_zero_is_the_shipped_file(self):
        assert catalogue_text(self.shipped, 0) == self.shipped

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_other_seeds_keep_each_players_ranking(self, seed):
        original, remapped = _games(self.shipped), _games(catalogue_text(self.shipped, seed))
        assert remapped.keys() == original.keys()
        for name in original:
            for old, new in zip(original[name], remapped[name]):
                assert all(v == int(v) and 0 <= v <= 9 for v in new)
                for i, j in itertools.combinations(range(4), 2):
                    assert (old[i] > old[j]) - (old[i] < old[j]) == (new[i] > new[j]) - (new[i] < new[j])

    def test_seeds_differ_and_repeat(self):
        assert catalogue_text(self.shipped, 1) == catalogue_text(self.shipped, 1)
        assert catalogue_text(self.shipped, 1) != catalogue_text(self.shipped, 2)


class TestSelfTime:
    def test_nested_and_overlapping_children(self):
        spans = [
            Span(0, "run", 0.0, 10.0, None, "r"),
            Span(1, "kernel", 1.0, 4.0, 0, "r"),
            Span(2, "nash", 3.0, 6.0, 0, "r"),  # overlaps its sibling
            Span(3, "grid", 2.0, 3.0, 1, "r"),
            Span(4, "sweep", 9.0, 12.0, 0, "r"),  # runs past its parent
        ]
        assert self_times(spans) == pytest.approx({0: 10 - 5 - 1, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0})

    def test_tracer_links_parents_and_run_id(self):
        ticks = iter(range(100))
        tracer = Tracer("run-7", clock=lambda: float(next(ticks)))
        with tracer.span("run"):
            with tracer.span("kernel"):
                pass
            with tracer.span("output.write"):
                pass
        root, kernel, write = tracer.spans
        assert (root.parent, kernel.parent, write.parent) == (None, 0, 0)
        assert {s.run_id for s in tracer.spans} == {"run-7"}
        assert write.layer == "output"
        assert self_times(tracer.spans) == {0: 5.0 - 2.0, 1: 1.0, 2: 1.0}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
