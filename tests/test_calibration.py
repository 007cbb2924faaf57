"""Calibration of the suites' verdicts: how often they fail correct code, and
whether they fail named mutants of it.

Every golden config of ``test_golden_reports`` is re-run over one block of
seeds from 10000 on, 50 of them (``CALIBRATION_SEEDS`` may set 200), and may
fail at most 3 of 50 or 5 of 200.  A statistical check at level 0.01
fails correct code on about 1% of seeds, so a verdict that fails more often
reads seed luck, not the implementation.  ``ratio-er-none-eligible`` is built
to fail: G(6, 0) has no connected draw.

Each mutant row holds a patch of the program, a config, the check that must
fail and the least number of seeds, of ten, on which it must.  The same
config without the patch must pass that check on all but at most one of the
ten, so a check that always fails cannot fill a row.
"""

import dataclasses
import os

import numpy as np
import pytest

from rspmetric import ExperimentConfig, WeightedGraph, heuristics, lab, run_suite

from test_golden_reports import CASES

SEED_COUNT = int(os.environ.get("CALIBRATION_SEEDS", "50"))
SEEDS = range(10000, 10000 + SEED_COUNT)
MAX_FAILURES = {50: 3, 200: 5}[SEED_COUNT]  # failures allowed per case, by seed count
BUILT_TO_FAIL = "ratio-er-none-eligible"


def _reports(config, seeds):
    return [run_suite(dataclasses.replace(config, seed=seed)) for seed in seeds]


@pytest.mark.parametrize("case", sorted(set(CASES) - {BUILT_TO_FAIL}))
def test_a_golden_config_fails_correct_code_on_few_seeds(case):
    reports = _reports(ExperimentConfig(**CASES[case]), SEEDS)
    failed = {r.config.seed: [c.name for c in r.checks if not c.passed]
              for r in reports if not r.passed}
    assert len(failed) <= MAX_FAILURES, failed


def test_the_config_built_to_fail_fails_on_every_seed():
    reports = _reports(ExperimentConfig(**CASES[BUILT_TO_FAIL]), SEEDS)
    assert not any(r.passed for r in reports)


def _weights_at_rate(rate):
    """Every window's weights divided by ``rate``: Exp(rate) edges in place of Exp(1)."""
    def patch(monkeypatch):
        draw = lab.weighted_graphs
        monkeypatch.setattr(lab, "weighted_graphs", lambda graphs, seeds: [
            WeightedGraph(wg.graph, wg.weights / rate) for wg in draw(graphs, seeds)])
    return patch


def _half_blind_scan(monkeypatch):
    """2-opt's first-improvement scan sees no improvement in the second half of
    its rows, so it can stop at a tour that is not a local optimum."""
    real = heuristics._row_deltas

    def half_blind(d, o, legs, i, lo, hi):
        deltas = real(d, o, legs, i, lo, hi)
        return deltas if i < len(legs) // 2 else np.zeros_like(deltas)

    monkeypatch.setattr(heuristics, "_row_deltas", half_blind)


K12 = ExperimentConfig(suite="tau", n=12, trials=200)
G16 = ExperimentConfig(suite="tau", model="er", n=16, p=0.5, trials=200)
MUTANTS = {  # name -> (patch, config, the check that must fail, least failing seeds of ten)
    "weights at rate 1.1, K_12": (_weights_at_rate(1.1), K12, "growth-exact", 9),
    "weights at rate 0.9, K_12": (_weights_at_rate(0.9), K12, "growth-exact", 9),
    "weights at rate 1.1, G(16, 1/2)": (_weights_at_rate(1.1), G16, "growth-exact", 9),
    "weights at rate 0.9, G(16, 1/2)": (_weights_at_rate(0.9), G16, "growth-exact", 9),
    "half-blind 2-opt scan": (_half_blind_scan, ExperimentConfig(suite="two-opt", n=30, trials=40),
                              "local-optimum", 9),
}


def _failing_seeds(config, check, seeds):
    return [r.config.seed for r in _reports(config, seeds)
            if not next(c for c in r.checks if c.name == check).passed]


@pytest.mark.parametrize("name", MUTANTS)
def test_a_mutant_fails_its_check(name, monkeypatch):
    patch, config, check, least = MUTANTS[name]
    seeds = SEEDS[:10]
    assert len(_failing_seeds(config, check, seeds)) <= 1
    with monkeypatch.context() as m:
        patch(m)
        assert len(_failing_seeds(config, check, seeds)) >= least
