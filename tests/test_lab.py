import json
import math
import types

import numpy as np
import pytest

from rspmetric import (
    ConfigInvalidError,
    EmptySelectionError,
    ExperimentConfig,
    Seed,
    UniformStream,
    VERTEX_CAP,
    parse_config_file,
    run_suite,
    run_trials,
    summarize,
    summarize_values,
)
from rspmetric import bounds, lab, metric as metric_module
from rspmetric.lab import TrialRecord, Z99, make_context, validate_config

import oracles


# -- summarize ------------------------------------------------------------------


def test_summarize_basic_values():
    stats = summarize_values([1.0, 2.0, 3.0])
    assert stats.mean == 2.0
    assert stats.variance == 1.0
    assert stats.count == 3
    assert stats.minimum == 1.0 and stats.maximum == 3.0
    assert stats.ci_low <= stats.mean <= stats.ci_high


def test_summarize_constant_values_degenerate_ci():
    stats = summarize_values([5.0] * 10)
    assert stats.variance == 0.0
    assert stats.ci_low == stats.ci_high == 5.0


def test_summarize_empty_selection():
    with pytest.raises(EmptySelectionError):
        summarize_values([])
    with pytest.raises(EmptySelectionError):
        summarize([TrialRecord(0, "00", {"a": 1.0})], "missing")


def test_summarize_selector_forms():
    records = [TrialRecord(i, "00", {"x": float(i)}) for i in range(5)]
    assert summarize(records, "x").mean == 2.0
    assert summarize(records + [TrialRecord(5, "00", {"y": 1.0})], "x").count == 5


def test_ci_covers_unit_exponential_mean():
    draws = UniformStream(Seed(1234)).exponential_block(10_000)
    stats = summarize_values(draws.tolist())
    assert stats.ci_low <= 1.0 <= stats.ci_high


# -- config ----------------------------------------------------------------------


def test_parse_config_file(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text(
        "# a comment\n"
        "suite=ratio\n"
        "kind=matching\n"
        "model=erdos-renyi\n"
        "n=10\n"
        "p=0.8\n"
        "trials=25\n"
        "seed=7\n"
        "delta_fractions=0,0.5\n"
        "tau_ks=2,5\n"
        "format=json\n"
        "\n"
    )
    cfg = parse_config_file(str(path))
    assert cfg.model == "er"
    assert cfg.kind == "matching"
    assert cfg.delta_fractions == (0.0, 0.5)
    assert cfg.tau_ks == (2, 5)
    assert cfg.format == "json"


def test_parse_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("suite=tau\nbogus=1\n")
    with pytest.raises(ConfigInvalidError):
        parse_config_file(str(path))
    path.write_text("n=4\n")
    with pytest.raises(ConfigInvalidError):
        parse_config_file(str(path))


@pytest.mark.parametrize(
    "key, text", [("n", "12.0"), ("tau_ks", "2,x"), ("p", "half"), ("delta_fractions", "0,1/2")]
)
def test_unparsable_config_value_names_its_key(key, text):
    with pytest.raises(ConfigInvalidError, match=f"{key!r}: cannot parse {text!r}"):
        lab.config_from_mapping({"suite": "tau", key: text})


def test_finite_nonnegative_delta_fractions_are_accepted():
    cfg = lab.config_from_mapping(
        {"suite": "structure", "n": "6", "structure_checks": "cluster", "delta_fractions": "0,1.0"}
    )
    assert cfg.delta_fractions == (0.0, 1.0)
    validate_config(cfg)


@pytest.mark.parametrize("key", ["cdf_tol", "cdf_c", "samples", "cdf_terms"])
def test_dropped_cdf_fields_are_no_config_keys(tmp_path, key):
    # cdf_tol: a CDF part's pass rule is the DKW slack of its sample count;
    # cdf_c: a common rate scale leaves the KS distance as it is; samples and
    # cdf_terms: the exponential-sum check is an RNG test, not a suite part
    path = tmp_path / "cfg.txt"
    path.write_text(f"suite=tau\n{key}=2\n")
    with pytest.raises(ConfigInvalidError, match="unknown config key"):
        parse_config_file(str(path))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(suite="nope"),
        dict(suite="ratio"),  # missing kind
        dict(suite="ratio", kind="matching", n=9),  # odd n
        dict(suite="ratio", kind="kmedian", n=8, k=8),  # k = n degenerate
        dict(suite="ratio", kind="kmedian", n=8),  # k missing
        dict(suite="ratio", kind="nn", n=40),  # beyond TSP cap
        dict(suite="tau", model="er", n=10),  # er without p
        dict(suite="tau", model="er", n=30, p=0.5),  # beyond cut cap
        dict(suite="concentration", model="complete"),
        dict(suite="concentration", model="er", n=10, p=0.5, epsilon=1.5),
        dict(suite="structure", n=9),  # sandwich needs even n
        dict(suite="structure", structure_checks=("nope",)),
        dict(suite="cdf", n=8),  # its CDF brackets run in every tau report
        dict(suite="two-opt", two_opt_init="warp"),
        dict(suite="tau", trials=0),
        dict(suite="tau", n=12, tau_ks=(13,)),
        dict(suite="tau", n=6, tau_ks=(3, 3)),  # would give two tau_3 columns
        dict(suite="tau", n=6, tau_ks=(2, 5, 2)),
        dict(suite="structure", n=6, structure_checks=("chi", "chi")),  # two chi checks
        dict(suite="ratio", kind="nn", n=6, trials=2.0),  # integer fields take integers only
        dict(suite="ratio", kind="nn", n="6"),
        dict(suite="ratio", kind="kmedian", n=6, k=2.5),
        dict(suite="tau", seed=None),
        dict(suite="structure", n=6, delta_fractions=(math.nan,)),  # a NaN radius
        dict(suite="structure", n=1, structure_checks=("chi",)),  # cut parameters need n >= 2
        dict(suite="tau", n=6, tau_ks=(0, 2)),
        dict(suite="tau", n=6, workers=0),
        dict(suite="tau", n=6, format="xml"),
        dict(suite="structure", n=1, structure_checks=("cluster",)),
        dict(suite="ratio", kind="bogus"),  # an unknown kind needs nothing, and is rejected
        dict(suite="ratio", kind="nn", n=2),  # every tour needs n >= 3
        dict(suite="two-opt", n=2),
        dict(suite="concentration", model="er", p=0.5, n=1),  # cut parameters need n >= 2
        dict(suite="tau", n=VERTEX_CAP + 1),  # every suite builds an n x n table or all pairs
        dict(suite="two-opt", n=VERTEX_CAP + 1),
        dict(suite="concentration", model="er", p=1.0, n=VERTEX_CAP + 1),
        dict(suite="structure", n=6, delta_fractions=(0.0, math.inf)),  # JSON has no Infinity
        dict(suite="structure", n=6, delta_fractions=(-0.5,)),
        dict(suite="structure", n=6, delta_fractions=(0.0, 1.7e308)),  # f * diameter overflows
        dict(suite="structure", n=6, delta_fractions=(1.5,)),  # beyond f = 1, the whole set
    ],
)
def test_validate_config_rejects(kwargs):
    with pytest.raises(ConfigInvalidError):
        validate_config(ExperimentConfig(**kwargs))


@pytest.mark.parametrize(
    "name, value",
    [
        ("p", "0.5"),
        ("epsilon", None),
        ("epsilon", "x"),
        ("delta_fractions", "0.1"),
        ("delta_fractions", 0.1),
        ("delta_fractions", (0.0, "0.5")),
        ("structure_checks", "chi"),
        ("tau_ks", (2, 2.5)),
        ("tau_ks", 3),
        ("graph_file", 3),
        ("trials", 2.0),
    ],
)
def test_validate_config_names_a_mistyped_field(name, value):
    # p="0.5" and delta_fractions="0.1" used to raise a bare TypeError, and
    # structure_checks="chi" to be read as the checks 'c', 'h' and 'i'
    base = dict(suite="structure", model="er", p=0.5, n=6)
    with pytest.raises(ConfigInvalidError, match=f"^{name} must be "):
        validate_config(ExperimentConfig(**{**base, name: value}))


@pytest.mark.parametrize(
    "numpy_items, plain_items",
    [
        (dict(tau_ks=[np.int64(2), 5]), dict(tau_ks=(2, 5))),
        (dict(epsilon=np.float32(0.5)), dict(epsilon=0.5)),
        (dict(delta_fractions=[0, np.float32(0.5)], structure_checks=["chi"]),
         dict(delta_fractions=(0, 0.5), structure_checks=("chi",))),
    ],
    ids=["tau_ks", "epsilon", "delta_fractions"],
)
def test_configs_hold_plain_python_values(numpy_items, plain_items):
    # numpy scalars used to reach the JSON report ("Object of type int64 is not
    # JSON serializable"), and a list made the config unhashable and unequal to
    # its tuple twin
    base = dict(suite="tau", n=6, trials=2, format="json")
    cfg, twin = ExperimentConfig(**base, **numpy_items), ExperimentConfig(**base, **plain_items)
    assert cfg == twin and hash(cfg) == hash(twin)
    assert [type(x) for x in cfg.delta_fractions] == [type(x) for x in twin.delta_fractions]
    validate_config(cfg)
    assert run_suite(cfg).render() == run_suite(twin).render()


def test_numpy_integers_in_a_config_become_plain_ints():
    base = dict(suite="ratio", kind="nn", n=6, trials=2)
    cfg = ExperimentConfig(**base, seed=np.int64(3), workers=np.int32(1))
    assert type(cfg.seed) is int and type(cfg.workers) is int
    validate_config(cfg)
    assert run_suite(cfg).to_json() == run_suite(ExperimentConfig(**base, seed=3)).to_json()


@pytest.mark.parametrize("suite", ["tau", "structure"])
def test_er_at_p_one_runs_beyond_the_cut_cap(monkeypatch, suite):
    # every G(30, 1) draw is K_30, whose cut parameters need no enumeration
    real, cuts = lab.cut_parameters_exact, []
    monkeypatch.setattr(lab, "cut_parameters_exact", lambda g: cuts.append(real(g)) or cuts[-1])
    cfg = ExperimentConfig(
        suite=suite, model="er", p=1.0, n=30, trials=3, seed=7, structure_checks=("chi",)
    )
    validate_config(cfg)
    report = run_suite(cfg)
    assert len(cuts) == (3 if suite == "structure" else 1)
    assert {(cut.alpha, cut.beta) for cut in cuts} == {(1.0, 1.0)}
    if suite == "structure":
        assert report.passed and report.notes["eligible"] == 3
    else:
        assert (report.notes["alpha"], report.notes["beta"]) == (1.0, 1.0)


# -- run_trials -----------------------------------------------------------------


def test_single_trial():
    cfg = ExperimentConfig(suite="tau", model="complete", n=4, trials=1, seed=3)
    records = run_trials(cfg, make_context(cfg))
    assert len(records) == 1
    assert records[0].index == 0


def test_complete_model_trials_all_connected():
    cfg = ExperimentConfig(suite="ratio", kind="matching", model="complete", n=8, trials=20, seed=5)
    records = run_trials(cfg, make_context(cfg))
    assert len(records) == 20
    assert all(r.values["connected"] == 1 for r in records)


def test_trials_are_reproducible():
    cfg = ExperimentConfig(suite="two-opt", model="complete", n=8, trials=10, seed=7)
    assert run_trials(cfg, make_context(cfg)) == run_trials(cfg, make_context(cfg))


@pytest.mark.parametrize(
    "base",
    [dict(suite="structure", model="er", p=0.7, n=8, trials=16, seed=11),
     # a frozen graph travels to the workers pickled inside the trial context
     dict(suite="structure", model="complete", n=8, trials=16, seed=11)],
    ids=["er", "complete"],
)
def test_parallel_equals_serial(base):
    serial = run_suite(ExperimentConfig(**base, workers=1))
    parallel = run_suite(ExperimentConfig(**base, workers=3))
    assert serial.to_csv() == parallel.to_csv()
    a, b = json.loads(serial.to_json()), json.loads(parallel.to_json())
    assert a["records"] == b["records"]
    assert a["summary"] == b["summary"]


BATCHED = {  # configs whose records must not depend on workers or batch size
    "structure-er": dict(suite="structure", model="er", n=10, p=0.3, trials=24, seed=4,
                         structure_checks=("chi", "cluster", "sandwich")),
    "ratio-nn": dict(suite="ratio", kind="nn", model="complete", n=9, trials=20, seed=5),
    "ratio-matching": dict(suite="ratio", kind="matching", model="er", n=10, p=0.5, trials=20,
                           seed=6),
    "tau-K12": dict(suite="tau", model="complete", n=12, trials=30, seed=7),
    "tau-K12-ks-2-6-12": dict(suite="tau", model="complete", n=12, trials=30, seed=8,
                              tau_ks=(2, 6, 12)),
    # pruned: each K_400 is certified alone
    "tau-K400": dict(suite="tau", model="complete", n=400, trials=3, seed=9, tau_ks=(1, 2, 400)),
    "tau-K400-ks-2-200-400": dict(suite="tau", model="complete", n=400, trials=3, seed=10,
                                  tau_ks=(2, 200, 400)),
    "two-opt-er": dict(suite="two-opt", model="er", n=9, p=0.5, trials=20, seed=11),
    "concentration": dict(suite="concentration", model="er", n=8, p=0.5, trials=20, seed=12),
}


@pytest.mark.parametrize("name", BATCHED)
def test_reports_equal_at_any_worker_count_and_batch_size(name, monkeypatch):
    cfg = ExperimentConfig(**BATCHED[name])
    serial = run_suite(cfg)
    if name == "structure-er":
        assert serial.notes["skipped_disconnected"] > 0
    monkeypatch.setattr(lab, "usable_cpus", lambda: 2)
    pooled = run_suite(ExperimentConfig(**BATCHED[name], workers=2))
    monkeypatch.setattr(lab, "BATCH_VERTICES", 1)  # one trial per window
    monkeypatch.setattr(metric_module, "BATCH_VERTICES", 1)  # one graph per Dijkstra call
    alone = run_suite(cfg)
    assert serial.records == pooled.records == alone.records
    assert serial.to_csv() == pooled.to_csv() == alone.to_csv()


def test_concentration_never_draws_weights(monkeypatch):
    def refuse(*args):
        raise AssertionError("concentration drew weights")

    monkeypatch.setattr(lab, "draw_weights", refuse)
    monkeypatch.setattr(lab, "usable_cpus", lambda: 2)
    for workers in (1, 2):
        cfg = ExperimentConfig(**BATCHED["concentration"], workers=workers)
        assert run_suite(cfg).notes["eligible"] > 0


def test_worker_processes_are_bounded_by_trials_and_cpus(monkeypatch):
    started = []

    class RecordingPool:  # maps in this process: no process is started
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return map(fn, items)

    monkeypatch.setattr(lab, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(lab, "usable_cpus", lambda: 8)

    def trials(**kwargs):
        cfg = ExperimentConfig(suite="ratio", kind="nn", model="complete", n=6, seed=5, **kwargs)
        return run_trials(cfg, make_context(cfg))

    pooled = trials(trials=3, workers=64)
    assert started == [3]
    assert pooled == trials(trials=3)
    trials(trials=20, workers=64)
    assert started == [3, 8]
    monkeypatch.setattr(lab, "usable_cpus", lambda: 1)  # one CPU: run serially
    trials(trials=20, workers=64)
    assert started == [3, 8]


def test_disconnected_draws_are_flagged_and_skipped():
    cfg = ExperimentConfig(suite="ratio", kind="matching", model="er", n=8, p=0.25, trials=60, seed=2)
    report = run_suite(cfg)
    skipped = report.notes["skipped_disconnected"]
    assert skipped > 0  # p=0.25 at n=8 disconnects often
    flags = [r.values["connected"] for r in report.records]
    assert flags.count(0) == skipped
    assert all("ratio" not in r.values for r in report.records if r.values["connected"] == 0)


# -- suites -----------------------------------------------------------------------


def test_tau_suite_on_k2_matches_unit_exponential():
    cfg = ExperimentConfig(suite="tau", model="complete", n=2, trials=3000, seed=13)
    report = run_suite(cfg)
    assert report.passed
    stats = report.summaries["tau_2"]
    assert stats.ci_low <= 1.0 <= stats.ci_high  # bracket is exactly (1, 1)


def test_tau_suite_on_frozen_er_uses_exact_cut_parameters():
    cfg = ExperimentConfig(
        suite="tau", model="er", n=12, p=0.8, trials=400, seed=17, tau_ks=(2, 6, 12)
    )
    report = run_suite(cfg)
    assert 0 < report.notes["alpha"] <= report.notes["beta"] <= 1
    assert report.notes["frozen_graph_index"] >= 0
    assert report.passed


def test_ratio_suite_kinds_pass_at_small_scale():
    for kind, extra in [
        ("matching", {}),
        ("nn", {}),
        ("insertion", {"rule": "cheapest"}),
        ("kmedian", {"k": 2}),
    ]:
        cfg = ExperimentConfig(
            suite="ratio", kind=kind, model="complete", n=8, trials=20, seed=23, **extra
        )
        report = run_suite(cfg)
        assert report.passed, kind
        assert report.summaries["ratio"].minimum >= 1.0 - 1e-12
        assert report.summaries["ratio"].violations == 0


def test_two_opt_suite_invariants():
    cfg = ExperimentConfig(suite="two-opt", model="complete", n=10, trials=30, seed=29)
    report = run_suite(cfg)
    assert report.passed
    names = {c.name for c in report.checks}
    assert names == {"monotone-decrease", "local-optimum"}
    assert report.summaries["iterations"].minimum >= 0


def test_fresh_two_opt_trials_need_no_cut_parameters(monkeypatch):
    def refuse(graph):
        raise AssertionError("two-opt computed cut parameters")

    monkeypatch.setattr(lab, "cut_parameters_exact", refuse)
    cfg = ExperimentConfig(suite="two-opt", model="er", n=12, p=0.5, trials=3, seed=37)
    report = run_suite(cfg)
    assert report.passed and report.notes["eligible"] == 3


def test_two_opt_suite_nn_start():
    cfg = ExperimentConfig(
        suite="two-opt", model="complete", n=9, trials=15, seed=31, two_opt_init="nn"
    )
    report = run_suite(cfg)
    assert report.passed


def test_two_opt_suite_final_tours_are_local_optima_under_tie_exchanges():
    # trial 6 ends at a tour whose one remaining exchange has delta -2.2e-16
    # and the same fsum cost: it must not count as improving
    cfg = ExperimentConfig(
        suite="two-opt", model="er", n=8, p=0.35, trials=8, seed=113, two_opt_init="nn"
    )
    report = run_suite(cfg)
    assert all(r.values["locally_optimal"] for r in report.records if r.values["connected"])
    assert {c.name: c.passed for c in report.checks}["local-optimum"]


def test_concentration_suite_p_one_is_exact():
    cfg = ExperimentConfig(
        suite="concentration", model="er", n=9, p=1.0, trials=10, seed=37, epsilon=0.3
    )
    report = run_suite(cfg)
    assert report.notes["bracket_fraction"] == 1.0
    assert report.summaries["alpha_over_p"].mean == 1.0
    assert report.passed  # informational suite: no failing checks


def test_concentration_suite_p_zero_reports_no_eligible_trials():
    cfg = ExperimentConfig(
        suite="concentration", model="er", n=6, p=0.0, trials=5, seed=41, epsilon=0.5
    )
    report = run_suite(cfg)
    assert report.notes["eligible"] == 0
    assert report.notes["bracket_fraction"] is None


def test_structure_suite_zero_violations_on_k8():
    cfg = ExperimentConfig(suite="structure", model="complete", n=8, trials=10, seed=43)
    report = run_suite(cfg)
    assert report.passed
    for name in ("chi_violations", "cluster_violations", "sandwich_violations"):
        assert report.summaries[name].violations == 0
    # delta = 0 grid point: every cluster is a singleton
    assert report.summaries["clusters_0"].mean == 8.0


def test_structure_suite_subset_of_checks():
    cfg = ExperimentConfig(
        suite="structure", model="er", p=0.9, n=9, trials=8, seed=47,
        structure_checks=("chi", "cluster"),
    )
    report = run_suite(cfg)
    assert report.passed
    assert "sandwich_violations" not in report.summaries


def test_sandwich_fails_on_a_tour_cheaper_than_two_matchings(monkeypatch):
    # on even n a tour is the union of two perfect matchings, so tsp >= 2 mm;
    # a "tour" of 1.5 mm still passes the weaker tsp >= mm
    def short_tour(metric):
        return types.SimpleNamespace(cost=1.5 * lab.exact_matching(metric).cost)

    monkeypatch.setattr(lab, "exact_tsp", short_tour)
    cfg = ExperimentConfig(suite="structure", model="complete", n=8, trials=4, seed=43,
                           structure_checks=("sandwich",))
    report = run_suite(cfg)
    assert [c.name for c in report.checks if not c.passed] == ["sandwich-invariant"]
    assert report.summaries["sandwich_violations"].violations == 4


def test_tau_suite_checks_the_cdf_of_every_tau_k():
    cfg = ExperimentConfig(suite="tau", model="complete", n=8, trials=300, seed=53)
    report = run_suite(cfg)
    cdf_checks = [c for c in report.checks if c.name.endswith("-cdf-bracket")]
    assert [c.name for c in cdf_checks] == [f"tau_{k}-cdf-bracket" for k in range(1, 9)]
    assert all(c.passed for c in cdf_checks)
    # they follow the mean brackets, pair_dist's last
    names = [c.name for c in report.checks]
    assert names.index("pair_dist-bracket") == names.index("tau_1-cdf-bracket") - 1


def test_tau_cdf_brackets_on_a_frozen_er_graph():
    cfg = ExperimentConfig(suite="tau", model="er", n=7, p=0.7, trials=20, seed=119, tau_ks=(3, 7))
    details = {c.name: c.detail for c in run_suite(cfg).checks}
    assert details["tau_3-cdf-bracket"] == "max bracket breach 0.01238 (DKW slack 0.36395)"
    assert details["tau_7-cdf-bracket"] == "max bracket breach 0.00014 (DKW slack 0.36395)"


def test_cdf_tau_1_passes_although_its_band_jumps_at_zero():
    # tau_1 = 0 always; its bracket is [1, 1] from x = 0 on and 0 left of it
    cfg = ExperimentConfig(suite="tau", model="complete", n=6, trials=40, seed=5, tau_ks=(1, 6))
    report = run_suite(cfg)
    assert report.passed
    tau_1 = next(c for c in report.checks if c.name == "tau_1-cdf-bracket")
    assert tau_1.detail.startswith("max bracket breach 0.00000 ")


def test_tau_cdf_bracket_fails_on_a_wrong_band(monkeypatch):
    real = bounds.tau_cdf_bounds
    # the bracket of distances a third as long as the metric's
    monkeypatch.setattr(bounds, "tau_cdf_bounds", lambda x, *rest: real(3.0 * x, *rest))
    cfg = ExperimentConfig(suite="tau", model="complete", n=8, trials=200, seed=59,
                           tau_ks=(2, 4, 8))
    report = run_suite(cfg)
    # the mean brackets may fail on their own, so only the CDF parts are read
    failed = [c.name for c in report.checks if not c.passed and c.name.endswith("-cdf-bracket")]
    assert failed == ["tau_2-cdf-bracket", "tau_4-cdf-bracket", "tau_8-cdf-bracket"]


@pytest.mark.parametrize("model, n, p", [("complete", 12, 1.0), ("complete", 30, 1.0),
                                         ("er", 16, 0.5), ("er", 20, 0.3)])
def test_tau_checks_equal_the_per_sample_oracle(model, n, p):
    # the array brackets of bounds give the same verdicts and details, to the
    # last printed digit, as the brackets written out one sample at a time
    for seed in range(20):
        cfg = ExperimentConfig(suite="tau", model=model, n=n, p=p, trials=60, seed=seed,
                               tau_ks=(1, 2, n // 2, n))
        report = run_suite(cfg)
        expected = oracles.tau_checks_loop(cfg, make_context(cfg), report.records,
                                           report.summaries)
        assert [(c.name, c.passed, c.detail) for c in report.checks] == \
            [(c.name, c.passed, c.detail) for c in expected]


def test_band_breach_is_exact_with_ties():
    samples = np.array([1.0, 1.0, 2.0, 2.0])
    # F_N is 0 left of 1, 1/2 on [1, 2) and 1 from 2 on
    assert lab._band_breach(samples, np.full(4, 0.5), np.full(4, 0.5)) == 0.5
    assert lab._band_breach(samples, np.array([0.0, 0.0, 0.75, 0.75]), np.ones(4)) == 0.25
    assert lab._band_breach(samples, np.zeros(4), np.array([0.25, 0.25, 1.0, 1.0])) == 0.25
    assert lab._band_breach(samples, np.zeros(4), np.ones(4)) == 0.0


# -- report rendering -------------------------------------------------------------


def test_csv_shape():
    cfg = ExperimentConfig(suite="ratio", kind="matching", model="complete", n=6, trials=4, seed=61)
    report = run_suite(cfg)
    lines = report.to_csv().strip().split("\n")
    assert lines[0].startswith("trial,seed,")
    data = [ln for ln in lines if not ln.startswith("#summary")]
    assert len(data) == 1 + 4  # header plus one row per trial
    assert lines[-1] == "#summary,result,passed=true"
    assert any(ln.startswith("#summary,ratio,count=4,") for ln in lines)


def test_json_shape():
    cfg = ExperimentConfig(
        suite="ratio", kind="matching", model="complete", n=6, trials=3, seed=67, format="json"
    )
    report = run_suite(cfg)
    payload = json.loads(report.to_json())
    assert payload["suite"] == "ratio"
    assert len(payload["records"]) == 3
    assert payload["summary"]["passed"] is True
    assert payload["config"]["n"] == 6


def test_run_with_no_connected_draw_has_only_the_connected_column():
    cfg = ExperimentConfig(
        suite="ratio", kind="matching", model="er", n=6, p=0.0, trials=3, seed=71
    )
    report = run_suite(cfg)
    assert report.columns == ("connected",)
    header, *rows = report.to_csv().split("\n")[:4]
    assert header == "trial,seed,connected"
    assert [row.split(",")[2:] for row in rows] == [["0"]] * 3


def test_disconnected_rows_leave_one_empty_cell_per_stat_column():
    cfg = ExperimentConfig(
        suite="two-opt", model="er", n=8, p=0.35, trials=8, seed=113, two_opt_init="nn"
    )
    report = run_suite(cfg)
    assert report.columns == (
        "connected", "iterations", "initial_cost", "final_cost", "strictly_decreasing",
        "locally_optimal",
    )
    rows = [line.split(",") for line in report.to_csv().split("\n")[1:9]]
    disconnected = [cells for cells in rows if cells[2] == "0"]
    assert len(disconnected) == 3
    assert all(cells[3:] == [""] * 5 for cells in disconnected)
    assert all("" not in cells for cells in rows if cells[2] == "1")


def test_report_write_to_file(tmp_path):
    out = tmp_path / "report.csv"
    cfg = ExperimentConfig(
        suite="ratio", kind="matching", model="complete", n=6, trials=3, seed=71,
        out=str(out),
    )
    report = run_suite(cfg)
    text = report.write()
    assert out.read_text() == text


def test_imported_model_uses_graph_file(tmp_path):
    from rspmetric import generate_erdos_renyi, write_graph

    g = generate_erdos_renyi(8, 0.9, Seed(73))
    path = tmp_path / "g.txt"
    write_graph(str(path), g)
    cfg = ExperimentConfig(
        suite="structure", model="imported", graph_file=str(path), n=8, trials=5, seed=79,
        structure_checks=("chi",),
    )
    report = run_suite(cfg)
    assert report.passed
    ctx = make_context(cfg)
    assert ctx.graph == g


def test_imported_complete_graph_beyond_the_cut_cap_runs(tmp_path):
    from rspmetric import complete_graph, write_graph

    path = tmp_path / "k30.txt"
    write_graph(str(path), complete_graph(30))
    cfg = ExperimentConfig(
        suite="tau", model="imported", graph_file=str(path), n=30, trials=5, seed=3,
        tau_ks=(1, 2, 30),
    )
    validate_config(cfg)
    report = run_suite(cfg)
    assert (report.notes["alpha"], report.notes["beta"]) == (1.0, 1.0)
    assert len(report.records) == 5


def test_imported_graph_beyond_the_cut_cap_fails_before_any_trial(tmp_path, monkeypatch):
    from rspmetric import Graph, SizeCapExceededError, complete_graph, write_graph

    n = lab.CUT_PARAMETER_CAP + 1
    path = tmp_path / "g.txt"
    write_graph(str(path), Graph(n, complete_graph(n).edges[1:]))  # K_n less one edge
    cfg = ExperimentConfig(suite="tau", model="imported", graph_file=str(path), n=n, trials=2)
    validate_config(cfg)
    trials = []
    monkeypatch.setattr(lab, "_trial", lambda *args: trials.append(args))
    with pytest.raises(SizeCapExceededError):
        make_context(cfg)
    with pytest.raises(SizeCapExceededError):
        run_suite(cfg)
    assert trials == []


@pytest.mark.parametrize("n", [4, 12])
def test_imported_graph_must_have_n_vertices(tmp_path, n):
    from rspmetric import complete_graph, write_graph

    path = tmp_path / "k8.txt"
    write_graph(str(path), complete_graph(8))
    cfg = ExperimentConfig(suite="tau", model="imported", graph_file=str(path), n=n, trials=2)
    with pytest.raises(ConfigInvalidError, match="8 vertices"):
        make_context(cfg)
    with pytest.raises(ConfigInvalidError, match="8 vertices"):
        run_suite(cfg)
