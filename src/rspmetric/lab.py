"""Seeded Monte Carlo experiment runner, statistics, and verification suites.

A suite turns a flat :class:`ExperimentConfig` into a :class:`Report`: one
:class:`TrialRecord` per trial (each a pure function of config and trial
index, so results are identical at any degree of parallelism), summary
statistics with 99% confidence intervals, and named pass/fail checks.
Deterministic invariants (cut bounds, cluster diameters, monotone cost
decrease, heuristic >= exact) must hold with zero violations; statistical
statements pass when the predicted bracket intersects the confidence
interval, never on point estimates.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import bounds
from .errors import ConfigInvalidError, EmptySelectionError
from .graphs import (
    CUT_PARAMETER_CAP,
    CutParameters,
    Graph,
    complete_graph,
    cut_parameters_exact,
    draw_weights,
    generate_erdos_renyi,
    is_connected,
    read_graph,
    sum_lightest_edges,
)
from .heuristics import (
    KMEDIAN_CAP,
    MATCHING_CAP,
    TSP_CAP,
    exact_kmedian,
    exact_matching,
    exact_tsp,
    first_k_centers,
    greedy_matching,
    has_improving_exchange,
    insertion_tour,
    nearest_neighbor_tour,
    trivial_kmedian,
    two_opt,
)
from .metric import build_metric, cluster_partition, diameter, tau_profile
from .rng import Seed, UniformStream

Z99 = 2.5758293035489004  # two-sided 99% normal quantile
FLOAT_SLACK = 1e-12  # absolute slack for comparisons between float sums

SUITES = ("tau", "ratio", "two-opt", "concentration", "structure", "cdf")
RATIO_KINDS = ("matching", "nn", "insertion", "kmedian")
MODELS = ("complete", "er", "imported")
INSERTION_RULES = ("nearest", "farthest", "cheapest", "random")


# ---------------------------------------------------------------------------
# statistics


@dataclass(frozen=True)
class SummaryStats:
    """Mean, sample variance, and a 99% normal-approximation CI."""

    count: int
    mean: float
    variance: float
    ci_low: float
    ci_high: float
    minimum: float
    maximum: float
    violations: int = 0


@dataclass(frozen=True)
class TrialRecord:
    """One trial's statistics; reproducible from (config, index) alone."""

    index: int
    seed: str
    values: dict


def summarize_values(values, violations: int = 0) -> SummaryStats:
    vals = [float(v) for v in values]
    if not vals:
        raise EmptySelectionError("no values to summarize")
    n = len(vals)
    mean = math.fsum(vals) / n
    if n > 1:
        variance = math.fsum((v - mean) ** 2 for v in vals) / (n - 1)
    else:
        variance = 0.0
    half = Z99 * math.sqrt(variance / n)
    return SummaryStats(
        count=n,
        mean=mean,
        variance=variance,
        ci_low=mean - half,
        ci_high=mean + half,
        minimum=min(vals),
        maximum=max(vals),
        violations=violations,
    )


def summarize(records, selector, violations: int = 0) -> SummaryStats:
    """Summarize one statistic over trial records.

    ``selector`` is a value key or a callable on records; records that do not
    carry the statistic are skipped.
    """
    if callable(selector):
        vals = [selector(r) for r in records]
        vals = [v for v in vals if v is not None]
    else:
        vals = [r.values[selector] for r in records if selector in r.values]
    return summarize_values(vals, violations)


def _bracket_meets_ci(lo: float, hi: float, stats: SummaryStats) -> bool:
    return lo <= stats.ci_high and hi >= stats.ci_low


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment description; mirrors the key=value config file."""

    suite: str
    model: str = "complete"
    n: int = 12
    p: float | None = None
    trials: int = 200
    seed: int = 0
    workers: int = 1
    kind: str | None = None
    rule: str = "nearest"
    k: int | None = None
    start: int = 1
    epsilon: float = 0.5
    delta_fractions: tuple[float, ...] = (0.0, 0.125, 0.25, 0.5)
    two_opt_init: str = "identity"
    graph_file: str | None = None
    tsp_cap: int = TSP_CAP
    matching_cap: int = MATCHING_CAP
    kmedian_cap: int = KMEDIAN_CAP
    cutparam_cap: int = CUT_PARAMETER_CAP
    cdf_c: float = 1.0
    cdf_terms: int = 1
    samples: int = 100_000
    cdf_tol: float = 0.02
    structure_checks: tuple[str, ...] = ("chi", "cluster", "sandwich")
    tau_ks: tuple[int, ...] = ()
    format: str = "csv"
    out: str | None = None


_INT_KEYS = {
    "n", "trials", "seed", "workers", "k", "start", "tsp_cap", "matching_cap",
    "kmedian_cap", "cutparam_cap", "cdf_terms", "samples",
}
_FLOAT_KEYS = {"p", "epsilon", "cdf_c", "cdf_tol"}
_INT_TUPLE_KEYS = {"tau_ks"}
_FLOAT_TUPLE_KEYS = {"delta_fractions"}
_STR_TUPLE_KEYS = {"structure_checks"}


def parse_config_file(path: str) -> ExperimentConfig:
    """Parse a flat `key=value` file (blank lines and # comments ignored)."""
    raw: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigInvalidError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            raw[key.strip()] = value.strip()
    return config_from_mapping(raw)


def config_from_mapping(raw: dict) -> ExperimentConfig:
    valid = set(ExperimentConfig.__dataclass_fields__)
    kwargs: dict = {}
    for key, value in raw.items():
        if key not in valid:
            raise ConfigInvalidError(f"unknown config key {key!r}")
        if isinstance(value, str):
            value = value.strip()
            if value == "":
                continue
            if key in _INT_KEYS:
                value = int(value)
            elif key in _FLOAT_KEYS:
                value = float(value)
            elif key in _INT_TUPLE_KEYS:
                value = tuple(int(x) for x in value.split(",") if x.strip())
            elif key in _FLOAT_TUPLE_KEYS:
                value = tuple(float(x) for x in value.split(",") if x.strip())
            elif key in _STR_TUPLE_KEYS:
                value = tuple(x.strip() for x in value.split(",") if x.strip())
        kwargs[key] = value
    if kwargs.get("model") == "erdos-renyi":
        kwargs["model"] = "er"
    if "suite" not in kwargs:
        raise ConfigInvalidError("config must set `suite`")
    return ExperimentConfig(**kwargs)


def validate_config(config: ExperimentConfig) -> None:
    problems: list[str] = []
    c = config
    if c.suite not in SUITES:
        problems.append(f"suite must be one of {SUITES}")
    if c.model not in MODELS:
        problems.append(f"model must be one of {MODELS}")
    if c.trials < 1:
        problems.append("trials must be >= 1")
    if c.n < 1:
        problems.append("n must be >= 1")
    if c.workers < 1:
        problems.append("workers must be >= 1")
    if not 0 <= c.seed <= (1 << 64) - 1:
        problems.append("seed must be a 64-bit unsigned integer")
    if c.format not in ("csv", "json"):
        problems.append("format must be csv or json")
    if c.model == "er" and (c.p is None or not 0.0 <= c.p <= 1.0):
        problems.append("er model needs p in [0, 1]")
    if c.model == "imported" and not c.graph_file:
        problems.append("imported model needs graph_file")
    if any(f < 0 for f in c.delta_fractions):
        problems.append("delta_fractions must be nonnegative")
    if not 1 <= c.start <= c.n:
        problems.append("start must lie in 1..n")

    for key, ceiling in (
        ("tsp_cap", TSP_CAP), ("matching_cap", MATCHING_CAP), ("cutparam_cap", CUT_PARAMETER_CAP)
    ):
        if getattr(c, key) > ceiling:
            problems.append(f"{key} may not exceed {ceiling}")

    needs_exact_cut = c.suite in ("tau", "concentration", "cdf") or (
        c.suite == "structure" and ({"chi", "cluster"} & set(c.structure_checks))
    )
    if needs_exact_cut and c.model != "complete" and c.n > c.cutparam_cap:
        problems.append(f"suite {c.suite} needs exact cut parameters: n <= {c.cutparam_cap}")

    if c.suite == "ratio":
        if c.kind not in RATIO_KINDS:
            problems.append(f"ratio suite needs kind in {RATIO_KINDS}")
        elif c.kind == "matching":
            if c.n % 2:
                problems.append("matching needs even n")
            if c.n > c.matching_cap:
                problems.append(f"matching baseline capped at n <= {c.matching_cap}")
        elif c.kind in ("nn", "insertion"):
            if c.n < 3:
                problems.append("tours need n >= 3")
            if c.n > c.tsp_cap:
                problems.append(f"TSP baseline capped at n <= {c.tsp_cap}")
            if c.kind == "insertion" and c.rule not in INSERTION_RULES:
                problems.append(f"rule must be one of {INSERTION_RULES}")
        elif c.kind == "kmedian":
            if c.k is None or not 1 <= c.k <= c.n - 1:
                problems.append("kmedian needs 1 <= k <= n-1 (k = n is degenerate)")
            elif math.comb(c.n, c.k) > c.kmedian_cap:
                problems.append(f"C(n,k) exceeds kmedian cap {c.kmedian_cap}")
    if c.suite == "two-opt":
        if c.two_opt_init not in ("identity", "nn"):
            problems.append("two_opt_init must be identity or nn")
        if c.n < 3:
            problems.append("two-opt suite needs n >= 3")
    if c.suite == "concentration":
        if c.model != "er":
            problems.append("concentration suite needs the er model")
        if not 0 < c.epsilon < 1:
            problems.append("epsilon must lie in (0, 1)")
        if c.n > c.cutparam_cap:
            problems.append(f"concentration needs n <= {c.cutparam_cap}")
        if c.n < 2:
            problems.append("concentration needs n >= 2")
    if c.suite == "structure":
        unknown = set(c.structure_checks) - {"chi", "cluster", "sandwich"}
        if unknown:
            problems.append(f"unknown structure checks: {sorted(unknown)}")
        if not c.structure_checks:
            problems.append("structure suite needs at least one check")
        if "sandwich" in c.structure_checks:
            if c.n % 2:
                problems.append("sandwich check needs even n")
            if c.n > min(c.tsp_cap, c.matching_cap) or c.n < 4:
                problems.append("sandwich check needs 4 <= n <= min(tsp_cap, matching_cap)")
    if c.suite == "cdf":
        if c.cdf_terms < 1:
            problems.append("cdf_terms must be >= 1")
        if c.cdf_c <= 0:
            problems.append("cdf_c must be positive")
        if c.samples < 1:
            problems.append("samples must be >= 1")
        if any(not 1 <= k <= c.n for k in c.tau_ks):
            problems.append("tau_ks must lie in 1..n")
    if c.suite == "tau":
        if any(not 1 <= k <= c.n for k in c.tau_ks):
            problems.append("tau_ks must lie in 1..n")
    if c.suite in ("tau", "cdf") and c.n < 2:
        problems.append(f"suite {c.suite} needs n >= 2")

    if problems:
        raise ConfigInvalidError("; ".join(problems))


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class Report:
    suite: str
    config: ExperimentConfig
    columns: tuple[str, ...]
    records: list[TrialRecord]
    summaries: dict[str, SummaryStats]
    checks: list[CheckResult] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_csv(self) -> str:
        lines = [",".join(("trial", "seed") + self.columns)]
        for r in self.records:
            cells = [str(r.index), r.seed]
            cells += [_fmt_cell(r.values.get(c)) for c in self.columns]
            lines.append(",".join(cells))
        for name in sorted(self.summaries):
            s = self.summaries[name]
            lines.append(
                f"#summary,{name},count={s.count},mean={s.mean!r},variance={s.variance!r},"
                f"ci_low={s.ci_low!r},ci_high={s.ci_high!r},min={s.minimum!r},"
                f"max={s.maximum!r},violations={s.violations}"
            )
        for check in self.checks:
            lines.append(
                f"#summary,check:{check.name},passed={str(check.passed).lower()},"
                f"detail={check.detail}"
            )
        for key in sorted(self.notes):
            lines.append(f"#summary,note:{key},value={_fmt_cell(self.notes[key])}")
        lines.append(f"#summary,result,passed={str(self.passed).lower()}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "config": asdict(self.config),
            "records": [
                {"trial": r.index, "seed": r.seed, "values": r.values} for r in self.records
            ],
            "summary": {
                "stats": {k: asdict(v) for k, v in self.summaries.items()},
                "checks": [asdict(c) for c in self.checks],
                "notes": self.notes,
                "passed": self.passed,
            },
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def render(self) -> str:
        return self.to_json() if self.config.format == "json" else self.to_csv()

    def write(self) -> str:
        text = self.render()
        if self.config.out:
            with open(self.config.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        return text


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# shared experiment context


@dataclass(frozen=True)
class _Context:
    """Objects shared by every trial (frozen graph, its exact cut parameters)."""

    graph: Graph | None = None
    cut: CutParameters | None = None
    frozen_index: int = -1


def _is_complete(graph: Graph) -> bool:
    return graph.m == graph.n * (graph.n - 1) // 2


def _cut_of(graph: Graph, cap: int) -> CutParameters:
    # the complete graph's parameters are known exactly; skip the enumeration
    if _is_complete(graph):
        return CutParameters(1.0, 1.0)
    return cut_parameters_exact(graph, cap)


def _frozen_graph(config: ExperimentConfig) -> tuple[Graph, int]:
    if config.model == "complete":
        return complete_graph(config.n), -1
    if config.model == "imported":
        loaded = read_graph(config.graph_file)
        graph = loaded.graph if hasattr(loaded, "graph") else loaded
        if not is_connected(graph):
            raise ConfigInvalidError("imported graph is disconnected")
        return graph, -1
    master = Seed(config.seed)
    for j in range(10_000):
        graph = generate_erdos_renyi(config.n, config.p, master.child(j, "frozen-graph"))
        if is_connected(graph):
            return graph, j
    raise ConfigInvalidError("no connected draw found in 10000 attempts; p too small?")


def make_context(config: ExperimentConfig) -> _Context:
    suite = config.suite
    if suite in ("tau", "cdf"):
        graph, idx = _frozen_graph(config)
        return _Context(graph=graph, cut=_cut_of(graph, config.cutparam_cap), frozen_index=idx)
    if suite == "concentration":
        return _Context()
    if config.model == "er":
        return _Context()  # fresh draw per trial
    graph, idx = _frozen_graph(config)
    cut = None
    if suite == "structure" or (suite == "two-opt" and (
        _is_complete(graph) or config.n <= config.cutparam_cap
    )):
        cut = _cut_of(graph, config.cutparam_cap)
    return _Context(graph=graph, cut=cut, frozen_index=idx)


def _trial_graph(config: ExperimentConfig, ctx: _Context, trial_seed: Seed) -> Graph:
    if ctx.graph is not None:
        return ctx.graph
    return generate_erdos_renyi(config.n, config.p, trial_seed.child(0, "graph"))


def _random_pair(stream: UniformStream, n: int) -> tuple[int, int]:
    a = stream.integer_below(n)
    b = stream.integer_below(n - 1)
    if b >= a:
        b += 1
    return a + 1, b + 1


# ---------------------------------------------------------------------------
# per-trial functions (module level so process pools can pickle them)


def _trial_tau(config: ExperimentConfig, ctx: _Context, i: int) -> TrialRecord:
    ts = Seed(config.seed).child(i, "trial")
    wg = draw_weights(ctx.graph, ts.child(0, "weights"))
    metric = build_metric(wg)
    profile = tau_profile(metric, ctx.graph, 1)
    ks = config.tau_ks or tuple(range(1, config.n + 1))
    values = {f"tau_{k}": profile.tau(k) for k in ks}
    u, v = _random_pair(UniformStream(ts.child(0, "aux")), config.n)
    values["pair_dist"] = metric.d(u, v)
    return TrialRecord(index=i, seed=ts.hex(), values=values)


def _trial_ratio(config: ExperimentConfig, ctx: _Context, i: int) -> TrialRecord:
    ts = Seed(config.seed).child(i, "trial")
    graph = _trial_graph(config, ctx, ts)
    if not is_connected(graph):
        return TrialRecord(index=i, seed=ts.hex(), values={"connected": 0})
    wg = draw_weights(graph, ts.child(0, "weights"))
    metric = build_metric(wg)
    if config.kind == "matching":
        heur = greedy_matching(metric).cost
        exact = exact_matching(metric, config.matching_cap).cost
    elif config.kind == "nn":
        heur = nearest_neighbor_tour(metric, config.start).cost
        exact = exact_tsp(metric, config.tsp_cap).cost
    elif config.kind == "insertion":
        heur = insertion_tour(metric, config.rule, ts.child(0, "rule")).cost
        exact = exact_tsp(metric, config.tsp_cap).cost
    else:  # kmedian
        heur = trivial_kmedian(metric, first_k_centers(config.k)).cost
        exact = exact_kmedian(metric, config.k, config.kmedian_cap).cost
    values = {"connected": 1, "heuristic": heur, "exact": exact, "ratio": heur / exact}
    return TrialRecord(index=i, seed=ts.hex(), values=values)


def _trial_two_opt(config: ExperimentConfig, ctx: _Context, i: int) -> TrialRecord:
    ts = Seed(config.seed).child(i, "trial")
    graph = _trial_graph(config, ctx, ts)
    if not is_connected(graph):
        return TrialRecord(index=i, seed=ts.hex(), values={"connected": 0})
    wg = draw_weights(graph, ts.child(0, "weights"))
    metric = build_metric(wg)
    if config.two_opt_init == "nn":
        initial = nearest_neighbor_tour(metric, config.start)
    else:
        initial = None
    trace = two_opt(metric, initial)
    decreasing = all(b < a for a, b in zip(trace.costs, trace.costs[1:]))
    local_opt = not has_improving_exchange(metric, trace.final)
    values = {
        "connected": 1,
        "iterations": trace.iterations,
        "initial_cost": trace.costs[0],
        "final_cost": trace.final.cost,
        "strictly_decreasing": int(decreasing),
        "locally_optimal": int(local_opt),
    }
    cut = ctx.cut
    if cut is None and config.n <= config.cutparam_cap:
        cut = _cut_of(graph, config.cutparam_cap)
    if cut is not None:
        n = config.n
        scale = n**8 * math.log(n) ** 3 * cut.beta / cut.alpha
        values["iteration_scale"] = scale
        values["within_scale"] = int(trace.iterations <= scale)
    return TrialRecord(index=i, seed=ts.hex(), values=values)


def _trial_concentration(config: ExperimentConfig, ctx: _Context, i: int) -> TrialRecord:
    ts = Seed(config.seed).child(i, "trial")
    graph = generate_erdos_renyi(config.n, config.p, ts.child(0, "graph"))
    if not is_connected(graph):
        return TrialRecord(index=i, seed=ts.hex(), values={"connected": 0})
    cut = cut_parameters_exact(graph, config.cutparam_cap)
    p, eps = config.p, config.epsilon
    within = (1 - eps) * p <= cut.alpha and cut.beta <= (1 + eps) * p
    values = {
        "connected": 1,
        "alpha": cut.alpha,
        "beta": cut.beta,
        "alpha_over_p": cut.alpha / p,
        "beta_over_p": cut.beta / p,
        "within_bracket": int(within),
    }
    return TrialRecord(index=i, seed=ts.hex(), values=values)


def _trial_structure(config: ExperimentConfig, ctx: _Context, i: int) -> TrialRecord:
    ts = Seed(config.seed).child(i, "trial")
    graph = _trial_graph(config, ctx, ts)
    if not is_connected(graph):
        return TrialRecord(index=i, seed=ts.hex(), values={"connected": 0})
    wg = draw_weights(graph, ts.child(0, "weights"))
    metric = build_metric(wg)
    n = graph.n
    values: dict = {"connected": 1}
    cut = ctx.cut
    if cut is None and ({"chi", "cluster"} & set(config.structure_checks)):
        cut = _cut_of(graph, config.cutparam_cap)

    if "chi" in config.structure_checks:
        # compare the same floating ratios the enumeration produced, so the
        # containment alpha <= chi/mu <= beta is exact, no tolerance needed
        bad = 0
        for v in range(1, n + 1):
            profile = tau_profile(metric, graph, v)
            for k in range(1, n):
                ratio = profile.chis[k - 1] / (k * (n - k))
                if ratio < cut.alpha or ratio > cut.beta:
                    bad += 1
        values["chi_violations"] = bad

    if "cluster" in config.structure_checks:
        dmax = diameter(metric)
        bad = 0
        for gi, f in enumerate(config.delta_fractions):
            delta = f * dmax
            part = cluster_partition(metric, delta, cut.alpha)
            bad += sum(1 for dia in part.diameters if dia > 4 * delta + FLOAT_SLACK)
            values[f"delta_{gi}"] = delta
            values[f"clusters_{gi}"] = len(part.clusters)
            values[f"scale_{gi}"] = n / part.s_delta
        values["cluster_violations"] = bad

    if "sandwich" in config.structure_checks:
        s_half = sum_lightest_edges(wg, n // 2)
        mm = exact_matching(metric, config.matching_cap).cost
        tsp = exact_tsp(metric, config.tsp_cap).cost
        bad = int(tsp < mm - FLOAT_SLACK) + int(mm < s_half - FLOAT_SLACK)
        values.update(
            {"s_half": s_half, "mm": mm, "tsp": tsp, "sandwich_violations": bad}
        )
    return TrialRecord(index=i, seed=ts.hex(), values=values)


def _default_cdf_ks(n: int) -> tuple[int, ...]:
    return tuple(sorted({min(2, n), (n + 1) // 2, n} - {1})) or (1,)


def _trial_cdf(config: ExperimentConfig, ctx: _Context, i: int) -> TrialRecord:
    ts = Seed(config.seed).child(i, "trial")
    wg = draw_weights(ctx.graph, ts.child(0, "weights"))
    metric = build_metric(wg)
    profile = tau_profile(metric, ctx.graph, 1)
    ks = config.tau_ks or _default_cdf_ks(config.n)
    values = {f"tau_{k}": profile.tau(k) for k in ks}
    return TrialRecord(index=i, seed=ts.hex(), values=values)


_TRIAL_FNS = {
    "tau": _trial_tau,
    "ratio": _trial_ratio,
    "two-opt": _trial_two_opt,
    "concentration": _trial_concentration,
    "structure": _trial_structure,
    "cdf": _trial_cdf,
}


def run_trials(config: ExperimentConfig, context: _Context | None = None) -> list[TrialRecord]:
    """Run all trials; records are identical for any worker count."""
    validate_config(config)
    ctx = context if context is not None else make_context(config)
    fn = _TRIAL_FNS[config.suite]
    if config.workers <= 1:
        records = [fn(config, ctx, i) for i in range(config.trials)]
    else:
        chunk = max(1, config.trials // (4 * config.workers))
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            records = list(pool.map(partial(fn, config, ctx), range(config.trials), chunksize=chunk))
    records.sort(key=lambda r: r.index)
    return records


# ---------------------------------------------------------------------------
# suites


def suite_tau_bounds(config: ExperimentConfig) -> Report:
    """Empirical mean distances to the k-th closest vertex versus the harmonic brackets."""
    validate_config(config)
    ctx = make_context(config)
    records = run_trials(config, ctx)
    n = config.n
    alpha, beta = ctx.cut.alpha, ctx.cut.beta
    ks = config.tau_ks or tuple(range(1, n + 1))
    columns = tuple(f"tau_{k}" for k in ks) + ("pair_dist",)
    summaries: dict[str, SummaryStats] = {}
    checks: list[CheckResult] = []
    for k in ks:
        stats = summarize(records, f"tau_{k}")
        summaries[f"tau_{k}"] = stats
        lo, hi = bounds.tau_expectation_bounds(n, k, alpha, beta)
        ok = _bracket_meets_ci(lo, hi, stats)
        checks.append(
            CheckResult(
                name=f"tau_{k}-bracket",
                passed=ok,
                detail=f"bracket [{lo:.6g}; {hi:.6g}] vs CI [{stats.ci_low:.6g}; {stats.ci_high:.6g}]",
            )
        )
    stats = summarize(records, "pair_dist")
    summaries["pair_dist"] = stats
    lo = bounds.harmonic(n - 1) / (beta * (n - 1))
    hi = bounds.harmonic(n - 1) / (alpha * (n - 1))
    checks.append(
        CheckResult(
            name="pair_dist-bracket",
            passed=_bracket_meets_ci(lo, hi, stats),
            detail=f"bracket [{lo:.6g}; {hi:.6g}] vs CI [{stats.ci_low:.6g}; {stats.ci_high:.6g}]",
        )
    )
    notes = {"alpha": alpha, "beta": beta, "frozen_graph_index": ctx.frozen_index}
    return Report(config.suite, config, columns, records, summaries, checks, notes)


def _eligible(records: list[TrialRecord]) -> list[TrialRecord]:
    return [r for r in records if r.values.get("connected", 1) == 1]


def suite_ratio(config: ExperimentConfig) -> Report:
    """Per-trial heuristic/exact ratios for matching, NN, insertion, or k-median."""
    validate_config(config)
    records = run_trials(config)
    eligible = _eligible(records)
    columns = ("connected", "heuristic", "exact", "ratio")
    summaries: dict[str, SummaryStats] = {}
    checks: list[CheckResult] = []
    notes = {"eligible": len(eligible), "skipped_disconnected": len(records) - len(eligible)}
    if eligible:
        low = sum(1 for r in eligible if r.values["ratio"] < 1 - FLOAT_SLACK)
        summaries["ratio"] = summarize(eligible, "ratio", violations=low)
        summaries["heuristic"] = summarize(eligible, "heuristic")
        summaries["exact"] = summarize(eligible, "exact")
        checks.append(
            CheckResult(
                name="ratio-floor",
                passed=low == 0,
                detail=f"{low} of {len(eligible)} ratios below 1",
            )
        )
    else:
        checks.append(CheckResult("eligible-trials", False, "no connected instances"))
    return Report(config.suite, config, columns, records, summaries, checks, notes)


def suite_two_opt(config: ExperimentConfig) -> Report:
    """Iteration counts and invariants of the 2-exchange local search."""
    validate_config(config)
    records = run_trials(config)
    eligible = _eligible(records)
    columns = (
        "connected", "iterations", "initial_cost", "final_cost",
        "strictly_decreasing", "locally_optimal", "iteration_scale", "within_scale",
    )
    summaries: dict[str, SummaryStats] = {}
    checks: list[CheckResult] = []
    notes = {"eligible": len(eligible), "skipped_disconnected": len(records) - len(eligible)}
    if eligible:
        not_decreasing = sum(1 for r in eligible if not r.values["strictly_decreasing"])
        not_local = sum(1 for r in eligible if not r.values["locally_optimal"])
        summaries["iterations"] = summarize(eligible, "iterations")
        summaries["final_cost"] = summarize(eligible, "final_cost")
        checks.append(
            CheckResult(
                "monotone-decrease", not_decreasing == 0,
                f"{not_decreasing} of {len(eligible)} traces not strictly decreasing",
            )
        )
        checks.append(
            CheckResult(
                "local-optimum", not_local == 0,
                f"{not_local} of {len(eligible)} final tours admit an improvement",
            )
        )
        scaled = [r for r in eligible if "within_scale" in r.values]
        if scaled:
            over = sum(1 for r in scaled if not r.values["within_scale"])
            checks.append(
                CheckResult(
                    "iteration-scale", over == 0,
                    f"{over} of {len(scaled)} runs beyond the polynomial scale",
                )
            )
    else:
        checks.append(CheckResult("eligible-trials", False, "no connected instances"))
    return Report(config.suite, config, columns, records, summaries, checks, notes)


def suite_concentration(config: ExperimentConfig) -> Report:
    """Distribution of exact cut parameters of G(n, p) draws around p.

    Informational: the underlying concentration statement is asymptotic and
    desk-scale n cannot meet its premises, so the fraction inside the
    (1 +/- epsilon)p bracket is reported without a pass/fail threshold.
    """
    validate_config(config)
    records = run_trials(config)
    eligible = _eligible(records)
    columns = ("connected", "alpha", "beta", "alpha_over_p", "beta_over_p", "within_bracket")
    summaries: dict[str, SummaryStats] = {}
    checks: list[CheckResult] = []
    notes = {
        "eligible": len(eligible),
        "skipped_disconnected": len(records) - len(eligible),
    }
    if eligible:
        for col in ("alpha_over_p", "beta_over_p", "within_bracket"):
            summaries[col] = summarize(eligible, col)
        notes["bracket_fraction"] = summaries["within_bracket"].mean
    else:
        notes["bracket_fraction"] = None
    return Report(config.suite, config, columns, records, summaries, checks, notes)


def suite_structure(config: ExperimentConfig) -> Report:
    """Deterministic structural invariants: cut bounds, clustering, sandwich."""
    validate_config(config)
    records = run_trials(config)
    eligible = _eligible(records)
    columns: tuple[str, ...] = ("connected",)
    if "chi" in config.structure_checks:
        columns += ("chi_violations",)
    if "cluster" in config.structure_checks:
        for gi in range(len(config.delta_fractions)):
            columns += (f"delta_{gi}", f"clusters_{gi}", f"scale_{gi}")
        columns += ("cluster_violations",)
    if "sandwich" in config.structure_checks:
        columns += ("s_half", "mm", "tsp", "sandwich_violations")
    summaries: dict[str, SummaryStats] = {}
    checks: list[CheckResult] = []
    notes = {"eligible": len(eligible), "skipped_disconnected": len(records) - len(eligible)}
    if not eligible:
        checks.append(CheckResult("eligible-trials", False, "no connected instances"))
        return Report(config.suite, config, columns, records, summaries, checks, notes)
    for check in config.structure_checks:
        key = f"{check}_violations"
        total = sum(r.values[key] for r in eligible)
        summaries[key] = summarize(eligible, key, violations=total)
        checks.append(
            CheckResult(
                name=f"{check}-invariant",
                passed=total == 0,
                detail=f"{total} violations over {len(eligible)} instances",
            )
        )
    if "cluster" in config.structure_checks:
        for gi in range(len(config.delta_fractions)):
            summaries[f"clusters_{gi}"] = summarize(eligible, f"clusters_{gi}")
            summaries[f"scale_{gi}"] = summarize(eligible, f"scale_{gi}")
    if "sandwich" in config.structure_checks:
        for col in ("s_half", "mm", "tsp"):
            summaries[col] = summarize(eligible, col)
    return Report(config.suite, config, columns, records, summaries, checks, notes)


def _dkw_slack(count: int, delta: float = 0.01) -> float:
    return math.sqrt(math.log(2.0 / delta) / (2.0 * count))


def suite_cdf(config: ExperimentConfig) -> Report:
    """Monte Carlo CDFs versus the closed forms.

    Part (a): the exact CDF of a sum of independent exponentials with rates
    c, 2c, ..., against its empirical CDF (sup difference).  Part (b): the
    empirical CDF of the distance to the k-th closest vertex against its
    bracket, up to DKW slack.
    """
    validate_config(config)
    ctx = make_context(config)
    records = run_trials(config, ctx)
    n = config.n
    alpha, beta = ctx.cut.alpha, ctx.cut.beta
    ks = config.tau_ks or _default_cdf_ks(n)
    columns = tuple(f"tau_{k}" for k in ks)
    summaries = {f"tau_{k}": summarize(records, f"tau_{k}") for k in ks}
    checks: list[CheckResult] = []

    # part (a): vectorized sampling of the exponential sum
    c, terms, count = config.cdf_c, config.cdf_terms, config.samples
    stream = UniformStream(Seed(config.seed).child(0, "expsum"))
    u = stream.u01_block(count * terms).reshape(count, terms)
    rates = c * np.arange(1, terms + 1)
    xs = np.sort((-np.log1p(-u) / rates).sum(axis=1))
    cdf = (-np.expm1(-c * xs)) ** terms
    grid_hi = np.arange(1, count + 1) / count
    grid_lo = np.arange(0, count) / count
    sup_diff = float(np.max(np.maximum(np.abs(grid_hi - cdf), np.abs(cdf - grid_lo))))
    checks.append(
        CheckResult(
            name="exp-sum-ks",
            passed=sup_diff < config.cdf_tol,
            detail=f"sup|ecdf - cdf| = {sup_diff:.5f} over {count} samples (tol {config.cdf_tol})",
        )
    )

    # part (b): tau_k empirical CDF inside its bracket up to DKW slack
    slack = _dkw_slack(len(records))
    for k in ks:
        samples = np.sort(np.array([r.values[f"tau_{k}"] for r in records]))
        top = float(samples[-1])
        grid = np.linspace(0.0, top * 1.05 if top > 0 else 1.0, 25)[1:]
        worst = 0.0
        ok = True
        for x in grid:
            ecdf = float(np.searchsorted(samples, x, side="right")) / len(samples)
            lo, hi = bounds.tau_cdf_bounds(float(x), n, k, alpha, beta)
            breach = max(lo - slack - ecdf, ecdf - hi - slack)
            worst = max(worst, breach)
            if breach > 0:
                ok = False
        checks.append(
            CheckResult(
                name=f"tau_{k}-cdf-bracket",
                passed=ok,
                detail=f"max bracket breach {worst:.5f} (slack {slack:.5f})",
            )
        )
    notes = {
        "alpha": alpha,
        "beta": beta,
        "frozen_graph_index": ctx.frozen_index,
        "exp_sum_sup_diff": sup_diff,
        "exp_sum_samples": count,
    }
    return Report(config.suite, config, columns, records, summaries, checks, notes)


_SUITE_FNS = {
    "tau": suite_tau_bounds,
    "ratio": suite_ratio,
    "two-opt": suite_two_opt,
    "concentration": suite_concentration,
    "structure": suite_structure,
    "cdf": suite_cdf,
}


def run_suite(config: ExperimentConfig) -> Report:
    validate_config(config)
    return _SUITE_FNS[config.suite](config)
