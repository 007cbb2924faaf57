"""Seeded Monte Carlo experiment runner, statistics, and verification suites.

Every suite runs one pipeline, :func:`run_suite`:

1. Validate the config once.  Every suite needs n <= VERTEX_CAP.  Its
   ``_SUITES`` entry says what an instance computes, its ``needs``: exact
   cut parameters (``cut``: n >= 2, and n <= CUT_PARAMETER_CAP on G(n, p)
   with p < 1), a tour (``tour``: n >= 3) and the exact baselines (``tsp``,
   ``matching``, ``kmedian``: their size ceilings; even n for a matching).
   :func:`make_context` builds what all trials share, a frozen graph and
   its exact cut parameters.
2. The instance stage, :func:`run_trials`, gives each trial its seed and its
   graph: the frozen one, or a fresh G(n, p) draw, where a disconnected draw
   ends the trial at ``connected=0``.  Weights are drawn on use; the metrics
   of consecutive trials are built together, in one ``build_metrics`` call,
   when the suite reads them.
3. The suite's ``_SUITES`` entry turns the instance into a
   :class:`TrialRecord`, a pure function of config and trial index, so
   records are identical at any worker count.
4. One epilogue summarizes the eligible records (99% confidence intervals)
   and runs the entry's checks.  Deterministic invariants must have zero
   violations.  A bracket on a mean passes when it meets the confidence
   interval, never on point estimates; a band on a CDF passes when the
   empirical CDF of N samples leaves it by at most the DKW-Massart slack
   sqrt(ln(2/0.01) / 2N).
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable

import numpy as np

from . import bounds
from .errors import ConfigInvalidError, EmptySelectionError
from .graphs import (
    CUT_PARAMETER_CAP,
    VERTEX_CAP,
    CutParameters,
    Graph,
    WeightedGraph,
    complete_graph,
    cut_parameters_exact,
    draw_weights,
    generate_erdos_renyi,
    is_connected,
    read_graph,
    sum_lightest_edges,
)
from .heuristics import (
    INSERTION_RULES,
    KMEDIAN_CAP,
    MATCHING_CAP,
    TSP_CAP,
    TWO_OPT_INITS,
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
from .metric import (
    BATCH_VERTICES,
    Metric,
    build_metrics,
    cluster_partition,
    diameter,
    tau_profiles,
    usable_cpus,
)
from .rng import Seed, UniformStream

Z99 = 2.5758293035489004  # two-sided 99% normal quantile
FLOAT_SLACK = 1e-12  # absolute slack for comparisons between float sums

MODELS = ("complete", "er", "imported")


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
    variance = math.fsum((v - mean) ** 2 for v in vals) / (n - 1) if n > 1 else 0.0
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


def summarize(records, key: str, violations: int = 0) -> SummaryStats:
    """Summarize one value key over trial records; records without it are skipped."""
    vals = [r.values.get(key) for r in records]
    return summarize_values([v for v in vals if v is not None], violations)


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
    structure_checks: tuple[str, ...] = ("chi", "cluster", "sandwich")
    tau_ks: tuple[int, ...] = ()
    format: str = "csv"
    out: str | None = None

    def __post_init__(self) -> None:
        # every field holds a plain Python value of its annotated type: numpy
        # scalars break Seed and the JSON report, and a list breaks hashing and ==
        mistyped = []
        for f in self.__dataclass_fields__.values():
            try:
                object.__setattr__(self, f.name, _plain(f.type, getattr(self, f.name)))
            except TypeError:
                mistyped.append(f"{f.name} must be {f.type}")
        if mistyped:
            raise ConfigInvalidError("; ".join(mistyped))


_SCALARS = {"int": int, "float": float, "str": str}
_KINDS = {"int": int, "float": (float, int), "str": str}  # what a value of each kind may be


@lru_cache(maxsize=None)  # one entry per distinct annotation
def _kind(annotation: str) -> tuple[str, bool, bool]:
    """A field's scalar type name, whether it is a tuple of them, and whether
    None is allowed, from its annotation, e.g. ``tuple[int, ...]``."""
    base = annotation.removesuffix(" | None")
    is_tuple = base.startswith("tuple[")
    scalar = base[len("tuple["):].split(",")[0] if is_tuple else base
    return scalar, is_tuple, base != annotation


def _parse_value(annotation: str, text: str):
    """Parse one config value by its field's annotation."""
    scalar, is_tuple, _ = _kind(annotation)
    item = _SCALARS[scalar]
    if is_tuple:
        return tuple(item(x.strip()) for x in text.split(",") if x.strip())
    return item(text)


def _plain(annotation: str, value):
    """A config value as a plain Python value of its field's type, else TypeError.

    A numpy scalar becomes its ``.item()``, a bool its int, a list a tuple (a
    tuple field never takes a str), and an int in a float field stays an int.
    """
    scalar, is_tuple, optional = _kind(annotation)
    if value is None and optional:
        return None
    if is_tuple and isinstance(value, (tuple, list)):
        return tuple(_plain(scalar, x) for x in value)
    if isinstance(value, np.generic):
        value = value.item()
    if is_tuple or not isinstance(value, _KINDS[scalar]):
        raise TypeError(annotation)
    return int(value) if isinstance(value, int) else value


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
    fields = ExperimentConfig.__dataclass_fields__
    kwargs: dict = {}
    for key, value in raw.items():
        if key not in fields:
            raise ConfigInvalidError(f"unknown config key {key!r}")
        if isinstance(value, str):
            value = value.strip()
            if value == "":
                continue
            try:
                value = _parse_value(fields[key].type, value)
            except ValueError:
                raise ConfigInvalidError(f"config key {key!r}: cannot parse {value!r}") from None
        kwargs[key] = value
    if kwargs.get("model") == "erdos-renyi":
        kwargs["model"] = "er"
    if "suite" not in kwargs:
        raise ConfigInvalidError("config must set `suite`")
    return ExperimentConfig(**kwargs)


def validate_config(config: ExperimentConfig) -> None:
    """Raise one ConfigInvalidError that names every problem of the config."""
    c = config  # its fields have their types: see ExperimentConfig.__post_init__
    suite = _SUITES.get(c.suite)
    needs = suite.needs(c) if suite else frozenset()
    checks = set(c.structure_checks) if c.suite == "structure" else set()
    unknown = sorted(checks - set(_STRUCTURE_PARTS))
    k_ok = c.k is not None and 1 <= c.k <= c.n - 1
    rules = [
        (c.suite not in SUITES, f"suite must be one of {SUITES}"),
        (c.model not in MODELS, f"model must be one of {MODELS}"),
        (c.trials < 1, "trials must be >= 1"),
        (c.n < 1, "n must be >= 1"),
        (c.n > VERTEX_CAP, f"n exceeds the vertex cap {VERTEX_CAP}"),
        (c.workers < 1, "workers must be >= 1"),
        (not 0 <= c.seed <= (1 << 64) - 1, "seed must be a 64-bit unsigned integer"),
        (c.format not in ("csv", "json"), "format must be csv or json"),
        (c.model == "er" and (c.p is None or not 0.0 <= c.p <= 1.0), "er model needs p in [0, 1]"),
        (c.model == "imported" and not c.graph_file, "imported model needs graph_file"),
        (any(not 0 <= f <= 1 for f in c.delta_fractions), "delta_fractions must lie in [0, 1]"),
        (not 1 <= c.start <= c.n, "start must lie in 1..n"),
        ("cut" in needs and c.model == "er" and c.p != 1 and c.n > CUT_PARAMETER_CAP,
         f"suite {c.suite} needs exact cut parameters: n <= {CUT_PARAMETER_CAP}"),
        ("cut" in needs and c.n < 2, f"suite {c.suite} needs n >= 2"),
        (c.suite == "tau" and any(not 1 <= k <= c.n for k in c.tau_ks),
         "tau_ks must lie in 1..n"),
        (c.suite == "tau" and len(set(c.tau_ks)) < len(c.tau_ks),
         "tau_ks may not repeat an entry"),
        (c.suite == "ratio" and c.kind not in RATIO_KINDS,
         f"ratio suite needs kind in {RATIO_KINDS}"),
        ("matching" in needs and c.n % 2, "perfect matchings need even n"),
        ("matching" in needs and c.n > MATCHING_CAP,
         f"matching baseline capped at n <= {MATCHING_CAP}"),
        ("tour" in needs and c.n < 3, "tours need n >= 3"),
        ("tsp" in needs and c.n > TSP_CAP, f"TSP baseline capped at n <= {TSP_CAP}"),
        (c.suite == "ratio" and c.kind == "insertion" and c.rule not in INSERTION_RULES,
         f"rule must be one of {INSERTION_RULES}"),
        ("kmedian" in needs and not k_ok, "kmedian needs 1 <= k <= n-1 (k = n is degenerate)"),
        ("kmedian" in needs and k_ok and math.comb(c.n, c.k) > KMEDIAN_CAP,
         f"C(n,k) exceeds kmedian cap {KMEDIAN_CAP}"),
        (c.suite == "two-opt" and c.two_opt_init not in TWO_OPT_INITS,
         f"two_opt_init must be {' or '.join(TWO_OPT_INITS)}"),
        (c.suite == "concentration" and c.model != "er", "concentration suite needs the er model"),
        (c.suite == "concentration" and not 0 < c.epsilon < 1, "epsilon must lie in (0, 1)"),
        (bool(unknown), f"unknown structure checks: {unknown}"),
        (c.suite == "structure" and len(checks) < len(c.structure_checks),
         "structure_checks may not repeat an entry"),
        (c.suite == "structure" and not checks, "structure suite needs at least one check"),
    ]
    problems = [message for broken, message in rules if broken]
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
    if isinstance(value, (int, np.integer)):  # bools print as 1 and 0
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


# ---------------------------------------------------------------------------
# instance stage: what every trial shares, then one random instance per trial


@dataclass(frozen=True)
class _Context:
    """Objects shared by every trial (frozen graph, its exact cut parameters)."""

    graph: Graph | None = None
    cut: CutParameters | None = None
    frozen_index: int = -1


@dataclass
class _Instance:
    """One trial's connected graph; weights are drawn on first use, and the
    trial's window (see ``_run_chunk``) sets the metric of a suite that reads it."""

    config: ExperimentConfig
    index: int
    seed: Seed
    graph: Graph
    cut: CutParameters | None
    metric: Metric | None = None

    @cached_property
    def weighted(self) -> WeightedGraph:
        return draw_weights(self.graph, self.seed.child(0, "weights"))


def _frozen_graph(config: ExperimentConfig) -> tuple[Graph, int]:
    if config.model == "complete":
        return complete_graph(config.n), -1
    if config.model == "imported":
        loaded = read_graph(config.graph_file)
        graph = loaded.graph if isinstance(loaded, WeightedGraph) else loaded
        if graph.n != config.n:
            raise ConfigInvalidError(f"imported graph has {graph.n} vertices but n={config.n}")
        if not is_connected(graph):
            raise ConfigInvalidError("imported graph is disconnected")
        return graph, -1
    master = Seed(config.seed)
    for j in range(10_000):
        graph = generate_erdos_renyi(config.n, config.p, master.child(j, "frozen-graph"))
        if is_connected(graph):
            return graph, j
    raise ConfigInvalidError("no connected draw found in 10000 attempts; p too small?")


def _cut_for(config: ExperimentConfig, graph: Graph) -> CutParameters | None:
    return cut_parameters_exact(graph) if "cut" in _SUITES[config.suite].needs(config) else None


def make_context(config: ExperimentConfig) -> _Context:
    if _SUITES[config.suite].fresh and config.model == "er":
        return _Context()  # fresh draw per trial
    graph, idx = _frozen_graph(config)
    return _Context(graph=graph, cut=_cut_for(config, graph), frozen_index=idx)


def _trial(config: ExperimentConfig, ctx: _Context, i: int) -> _Instance | TrialRecord:
    """Trial i's seed, graph and cut parameters; the record of a disconnected draw."""
    ts = Seed(config.seed).child(i, "trial")
    graph, cut = ctx.graph, ctx.cut
    if graph is None:  # a frozen graph is connected by construction
        graph = generate_erdos_renyi(config.n, config.p, ts.child(0, "graph"))
        if not is_connected(graph):
            return TrialRecord(index=i, seed=ts.hex(), values={"connected": 0})
        cut = _cut_for(config, graph)
    return _Instance(config, i, ts, graph, cut)


def _run_chunk(config: ExperimentConfig, ctx: _Context, trials: range) -> list[TrialRecord]:
    """Records of a range of trials, in windows of ``BATCH_VERTICES // n`` trials (at least one).

    A window runs in three stages: each trial's prologue (``_trial``); one
    ``build_metrics`` call over its connected instances, if the suite reads
    the metric; each instance's statistics.  A metric does not depend on the
    batch it was built in, so neither do the records.  Windows, not whole
    chunks, bound memory: a window holds about one batch of weights and
    metrics, where a chunk of large graphs would hold one per trial.
    """
    # module level so that process pools can pickle it
    suite = _SUITES[config.suite]
    step = max(1, BATCH_VERTICES // config.n)
    records: list[TrialRecord] = []
    for lo in range(trials.start, trials.stop, step):
        window = [_trial(config, ctx, i) for i in range(lo, min(lo + step, trials.stop))]
        instances = [x for x in window if isinstance(x, _Instance)]
        if suite.reads_metric:
            for x, metric in zip(instances, build_metrics([x.weighted for x in instances])):
                x.metric = metric
        for x in window:
            if isinstance(x, TrialRecord):
                records.append(x)
                continue
            values = suite.stats(x)
            if suite.fresh:
                values = {"connected": 1, **values}
            records.append(TrialRecord(index=x.index, seed=x.seed.hex(), values=values))
    return records


def run_trials(config: ExperimentConfig, context: _Context) -> list[TrialRecord]:
    """Run all trials of a valid config on its context; records are identical
    for any worker count.

    Serially, all trials are one chunk (see ``_run_chunk``); a pool runs one
    chunk of consecutive trials per task.  At most one process per trial and
    per usable CPU is started: on fork, the pool starts all of its
    ``max_workers`` at once.
    """
    run = partial(_run_chunk, config, context)
    workers = min(config.workers, config.trials, usable_cpus())
    if workers <= 1:
        return run(range(config.trials))
    chunk = max(1, config.trials // (4 * workers))
    chunks = [range(lo, min(lo + chunk, config.trials)) for lo in range(0, config.trials, chunk)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [r for records in pool.map(run, chunks, chunksize=1) for r in records]


# ---------------------------------------------------------------------------
# statistics of one instance, per suite


def _tau_ks(config: ExperimentConfig) -> tuple[int, ...]:
    return config.tau_ks or tuple(range(1, config.n + 1))


def _random_pair(stream: UniformStream, n: int) -> tuple[int, int]:
    a = stream.integer_below(n)
    b = stream.integer_below(n - 1)
    if b >= a:
        b += 1
    return a + 1, b + 1


def _tau_stats(x: _Instance) -> dict:
    taus = np.sort(x.metric.dist[0])  # distances from vertex 1, closest first
    u, v = _random_pair(UniformStream(x.seed.child(0, "aux")), x.config.n)
    return {**{f"tau_{k}": float(taus[k - 1]) for k in _tau_ks(x.config)},
            "pair_dist": x.metric.d(u, v)}


_RATIO_KINDS = {  # kind -> (needs, (heuristic, exact) solutions of an instance)
    "matching": (frozenset({"matching"}),
                 lambda x: (greedy_matching(x.metric), exact_matching(x.metric))),
    "nn": (frozenset({"tsp", "tour"}),
           lambda x: (nearest_neighbor_tour(x.metric, x.config.start), exact_tsp(x.metric))),
    "insertion": (frozenset({"tsp", "tour"}), lambda x: (
        insertion_tour(x.metric, x.config.rule, x.seed.child(0, "rule")), exact_tsp(x.metric))),
    "kmedian": (frozenset({"kmedian"}), lambda x: (
        trivial_kmedian(x.metric, first_k_centers(x.config.k)),
        exact_kmedian(x.metric, x.config.k))),
}
RATIO_KINDS = tuple(_RATIO_KINDS)


def _ratio_stats(x: _Instance) -> dict:
    heur, exact = _RATIO_KINDS[x.config.kind][1](x)
    return {"heuristic": heur.cost, "exact": exact.cost, "ratio": heur.cost / exact.cost}


def _two_opt_stats(x: _Instance) -> dict:
    c, metric = x.config, x.metric
    initial = nearest_neighbor_tour(metric, c.start) if c.two_opt_init == "nn" else None
    trace = two_opt(metric, initial)
    return {
        "iterations": trace.iterations,
        "initial_cost": trace.costs[0],
        "final_cost": trace.final.cost,
        "strictly_decreasing": int(all(b < a for a, b in zip(trace.costs, trace.costs[1:]))),
        "locally_optimal": int(not has_improving_exchange(metric, trace.final)),
    }


def _concentration_stats(x: _Instance) -> dict:
    alpha, beta, p, eps = x.cut.alpha, x.cut.beta, x.config.p, x.config.epsilon
    return {
        "alpha": alpha,
        "beta": beta,
        "alpha_over_p": alpha / p,
        "beta_over_p": beta / p,
        "within_bracket": int((1 - eps) * p <= alpha and beta <= (1 + eps) * p),
    }


def _chi_stats(x: _Instance) -> dict:
    # compare the same floating ratios the enumeration produced, so the
    # containment alpha <= chi/mu <= beta is exact, no tolerance needed
    n = x.graph.n
    ks = np.arange(1, n)
    _, chis, _ = tau_profiles(x.metric, x.graph)  # one row per vertex
    ratios = chis / (ks * (n - ks))
    bad = int(np.count_nonzero((ratios < x.cut.alpha) | (ratios > x.cut.beta)))
    return {"chi_violations": bad}


def _cluster_stats(x: _Instance) -> dict:
    dmax = diameter(x.metric)
    values: dict = {}
    bad = 0
    for gi, f in enumerate(x.config.delta_fractions):
        delta = f * dmax
        part = cluster_partition(x.metric, delta, x.cut.alpha)
        bad += sum(1 for dia in part.diameters if dia > 4 * delta + FLOAT_SLACK)
        values[f"delta_{gi}"] = delta
        values[f"clusters_{gi}"] = len(part.clusters)
        values[f"scale_{gi}"] = x.graph.n / part.s_delta
    values["cluster_violations"] = bad
    return values


def _sandwich_stats(x: _Instance) -> dict:
    s_half = sum_lightest_edges(x.weighted, x.graph.n // 2)
    mm = exact_matching(x.metric).cost
    tsp = exact_tsp(x.metric).cost
    # n is even, so a tour is the union of two perfect matchings: tsp >= 2 mm
    bad = int(tsp < 2 * mm - FLOAT_SLACK) + int(mm < s_half - FLOAT_SLACK)
    return {"s_half": s_half, "mm": mm, "tsp": tsp, "sandwich_violations": bad}


_STRUCTURE_PARTS = {  # check -> (statistics, needs)
    "chi": (_chi_stats, frozenset({"cut"})),
    "cluster": (_cluster_stats, frozenset({"cut"})),
    "sandwich": (_sandwich_stats, frozenset({"matching", "tsp", "tour"})),
}


def _structure_stats(x: _Instance) -> dict:
    values: dict = {}
    for check, (stats, _) in _STRUCTURE_PARTS.items():
        if check in x.config.structure_checks:
            values.update(stats(x))
    return values


def _structure_needs(config: ExperimentConfig) -> frozenset:
    return frozenset().union(*(needs for check, (_, needs) in _STRUCTURE_PARTS.items()
                               if check in config.structure_checks))


# ---------------------------------------------------------------------------
# checks beyond violation counts: brackets and closed forms


def _dkw_slack(count: int) -> float:
    """DKW-Massart bound at level 0.01 on sup|F_N - F| over N = ``count`` samples."""
    return math.sqrt(math.log(2.0 / 0.01) / (2.0 * count))


def _band_breach(samples: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """Exact sup over x of max(lo(x) - F_N(x), F_N(x) - hi(x)), at least 0.

    At the i-th of the sorted ``samples``, ``lo`` holds the lower band's left
    limit, met by F_N's left limit (i-1)/N, and ``hi`` the upper band, met by
    F_N = i/N.  Both bands are nondecreasing, so per index this is exact, ties too.
    """
    grid = np.arange(len(samples) + 1) / len(samples)
    return max(0.0, float(np.max(np.maximum(lo - grid[:-1], grid[1:] - hi))))


def _tau_checks(config, ctx, records, summaries):
    """The distances to the k-th closest vertex versus the paper's brackets.

    ``tau_k-bracket`` and ``pair_dist-bracket``: the mean's CI meets the
    harmonic bracket.  ``tau_k-cdf-bracket``: the trials' empirical CDF of
    tau_k leaves the pointwise bracket on P(tau_k <= x) by at most the DKW slack.
    """
    n, alpha, beta = config.n, ctx.cut.alpha, ctx.cut.beta
    brackets = [(f"tau_{k}", bounds.tau_expectation_bounds(n, k, alpha, beta))
                for k in _tau_ks(config)]
    brackets.append(("pair_dist", bounds.pair_distance_bounds(n, alpha, beta)))
    checks = []
    for col, (lo, hi) in brackets:
        s = summaries[col]
        checks.append(CheckResult(
            name=f"{col}-bracket",
            passed=lo <= s.ci_high and hi >= s.ci_low,
            detail=f"bracket [{lo:.6g}; {hi:.6g}] vs CI [{s.ci_low:.6g}; {s.ci_high:.6g}]",
        ))
    slack = _dkw_slack(len(records))
    for k in _tau_ks(config):
        samples = np.sort([r.values[f"tau_{k}"] for r in records])
        lo, hi = bounds.tau_cdf_bounds(samples, n, k, alpha, beta)
        lo[samples <= 0] = 0.0  # P(tau_k <= x) = 0 left of 0, even where lo(0) = 1
        breach = _band_breach(samples, lo, hi)
        checks.append(CheckResult(
            name=f"tau_{k}-cdf-bracket",
            passed=breach <= slack,
            detail=f"max bracket breach {breach:.5f} (DKW slack {slack:.5f})",
        ))
    return checks, {}


def _concentration_notes(config, ctx, records, summaries):
    """The share of draws inside the (1 +/- epsilon)p bracket, without a threshold.

    Informational: the concentration statement is asymptotic, and desk-scale
    n cannot meet its premises.
    """
    stats = summaries.get("within_bracket")
    return [], {"bracket_fraction": stats.mean if stats else None}


# ---------------------------------------------------------------------------
# suites


@dataclass(frozen=True)
class _Suite:
    """How one suite measures an instance and judges the records.

    A report's columns are the keys its trials record, in order: every
    eligible record of a config carries the same keys, and a fresh draw puts
    ``connected`` first.  A fresh-draw run with no connected draw has only
    ``connected``.  ``summaries`` picks the summarized columns from the
    others (default: all of them).

    ``counts`` rows are ``(check name, value key, badness, detail)``: the
    check sums ``badness(value)`` over the eligible records that carry the
    key, passes iff the sum is 0, and is left out when no record carries
    the key.  The sum is also the ``violations`` of that key's summary.
    ``finish`` adds checks and notes that are not such counts.
    """

    stats: Callable[[_Instance], dict]
    fresh: bool = True  # er draws a graph per trial; records carry `connected`
    reads_metric: bool = True  # stats read the metric, so each window builds it
    # what an instance computes beyond its metric: exact cut parameters
    # ("cut"), a tour ("tour") and the exact baselines ("tsp", "matching",
    # "kmedian"); validate_config derives every size rule from it
    needs: Callable[[ExperimentConfig], frozenset] = lambda c: frozenset({"cut"})
    summaries: Callable[[tuple[str, ...]], tuple[str, ...]] = lambda columns: columns
    counts: Callable[[ExperimentConfig], tuple] = lambda c: ()
    finish: Callable = lambda config, ctx, records, summaries: ([], {})


_SUITES = {
    "tau": _Suite(stats=_tau_stats, fresh=False, finish=_tau_checks),
    "ratio": _Suite(
        stats=_ratio_stats,
        needs=lambda c: _RATIO_KINDS.get(c.kind, (frozenset(),))[0],
        counts=lambda c: (
            ("ratio-floor", "ratio", lambda r: r < 1 - FLOAT_SLACK,
             "{bad} of {count} ratios below 1"),
        ),
    ),
    "two-opt": _Suite(
        stats=_two_opt_stats,
        needs=lambda c: frozenset({"tour"}),
        summaries=lambda columns: ("iterations", "final_cost"),
        counts=lambda c: (
            ("monotone-decrease", "strictly_decreasing", lambda ok: not ok,
             "{bad} of {count} traces not strictly decreasing"),
            ("local-optimum", "locally_optimal", lambda ok: not ok,
             "{bad} of {count} final tours admit an improvement"),
        ),
    ),
    "concentration": _Suite(
        stats=_concentration_stats,
        reads_metric=False,
        summaries=lambda columns: ("alpha_over_p", "beta_over_p", "within_bracket"),
        finish=_concentration_notes,
    ),
    "structure": _Suite(
        stats=_structure_stats,
        needs=_structure_needs,
        summaries=lambda columns: tuple(col for col in columns if not col.startswith("delta_")),
        counts=lambda c: tuple(
            (f"{check}-invariant", f"{check}_violations", int,
             "{bad} violations over {count} instances")
            for check in c.structure_checks
        ),
    ),
}
SUITES = tuple(_SUITES)


def run_suite(config: ExperimentConfig) -> Report:
    """Validate, run every trial, then summarize and check the eligible records."""
    validate_config(config)
    ctx = make_context(config)
    records = run_trials(config, ctx)
    suite = _SUITES[config.suite]
    eligible = [r for r in records if r.values.get("connected", 1) == 1]
    columns = tuple(eligible[0].values) if eligible else ("connected",)
    if suite.fresh:
        notes = {"eligible": len(eligible), "skipped_disconnected": len(records) - len(eligible)}
    else:
        notes = {
            "alpha": ctx.cut.alpha, "beta": ctx.cut.beta, "frozen_graph_index": ctx.frozen_index
        }
    summaries: dict[str, SummaryStats] = {}
    checks: list[CheckResult] = []
    counts = suite.counts(config)
    if eligible:
        violations: dict[str, int] = {}
        for name, key, badness, detail in counts:
            scores = [badness(r.values[key]) for r in eligible if key in r.values]
            if scores:
                bad = violations[key] = sum(scores)
                text = detail.format(bad=bad, count=len(scores))
                checks.append(CheckResult(name, bad == 0, text))
        for col in suite.summaries(tuple(c for c in columns if c != "connected")):
            summaries[col] = summarize(eligible, col, violations.get(col, 0))
    elif counts:
        checks.append(CheckResult("eligible-trials", False, "no connected instances"))
    more_checks, more_notes = suite.finish(config, ctx, eligible, summaries)
    checks += more_checks
    notes.update(more_notes)
    return Report(config.suite, config, columns, records, summaries, checks, notes)
