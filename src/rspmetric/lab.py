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
   ends the trial at ``connected=0``.  The trials are cut once into windows
   of consecutive trials, each with at most ``WINDOW_ENTRIES`` n x n table
   entries (at least one trial), and a pool runs whole windows; each row of
   ``_STAGES`` the suite needs runs once over a window's connected instances:
   cut parameters, weights and the metric, then the record values of the
   suite, or of each structure part (see ``_run_window``).
3. A trial's :class:`TrialRecord` holds the record values of its instance,
   or ``connected=0`` for a disconnected draw: a pure function of config and
   trial index, so records are identical at any worker count.
4. One epilogue summarizes the eligible records (99% confidence intervals,
   which no check reads) and runs the check of each ``_STAGES`` row the
   suite needs, in row order; a run with no eligible record, which only
   fresh draws can give, fails ``eligible-trials`` alone.  A count of bad
   values, such as the violations of a deterministic invariant, passes at
   zero.  An exact law passes when its two-sided p-value is at least 0.01;
   a band on a CDF passes when the empirical CDF of N samples leaves it by
   at most the DKW-Massart slack sqrt(ln(2/0.01) / 2N).
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from . import bounds
from . import metric as metric_mod
from .errors import ConfigInvalidError, EmptySelectionError
from .graphs import (
    CUT_PARAMETER_CAP,
    VERTEX_CAP,
    CutParameters,
    Graph,
    WeightedGraph,
    complete_graph,
    cut_parameters_exact,
    erdos_renyi_graphs,
    exact_cut_parameters,
    generate_erdos_renyi,
    is_connected,
    read_graph,
    sum_lightest_edges,
    weighted_graphs,
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
    Metric,
    build_metrics,
    cluster_arrays,
    diameter,
    prefix_cuts,
    tau_profile,
)
from .rng import Seed

Z99 = 2.5758293035489004  # two-sided 99% normal quantile
FLOAT_SLACK = 1e-12  # absolute slack for comparisons between float sums
# Ceiling on trials x (n + 3 len(delta_fractions) + 16), which bounds a run's
# record cells, trial and seed included: n + 3 for tau, 3 len(delta_fractions)
# + 9 for structure, at most 8 otherwise.  A report holds its records, and its
# rendered text, all at once: under tracemalloc (CPython 3.11) a cell cost
# 80-170 bytes for a CSV report and 300-380 for a JSON one, so a run at the
# ceiling peaks at about 0.9 GB (CSV) or 1.9 GB (JSON).
RECORD_CELL_CAP = 5 * 10**6
WINDOW_ENTRIES = 1 << 14  # most n x n table entries per trial window (at least one trial)
# The bound caps what a window holds at once, its T n x n tables and its draw
# arrays: each stage kernel bounds its own working arrays, and build_metrics
# cuts a window into blocks of BATCH_VERTICES.  Every window pays a fixed
# cost, so it holds 64 trials at n = 16, 28 at 24, 7 at 48, 4 at 60 and one
# from n = 91 on.  Time after the bound, as a share of the time with windows
# of BATCH_VERTICES // n trials and CUT_BLOCK = 2^20, best of five runs
# interleaved in one process, the range over three processes (six at
# n >= 100), on a 2-core Xeon host (config, trials, window before -> after):
#   structure chi G(24, 1/2)   56   10 -> 28    0.85-0.89
#   ratio nn K_12             200   21 -> 113   0.98-0.99
#   two-opt G(48, 0.15)        28    5 -> 7     0.97-1.01
#   two-opt K_60               16    4 -> 4     0.99-1.01
#   two-opt K_100               8    2 -> 1     1.00-1.06, and 1.19 once
#   two-opt G(101, 0.3)         8    2 -> 1     1.01-1.05
#   two-opt K_110               8    2 -> 1     0.97-1.00
# At n = 91-128 one graph no longer shares a call's fixed cost: a K_100's
# metric took 3.1 against 2.7-2.9 ms in pairs, and two G(101, 0.3) unions
# 1-3% more than one.  Two pruned K_110 no longer share one certified union.

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


@dataclass(frozen=True)
class TrialRecord:
    """One trial's statistics; reproducible from (config, index) alone."""

    index: int
    seed: str
    values: dict


def summarize_values(values) -> SummaryStats:
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
    )


def summarize(records, key: str) -> SummaryStats:
    """Summarize one value key over trial records; records without it are skipped."""
    vals = [r.values.get(key) for r in records]
    return summarize_values([v for v in vals if v is not None])


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
    """Parse a flat `key=value` file (blank lines and # comments ignored),
    which sets each key at most once."""
    raw: dict[str, str] = {}
    lines: dict[str, int] = {}  # key -> the line that sets it
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigInvalidError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = (part.strip() for part in line.partition("="))
            if key in lines:
                raise ConfigInvalidError(
                    f"{path}:{lineno}: config key {key!r} repeats line {lines[key]}")
            raw[key], lines[key] = value, lineno
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
        (c.trials * (c.n + 3 * len(c.delta_fractions) + 16) > RECORD_CELL_CAP,
         "trials x (n + 3 len(delta_fractions) + 16) exceeds the record cell cap "
         f"{RECORD_CELL_CAP}"),
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
        (bool(unknown), f"unknown structure checks: {unknown}"),
        (c.suite == "structure" and len(checks) < len(c.structure_checks),
         "structure_checks may not repeat an entry"),
        (c.suite == "structure" and not checks, "structure suite needs at least one check"),
        ("cluster" in checks and not c.delta_fractions,
         "the cluster check needs at least one delta fraction"),
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
                f"ci_low={s.ci_low!r},ci_high={s.ci_high!r},min={s.minimum!r},max={s.maximum!r}"
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
    """One trial's connected graph; each row of ``_STAGES`` that the suite
    needs sets the attribute it names (a frozen graph's ``cut`` comes from
    the context), or adds its record values to ``values``, which a fresh
    draw starts at ``{"connected": 1}``."""

    config: ExperimentConfig
    index: int
    seed: Seed
    graph: Graph
    cut: CutParameters | None = None
    values: dict = field(default_factory=dict)
    weighted: WeightedGraph | None = None
    metric: Metric | None = None


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


def make_context(config: ExperimentConfig) -> _Context:
    if _SUITES[config.suite].fresh and config.model == "er":
        return _Context()  # fresh draw per trial
    graph, idx = _frozen_graph(config)
    cut = cut_parameters_exact(graph) if "cut" in _SUITES[config.suite].needs(config) else None
    return _Context(graph=graph, cut=cut, frozen_index=idx)


def _window_cuts(instances: list[_Instance]) -> list[CutParameters]:
    return exact_cut_parameters([x.graph for x in instances])


def _window_weights(instances: list[_Instance]) -> list[WeightedGraph]:
    return weighted_graphs([x.graph for x in instances],
                           [x.seed.child(0, "weights") for x in instances])


def _window_metrics(instances: list[_Instance]) -> list[Metric]:
    return build_metrics([x.weighted for x in instances])


def _window_chis(instances: list[_Instance]) -> list[dict]:
    """Each instance's ``chi_violations``: its count of prefix cuts chi_k
    outside [alpha, beta] k(n - k)."""
    # compare the same floating ratios the enumeration produced, so the
    # containment alpha <= chi/mu <= beta is exact, no tolerance needed
    n = instances[0].graph.n
    ks = np.arange(1, n)
    chis = prefix_cuts([x.metric for x in instances], [x.graph for x in instances])
    ratios = chis / (ks * (n - ks))
    alpha = np.array([x.cut.alpha for x in instances])[:, None, None]
    beta = np.array([x.cut.beta for x in instances])[:, None, None]
    bad = np.count_nonzero((ratios < alpha) | (ratios > beta), axis=(1, 2)).tolist()
    return [{"chi_violations": c} for c in bad]


def _window_clusters(instances: list[_Instance]) -> list[dict]:
    """Each instance's clustering values, radius by radius: ``delta_i``, the
    i-th delta fraction times the metric's diameter, ``clusters_i``, the
    cluster count there, and ``scale_i``, n over the density threshold; then
    ``cluster_violations``, its count of clusters wider than 4 delta."""
    n, fractions = instances[0].graph.n, instances[0].config.delta_fractions
    metrics = [x.metric for x in instances]
    radii = [[f * dmax for f in fractions] for dmax in map(diameter, metrics)]
    pair, diameters, s_delta = cluster_arrays(metrics, radii, [x.cut.alpha for x in instances])
    # the float ops of the check per cluster: diameter > 4 delta + FLOAT_SLACK
    limit = 4 * np.array(radii, dtype=np.float64) + FLOAT_SLACK
    wide = pair[diameters > limit.ravel()[pair]]
    counts = np.bincount(pair, minlength=limit.size).reshape(limit.shape)
    bad = np.bincount(wide, minlength=limit.size).reshape(limit.shape).sum(axis=1)
    records = []
    for deltas, row, s_row, b in zip(radii, counts.tolist(), s_delta.tolist(), bad.tolist()):
        record: dict = {}
        for i, (delta, count, s) in enumerate(zip(deltas, row, s_row)):
            record.update({f"delta_{i}": delta, f"clusters_{i}": count, f"scale_{i}": n / s})
        record["cluster_violations"] = b
        records.append(record)
    return records


# ---------------------------------------------------------------------------
# statistics of one instance, per suite


def _tau_ks(config: ExperimentConfig) -> tuple[int, ...]:
    return config.tau_ks or tuple(range(1, config.n + 1))


def _tau_stats(x: _Instance) -> dict:
    """The distances ``tau_k`` from vertex 1 to its k-th closest vertex, and
    ``growth_sum``, the sum over k = 1..n-1 of chi_k (tau_{k+1} - tau_k), with
    chi_k the cut of the first k vertices of its closest-first order."""
    profile = tau_profile(x.metric, x.graph, 1)
    return {**{f"tau_{k}": float(profile.taus[k - 1]) for k in _tau_ks(x.config)},
            "growth_sum": math.fsum((profile.chis * np.diff(profile.taus)).tolist())}


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
        "locally_optimal": int(not has_improving_exchange(metric, trace.final)),
    }


def _sandwich_stats(x: _Instance) -> dict:
    s_half = sum_lightest_edges(x.weighted, x.graph.n // 2)
    mm = exact_matching(x.metric).cost
    tsp = exact_tsp(x.metric).cost
    # n is even, so a tour is the union of two perfect matchings: tsp >= 2 mm
    bad = int(tsp < 2 * mm - FLOAT_SLACK) + int(mm < s_half - FLOAT_SLACK)
    return {"s_half": s_half, "mm": mm, "tsp": tsp, "sandwich_violations": bad}


_STRUCTURE_PARTS = {  # check -> needs
    "chi": frozenset({"cut", "chi"}),
    "cluster": frozenset({"cut", "cluster"}),
    "sandwich": frozenset({"matching", "tsp", "tour", "sandwich"}),
}


def _structure_needs(config: ExperimentConfig) -> frozenset:
    return frozenset().union(*(needs for check, needs in _STRUCTURE_PARTS.items()
                               if check in config.structure_checks))


# ---------------------------------------------------------------------------
# checks of the eligible records: zero counts, exact laws and brackets


def _zero_count(name, key, badness=int, detail="{bad} violations over {count} instances"):
    """The check ``name``: the sum of ``badness`` over the eligible records'
    values of ``key`` is 0 (``detail`` formats the sum and the record count)."""
    def check(config, ctx, records):
        bad = sum(badness(r.values[key]) for r in records)
        return [CheckResult(name, bad == 0, detail.format(bad=bad, count=len(records)))]
    return check


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


def _tau_checks(config, ctx, records):
    """The growth process around vertex 1 versus its exact law, and the
    distances to the k-th closest vertex versus the paper's brackets.

    ``growth-exact``: the exponential is memoryless, so the increments
    chi_k (tau_{k+1} - tau_k) are i.i.d. Exp(1) on every connected graph, and
    the sum S of the N trials' ``growth_sum`` is Gamma(N(n - 1), 1).  It
    passes iff the two-sided p-value 2 min(P(Gamma <= S), P(Gamma >= S)) is
    at least 0.01.  ``tau_k-cdf-bracket``: the trials' empirical CDF of tau_k
    leaves the pointwise bracket on P(tau_k <= x) by at most the DKW slack.
    """
    # imported here, not with the module: only a tau report reads it, and
    # every other run would pay its start-up time and memory
    from scipy.special import gammainc, gammaincc

    n, alpha, beta = config.n, ctx.cut.alpha, ctx.cut.beta
    shape = len(records) * (n - 1)
    total = math.fsum(r.values["growth_sum"] for r in records)
    p = float(2 * min(gammainc(shape, total), gammaincc(shape, total)))
    checks = [CheckResult("growth-exact", p >= 0.01,
                          f"growth sum {total:.6g} vs Gamma({shape}, 1): two-sided p {p:.4g}")]
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
    return checks


# ---------------------------------------------------------------------------
# windows: what a window computes, and the run of every trial


def _each(stats: Callable[[_Instance], dict]) -> Callable[[list[_Instance]], list[dict]]:
    """The row function that maps ``stats`` over a window's instances."""
    return lambda instances: [stats(x) for x in instances]


# What a window computes for its connected instances, in order, and how a run
# judges the records: (the instance attribute the row sets, or "values" for
# record values that it adds to ``_Instance.values``; the need that runs the
# row, or None for every suite; the function of the window's instances that
# returns one value per instance; the row's check, a function of (config,
# context, eligible records) that returns its CheckResults, or None).  The
# cut, weight, metric, chi and cluster rows make one batch call over the
# window; the others compute instance by instance.  The order of the rows is
# the order of a record's columns and of a report's checks
_STAGES = (
    ("cut", "cut", _window_cuts, None),
    ("weighted", None, _window_weights, None),
    ("metric", None, _window_metrics, None),
    ("values", "tau", _each(_tau_stats), _tau_checks),
    ("values", "ratio", _each(_ratio_stats), _zero_count(
        "ratio-floor", "ratio", lambda r: r < 1 - FLOAT_SLACK, "{bad} of {count} ratios below 1")),
    ("values", "two-opt", _each(_two_opt_stats), _zero_count(
        "local-optimum", "locally_optimal", lambda ok: not ok,
        "{bad} of {count} final tours admit an improvement")),
    ("values", "chi", _window_chis, _zero_count("chi-invariant", "chi_violations")),
    ("values", "cluster", _window_clusters, _zero_count("cluster-invariant", "cluster_violations")),
    ("values", "sandwich", _each(_sandwich_stats),
     _zero_count("sandwich-invariant", "sandwich_violations")),
)


def _run_window(config: ExperimentConfig, ctx: _Context, window: range) -> list[TrialRecord]:
    """Records of one window of consecutive trials (see ``run_trials``).

    The window's fresh graphs come from one ``erdos_renyi_graphs`` call (a
    frozen graph is connected by construction, and its cut parameters come
    from the context); connectivity is found per graph.  Each row of
    ``_STAGES`` the suite needs then runs once over the connected instances.
    A trial's record is its instance's ``values``, or ``connected=0`` for a
    disconnected draw.  A draw, a metric or a partition does not depend on
    the window it was made in, so neither do the records.
    """
    # module level so that process pools can pickle it
    suite = _SUITES[config.suite]
    needs = suite.needs(config) - ({"cut"} if ctx.graph is not None else set())
    master = Seed(config.seed)
    seeds = [master.child(i, "trial") for i in window]
    if ctx.graph is None:
        graphs = erdos_renyi_graphs(config.n, config.p, [ts.child(0, "graph") for ts in seeds])
    else:
        graphs = [ctx.graph] * len(seeds)
    instances = [_Instance(config, i, ts, graph, ctx.cut, {"connected": 1} if suite.fresh else {})
                 for i, ts, graph in zip(window, seeds, graphs)
                 if ctx.graph is not None or is_connected(graph)]
    for attr, need, stage, _ in _STAGES if instances else ():  # no row runs on an empty window
        if need is None or need in needs:
            for x, value in zip(instances, stage(instances)):
                if attr == "values":
                    x.values.update(value)
                else:
                    setattr(x, attr, value)
    values = {x.index: x.values for x in instances}
    return [TrialRecord(index=i, seed=ts.hex(), values=values.get(i, {"connected": 0}))
            for i, ts in zip(window, seeds)]


def run_trials(config: ExperimentConfig, context: _Context) -> list[TrialRecord]:
    """Run all trials of a valid config on its context; records are identical
    for any worker count.

    The trials are cut once into windows of ``WINDOW_ENTRIES // n^2``
    consecutive trials (at least one), the only unit of work: serially they
    run in order, and a pool maps whole windows, about ``4 * workers`` tasks
    of consecutive windows.  So every batch call sees the same graphs at any
    worker count.  At most one process per window and per usable CPU is
    started: on fork, the pool starts all of its ``max_workers`` at once.
    """
    step = max(1, WINDOW_ENTRIES // (config.n * config.n))
    windows = [range(lo, min(lo + step, config.trials)) for lo in range(0, config.trials, step)]
    run = partial(_run_window, config, context)
    workers = min(config.workers, len(windows), metric_mod.usable_cpus())
    if workers <= 1:
        return [r for window in windows for r in run(window)]
    chunksize = max(1, len(windows) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [r for records in pool.map(run, windows, chunksize=chunksize) for r in records]


# ---------------------------------------------------------------------------
# suites


@dataclass(frozen=True)
class _Suite:
    """What one suite computes of an instance, and which columns it summarizes.

    A report's columns are the keys its trials record, in order: every
    eligible record of a config carries the same keys, and a fresh draw puts
    ``connected`` first.  A fresh-draw run with no connected draw has only
    ``connected``.  ``summaries`` picks the summarized columns from the
    others (default: all of them).  The checks are those of the rows of
    ``_STAGES`` that the suite needs.
    """

    # what an instance computes beyond its metric.  A need of a row of
    # _STAGES runs that row and its check: exact cut parameters ("cut"), the
    # suite's record values ("tau", "ratio", "two-opt") and those of each
    # structure part ("chi", "cluster", "sandwich").  The others, a tour
    # ("tour") and the exact baselines ("tsp", "matching", "kmedian"), only
    # drive validate_config, which derives every size rule from the needs
    needs: Callable[[ExperimentConfig], frozenset]
    fresh: bool = True  # er draws a graph per trial; records carry `connected`
    summaries: Callable[[tuple[str, ...]], tuple[str, ...]] = lambda columns: columns


_SUITES = {
    "tau": _Suite(needs=lambda c: frozenset({"cut", "tau"}), fresh=False),
    "ratio": _Suite(needs=lambda c: _RATIO_KINDS.get(c.kind, (frozenset(),))[0] | {"ratio"}),
    "two-opt": _Suite(
        needs=lambda c: frozenset({"tour", "two-opt"}),
        summaries=lambda columns: ("iterations", "final_cost"),
    ),
    "structure": _Suite(
        needs=_structure_needs,
        summaries=lambda columns: tuple(col for col in columns if not col.startswith("delta_")),
    ),
}
SUITES = tuple(_SUITES)


def run_suite(config: ExperimentConfig) -> Report:
    """Validate, run every trial, then summarize the eligible records and run
    the checks of the ``_STAGES`` rows the suite needs, in row order."""
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
    if not eligible:
        checks = [CheckResult("eligible-trials", False, "no connected instances")]
        return Report(config.suite, config, columns, records, {}, checks, notes)
    needs = suite.needs(config)
    checks = [result for _, need, _, check in _STAGES if check and need in needs
              for result in check(config, ctx, eligible)]
    summaries = {col: summarize(eligible, col)
                 for col in suite.summaries(tuple(c for c in columns if c != "connected"))}
    return Report(config.suite, config, columns, records, summaries, checks, notes)
