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
   of consecutive trials, and a pool runs whole windows; each row of
   ``_STAGES`` the suite needs runs once over a window's connected instances
   (see ``_run_window``).
3. The suite's ``_SUITES`` entry turns the instance into a
   :class:`TrialRecord`, a pure function of config and trial index, so
   records are identical at any worker count.
4. One epilogue summarizes the eligible records (99% confidence intervals,
   which no check reads) and runs the entry's checks.  Deterministic
   invariants must have zero violations.  An exact law passes when its
   two-sided p-value is at least 0.01; a band on a CDF passes when the
   empirical CDF of N samples leaves it by at most the DKW-Massart slack
   sqrt(ln(2/0.01) / 2N).
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
    """One trial's connected graph; each row of ``_STAGES`` that the suite
    needs sets the attribute it names (a frozen graph's ``cut`` comes from
    the context)."""

    config: ExperimentConfig
    index: int
    seed: Seed
    graph: Graph
    cut: CutParameters | None = None
    weighted: WeightedGraph | None = None
    metric: Metric | None = None
    chi: dict | None = None
    cluster: dict | None = None


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


# What a window computes for its connected instances, in order: (instance
# attribute, the need that runs the row or None for every suite, the function
# of the window's instances that returns one value per instance).  Each row
# makes one batch call over the window; the chi and cluster rows hand each
# instance the record values of the structure part of the same name
_STAGES = (
    ("cut", "cut", _window_cuts),
    ("weighted", None, _window_weights),
    ("metric", None, _window_metrics),
    ("chi", "chi", _window_chis),
    ("cluster", "cluster", _window_clusters),
)


def _run_window(config: ExperimentConfig, ctx: _Context, window: range) -> list[TrialRecord]:
    """Records of one window of consecutive trials (see ``run_trials``).

    The window's fresh graphs come from one ``erdos_renyi_graphs`` call (a
    frozen graph is connected by construction, and its cut parameters come
    from the context); connectivity is found per graph.  Each row of
    ``_STAGES`` the suite needs then runs once over the connected instances,
    and each instance gives its statistics.  A draw, a metric or a partition
    does not depend on the window it was made in, so neither do the records.
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
    instances = [_Instance(config, i, ts, graph, ctx.cut)
                 for i, ts, graph in zip(window, seeds, graphs)
                 if ctx.graph is not None or is_connected(graph)]
    for attr, need, stage in _STAGES if instances else ():  # no row runs on an empty window
        if need is None or need in needs:
            for x, value in zip(instances, stage(instances)):
                setattr(x, attr, value)
    stats = {x.index: suite.stats(x) for x in instances}
    records = []
    for i, ts in zip(window, seeds):
        if i not in stats:
            values = {"connected": 0}
        elif suite.fresh:
            values = {"connected": 1, **stats[i]}
        else:
            values = stats[i]
        records.append(TrialRecord(index=i, seed=ts.hex(), values=values))
    return records


def run_trials(config: ExperimentConfig, context: _Context) -> list[TrialRecord]:
    """Run all trials of a valid config on its context; records are identical
    for any worker count.

    The trials are cut once into windows of ``BATCH_VERTICES // n``
    consecutive trials (at least one), the only unit of work: serially they
    run in order, and a pool maps whole windows, about ``4 * workers`` tasks
    of consecutive windows.  So every batch call sees the same graphs at any
    worker count.  At most one process per window and per usable CPU is
    started: on fork, the pool starts all of its ``max_workers`` at once.
    """
    step = max(1, metric_mod.BATCH_VERTICES // config.n)
    windows = [range(lo, min(lo + step, config.trials)) for lo in range(0, config.trials, step)]
    run = partial(_run_window, config, context)
    workers = min(config.workers, len(windows), metric_mod.usable_cpus())
    if workers <= 1:
        return [r for window in windows for r in run(window)]
    chunksize = max(1, len(windows) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [r for records in pool.map(run, windows, chunksize=chunksize) for r in records]


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


_STRUCTURE_PARTS = {  # check -> (statistics, needs)
    "chi": (lambda x: x.chi, frozenset({"cut", "chi"})),
    "cluster": (lambda x: x.cluster, frozenset({"cut", "cluster"})),
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
# checks beyond violation counts: exact laws and brackets


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
    check sums ``badness(value)`` over the eligible records, each of which
    carries the key, and passes iff the sum is 0.  The sum is also the
    ``violations`` of that key's summary.
    ``finish`` adds the checks that are not such counts.
    """

    stats: Callable[[_Instance], dict]
    fresh: bool = True  # er draws a graph per trial; records carry `connected`
    # what an instance computes beyond its metric: exact cut parameters
    # ("cut"), its growth profiles ("chi"), its clusterings ("cluster"), a
    # tour ("tour") and the exact baselines ("tsp", "matching", "kmedian").
    # A need of a row of _STAGES ("cut", "chi", "cluster") runs that row;
    # the others only drive validate_config, which derives every size rule
    # from the needs
    needs: Callable[[ExperimentConfig], frozenset] = lambda c: frozenset({"cut"})
    summaries: Callable[[tuple[str, ...]], tuple[str, ...]] = lambda columns: columns
    counts: Callable[[ExperimentConfig], tuple] = lambda c: ()
    finish: Callable = lambda config, ctx, records: []


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
            ("local-optimum", "locally_optimal", lambda ok: not ok,
             "{bad} of {count} final tours admit an improvement"),
        ),
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
            bad = violations[key] = sum(badness(r.values[key]) for r in eligible)
            checks.append(CheckResult(name, bad == 0, detail.format(bad=bad, count=len(eligible))))
        for col in suite.summaries(tuple(c for c in columns if c != "connected")):
            summaries[col] = summarize(eligible, col, violations.get(col, 0))
    elif counts:
        checks.append(CheckResult("eligible-trials", False, "no connected instances"))
    checks += suite.finish(config, ctx, eligible)
    return Report(config.suite, config, columns, records, summaries, checks, notes)
