"""The benchmark's three workloads.

Each workload is built once (its fixed inputs: configs, and for
``complete-1000`` the graph), then runs *units* of random instances.  A
unit's inputs are a pure function of its 64-bit unit seed.  ``run`` is the
timed part, and calls ``mark`` between its stages so that the runner can
sample the host's speed there (see ``calibration.py``); ``check`` verifies
the deterministic invariants of its result outside the timed region and
returns an :class:`Outcome`.

The caller must put the repository's ``src`` directory on ``sys.path``
before importing this module.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

from rspmetric import graphs, heuristics, lab, metric, rng


@dataclass(frozen=True)
class Outcome:
    """What one unit did: instance counts plus the lines its records digest covers."""

    instances: int
    failed: int
    eligible: int
    exchanges: int
    records: tuple[str, ...]

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.records).encode()).hexdigest()


def _no_mark() -> None:
    pass


def unit_seed(workload: str, seed: int, index: int) -> int:
    """64-bit seed of unit ``index`` of a run with workload seed ``seed``."""
    key = f"{workload}:{seed}:{index}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "little")


def _record_lines(text: str) -> tuple[str, ...]:
    """A rendered CSV report minus its `#summary` lines: header and one row per trial."""
    return tuple(ln for ln in text.splitlines() if not ln.startswith("#"))


def _check_names(report: lab.Report) -> dict[str, bool]:
    return {c.name: c.passed for c in report.checks}


class ExactDP:
    """``ratio`` suite on the complete graph, alternating NN (n=12) and matching (n=16).

    Held-Karp ``exact_tsp`` and the pairing DP ``exact_matching`` take almost
    all of the time; the graphs are too small for graph or metric work to show.
    """

    name = "exact-dp"
    trials = 4  # per suite call; a unit is one NN call then one matching call
    unit_size = 2 * trials

    def __init__(self) -> None:
        base = lab.ExperimentConfig(suite="ratio", model="complete", trials=self.trials)
        self.configs = (
            dataclasses.replace(base, kind="nn", n=12),
            dataclasses.replace(base, kind="matching", n=16),
        )

    def run(self, seed: int, mark=_no_mark) -> list[tuple[lab.Report, str]]:
        rendered = []
        for i, config in enumerate(self.configs):
            if i:
                mark()
            report = lab.run_suite(dataclasses.replace(config, seed=seed))
            rendered.append((report, report.render()))
        return rendered

    def check(self, rendered: list[tuple[lab.Report, str]]) -> Outcome:
        failed = eligible = 0
        lines: list[str] = []
        for report, text in rendered:
            bad = [r for r in report.records if not r.values["connected"]
                   or r.values["ratio"] < 1 - lab.FLOAT_SLACK]
            # a gate verdict that contradicts the records fails the whole call
            agrees = _check_names(report) == {"ratio-floor": not bad}
            failed += len(bad) if agrees else len(report.records)
            eligible += sum(r.values["connected"] for r in report.records)
            lines += _record_lines(text)
        return Outcome(self.unit_size, failed, eligible, 0, tuple(lines))

    def warmup(self) -> None:
        self.check(self.run(0))


class ERStructure:
    """``structure`` suite (chi and cluster checks) on fresh G(16, 1/2) draws.

    Many small instances: ER generation, connectivity, exact cut parameters,
    n tau profiles and four clusterings each, plus lab's per-trial and report work.
    """

    name = "er-structure"
    trials = 25  # per suite call, which is one unit
    unit_size = trials

    def __init__(self) -> None:
        self.config = lab.ExperimentConfig(
            suite="structure", model="er", n=16, p=0.5, trials=self.trials,
            structure_checks=("chi", "cluster"),
        )

    def run(self, seed: int, mark=_no_mark, workers: int = 1) -> tuple[lab.Report, str]:
        report = lab.run_suite(dataclasses.replace(self.config, seed=seed, workers=workers))
        return report, report.render()

    def check(self, rendered: tuple[lab.Report, str]) -> Outcome:
        report, text = rendered
        eligible = [r for r in report.records if r.values["connected"]]
        bad = [r for r in eligible
               if r.values["chi_violations"] or r.values["cluster_violations"]]
        checks = _check_names(report)
        agrees = not eligible or (checks["chi-invariant"] and checks["cluster-invariant"]) == (not bad)
        failed = len(bad) if agrees else self.trials
        return Outcome(self.trials, failed, len(eligible), 0, _record_lines(text))

    def warmup(self) -> None:
        self.check(self.run(0))

    def workers_check(self, seed: int) -> bool:
        """Do the records of one unit match when run with 1 and with 2 worker processes?"""
        one, two = (self.check(self.run(seed, workers=w)).digest() for w in (1, 2))
        return one == two


class CompleteLarge:
    """One shortest-path metric on the complete graph K_n per instance, n=1000.

    The graph is built once; each instance draws weights, runs APSP, the four
    tour and matching heuristics, trivial k-median, one tau profile and one
    clustering.  Graph and metric work at scale, no exact baseline.
    """

    name = "complete-1000"
    unit_size = 1
    k = 10

    def __init__(self, n: int = 1000) -> None:
        self.graph = graphs.complete_graph(n)

    def run(self, seed: int, mark=_no_mark):
        m = metric.build_metric(graphs.draw_weights(self.graph, rng.Seed(seed)))
        mark()
        nn = heuristics.nearest_neighbor_tour(m)
        matching = heuristics.greedy_matching(m)
        mark()
        insertion = heuristics.insertion_tour(m, "nearest")
        mark()
        local = heuristics.two_opt(m, nn)
        mark()
        median = heuristics.trivial_kmedian(m, heuristics.first_k_centers(self.k))
        profile = metric.tau_profile(m, self.graph, 1)
        mark()
        # alpha of the complete graph is exactly 1
        partition = metric.cluster_partition(m, metric.diameter(m) / 4, 1.0)
        return m, nn, matching, insertion, local, median, profile, partition

    def check(self, result) -> Outcome:
        m, nn, matching, insertion, local, median, profile, partition = result
        vertices = list(range(1, m.n + 1))
        tours_ok = all(sorted(t.order) == vertices for t in (nn, insertion, local.final))
        matching_ok = (len(matching.pairs) == m.n // 2
                       and sorted(v for pair in matching.pairs for v in pair) == vertices)
        local_ok = not heuristics.has_improving_exchange(m, local.final)
        failed = int(not (tours_ok and matching_ok and local_ok))
        record = {
            "nn": [nn.cost, nn.order],
            "matching": [matching.cost, matching.pairs],
            "insertion": [insertion.cost, insertion.order],
            "two_opt": [local.final.cost, local.final.order, local.iterations],
            "kmedian": median.cost,
            "taus": profile.taus.tolist(),
            "chis": profile.chis.tolist(),
            "clusters": sorted(sorted(c) for c in partition.clusters),
        }
        return Outcome(1, failed, 1, local.iterations, (json.dumps(record),))

    def warmup(self) -> None:
        small = CompleteLarge(n=50)
        small.check(small.run(0))


WORKLOADS = {cls.name: cls for cls in (ExactDP, ERStructure, CompleteLarge)}
