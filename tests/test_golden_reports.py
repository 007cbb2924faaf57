"""Golden reports: sha256 digests of rendered CSV and JSON for fixed configs.

The digests were captured before the trial pipeline in ``lab.py`` was
rewritten, so a refactor of that pipeline must leave every report
byte-identical.  A change that alters reports on purpose must say why and
update the digests here.  The ``imported`` model is left out because its
JSON embeds the graph file's path.
"""

import dataclasses
import functools
import hashlib

import pytest

from rspmetric import ExperimentConfig, lab, metric, run_suite

CASES = {
    "tau-complete": dict(suite="tau", model="complete", n=6, trials=12, seed=101),
    "tau-er": dict(suite="tau", model="er", n=8, p=0.6, trials=12, seed=102, tau_ks=(2, 5, 8)),
    "ratio-matching-complete": dict(
        suite="ratio", kind="matching", model="complete", n=8, trials=6, seed=103
    ),
    "ratio-matching-er": dict(
        suite="ratio", kind="matching", model="er", n=8, p=0.4, trials=10, seed=104
    ),
    "ratio-nn-complete": dict(
        suite="ratio", kind="nn", model="complete", n=7, trials=6, seed=105, start=3
    ),
    "ratio-nn-er": dict(suite="ratio", kind="nn", model="er", n=7, p=0.5, trials=8, seed=106),
    "ratio-insertion-complete": dict(
        suite="ratio", kind="insertion", model="complete", n=7, trials=6, seed=107, rule="random"
    ),
    "ratio-insertion-er": dict(
        suite="ratio", kind="insertion", model="er", n=7, p=0.6, trials=8, seed=108,
        rule="cheapest",
    ),
    "ratio-kmedian-complete": dict(
        suite="ratio", kind="kmedian", model="complete", n=7, trials=6, seed=109, k=2
    ),
    "ratio-kmedian-er": dict(
        suite="ratio", kind="kmedian", model="er", n=7, p=0.5, trials=8, seed=110, k=3
    ),
    "ratio-er-none-eligible": dict(
        suite="ratio", kind="matching", model="er", n=6, p=0.0, trials=3, seed=111
    ),
    "two-opt-complete": dict(suite="two-opt", model="complete", n=8, trials=6, seed=112),
    "two-opt-er": dict(
        suite="two-opt", model="er", n=8, p=0.35, trials=8, seed=113, two_opt_init="nn"
    ),
    "two-opt-er-beyond-cut-cap": dict(
        suite="two-opt", model="er", n=26, p=0.5, trials=3, seed=120
    ),
    "structure-complete": dict(suite="structure", model="complete", n=6, trials=4, seed=116),
    "structure-er": dict(suite="structure", model="er", n=8, p=0.4, trials=6, seed=117),
    "structure-er-workers-2": dict(
        suite="structure", model="er", n=8, p=0.5, trials=6, seed=117, workers=2,
        structure_checks=("cluster", "chi"), delta_fractions=(0.0, 0.3),
    ),
    # 65 G(16, 1/2) draws are two windows of at most 64 trials, so workers=2
    # runs them in a pool of two processes (the case above is one window)
    "structure-er-two-windows": dict(
        suite="structure", model="er", n=16, p=0.5, trials=65, seed=124, workers=2,
        structure_checks=("cluster", "chi"), delta_fractions=(0.0, 0.3),
    ),
    "tau-er-k3-k7": dict(suite="tau", model="er", n=7, p=0.7, trials=20, seed=119, tau_ks=(3, 7)),
    # K_60 and K_50 prune their edges but take the dense kernel; each K_110 is
    # a window of its own, pruned and certified alone (test_kernels.py's "two
    # pruned K110" case certifies two of them as one union)
    "two-opt-complete-pruned": dict(suite="two-opt", model="complete", n=60, trials=4, seed=121),
    "ratio-kmedian-complete-pruned": dict(
        suite="ratio", kind="kmedian", model="complete", n=50, k=2, trials=4, seed=122
    ),
    "two-opt-complete-pruned-union": dict(
        suite="two-opt", model="complete", n=110, trials=4, seed=123
    ),
}

# case -> (sha256 of to_csv(), sha256 of to_json())
# A digest moves only with a stated reason.  A key dropped from the config
# (cdf_tol, then cdf_c, then samples and cdf_terms, then epsilon) moves every
# JSON digest and no CSV one: dropping that key from the earlier JSON gives
# the new one exactly.  The other moves:
# - The none-eligible CSV lost its trailing empty stat cells when the header
#   began to come from the records (`trial,seed,connected` with no draw).
# - The cdf suite folded into tau: tau-complete and tau-er gained their
#   tau_k-cdf-bracket checks (all passing; dropping them gives the earlier
#   CSV and JSON), and tau-er-k3-k7, the old cdf-er config run as tau,
#   replaced the two cdf cases.
# - The concentration suite went, with its two cases: it sampled alpha and
#   beta of G(n, p) draws against (1 +/- epsilon)p and had no check.
# - The five two-opt cases lost the `strictly_decreasing` column and the
#   `monotone-decrease` check, which restated two_opt's acceptance rule and
#   could not fail: deleting that column, that record key and that check
#   line from the earlier CSV and JSON gives the new ones exactly.
# - The three tau cases traded their mean brackets (tau_k-bracket and
#   pair_dist-bracket, each a 99% normal interval over a few skewed samples)
#   for one growth-exact check, and the pair_dist column, whose only reader
#   was its bracket, for growth_sum in the same slot.  Every tau_k cell and
#   tau_k summary is unchanged: deleting the last column, its summary line
#   and the growth-exact line from the new CSV, and the last column, its
#   summary line and the mean bracket lines from the earlier one, gives the
#   same text.
# - Every case but the none-eligible one lost `violations=` from its CSV
#   summary lines and `violations` from its JSON stats: the count checks
#   moved to the rows of lab._STAGES, and a summary no longer copies one.
#   Deleting those from the earlier CSV and JSON gives the new ones exactly,
#   except in the structure cases with structure_checks=("cluster", "chi"):
#   their checks now come in row order, chi-invariant first, as their
#   columns do, and swapping the two check lines gives the new ones exactly.
#   The -two-windows case was captured before this change and compared so.
# The two -pruned cases were captured while each pruned graph was certified
# on its own; their metrics now come from the dense kernel, so their digests
# pin that both routes give the same tables.  The -pruned-union case was
# captured while each K_110 was certified on its own (trial 2's certificate
# reran 2 sources); it pins that certifying two of them as one union does not
# change a table.
DIGESTS = {
    "ratio-er-none-eligible": (
        "ab394d5285614c3adee601680a0a3c6ec5205ccfcb425455a7a834ec5a133425",
        "0e1fdbe82e4a201d435917d5ef635ebacd942e76c1d824bda9c1677e268f373a",
    ),
    "ratio-insertion-complete": (
        "bfc0620b8e908e9dc18007790c6de3d1ecf21521d2cf2d27ddecf760730f1aa0",
        "72997fb5e0441f96fb69d25c42e6d028fc0529eb44ab648727fb18b2e525574b",
    ),
    "ratio-insertion-er": (
        "92021a06e0dd72e95bb0d91902b913ec6fb784913063e1258e43bc0e963845c1",
        "7936c896d731ca32311c0241972564103ea82e03ee1346d49282002c0877ac9e",
    ),
    "ratio-kmedian-complete": (
        "a5444ef9d2e6367a7a7096217f26debd78cb1b6ca124123d00b3954e6a6280bc",
        "3c1690b9b357c08dea82de05a070e16cca43e31e45f476e9bce884f4387f41ab",
    ),
    "ratio-kmedian-complete-pruned": (
        "df2553cdb93ac7663055fa1e1867f5654bcda9f46086ab2e810e53fac5df6df3",
        "1e09c2aa167283ea30dfa678960706d12e97ac9007d6907f15f674ebda2c6109",
    ),
    "ratio-kmedian-er": (
        "7207bb74003f9a7163785acb1671e00549d0da5396d0757dfdccbfcb9f183609",
        "971f49cec459a84660ec386ce77f177a9f0e84d6afb0baa63ce7a79669fdde90",
    ),
    "ratio-matching-complete": (
        "d9d60d1f853705aac9148ad3a5a105ea428ffd2f5aa3b061a37e6867b8936fe3",
        "078cb37fff66af2273a2c2b66bbc7d5d89a01c9f55fd118bfae82644ecb9c444",
    ),
    "ratio-matching-er": (
        "6e3082faa0e0edbe6143f08ae7f86489b965e6b40b8bc7e363714e390bc64294",
        "cbb00e0ae462d101d12fa3dc24279e5e8c0c58bfa40c2850a6630dce4eb7ec68",
    ),
    "ratio-nn-complete": (
        "dc3364160cb99d0f228676c7cd8c291cc492309ac98fb5487db1c2ea29f06b85",
        "c6b88dee31db68ab97c11a9a066bf38b04c2042da3ad16af83bb5bc7a5ee13b5",
    ),
    "ratio-nn-er": (
        "a179c238d67b28389e643ab6a5b99fb6a0de71145c1b591130c9985f3167c023",
        "cae2d95bf4e521e0921e514d1775cdc00ed4e34e6299000bf0ffd6839c9aa47d",
    ),
    "structure-complete": (
        "db11147de623a9f7ecb237973214ae592066aa63ca7d581debcd84b85dfbca55",
        "86c4456f0e8901c073cc3732543b6cc5e6ae09aa248f57b42cc0c7c2cca10dfa",
    ),
    "structure-er": (
        "3e7a477f4024fe0ba1b9d4597c1ae3b2cd9c2f65bdf8aa024120bb8b2a3d87ba",
        "e2ebed03857067f792f4ade83eff80d9da3df18a42c4c33303205cd5a7657858",
    ),
    "structure-er-two-windows": (
        "1628e544ec168411fc917d01d1828d0a69c0ac97630009d2dcb5b135d41011f0",
        "8253cc51e2d1ecdff0c83e5e0a055931514e0f731c0990b3f088b4d959f01fd3",
    ),
    "structure-er-workers-2": (
        "44f743feb5acfeef59c33026916beb21ea889eae5a5f8786a15a8aef2aea022f",
        "8e2f80f967d81f3166521d1b7da3cc0b0cbcd18dffed55c9457a85a3e8a2c1ea",
    ),
    "tau-complete": (
        "707a6c32f347af44d05e4e6feb539a8aaae1e46baca34e7c1517245d7e4a052f",
        "305b0337bc0799f38551ba3a1c2a538ca844eea77331952db66ac54e279c3732",
    ),
    "tau-er": (
        "9d9583d41c238c530c03a56f1a74621929a7863f99cb095164baf6d751b67b21",
        "ebc0b0a0c583c47a3ebaec9d24ee5c3b0cf85387c6657e054f1343af220f44fd",
    ),
    "tau-er-k3-k7": (
        "8ffffd0047fc5cb0228c8cb8003585b00a8cafa4235c659df99c1d88c5a88a3b",
        "8c1b2c769d957e534310ef26d7fc7e7cf10b3b119764b0efe38f0f69f682e2fc",
    ),
    "two-opt-complete": (
        "7067fd05116ebb8e48c21aac53d4bdc44fc1e404da5f157a3b8f72d7ce1155bc",
        "703a68336d9e5d6d438fa7b21722015fab94653fc6c12e4b546be91ea3ed46bd",
    ),
    "two-opt-complete-pruned": (
        "caf094ca04b9cb22fae531218d28de7bddb26ce5277b3fc2b9c669cff964e48b",
        "728481a76f4488cb2d6b16b10cd4d3cb31e0fd1a9a7659d45d9c9ab1e913f7d6",
    ),
    "two-opt-complete-pruned-union": (
        "bb8d06d2ba9e6b0140c1d7d210d2ac18aef6f771b2381611db9dd58ba29111b6",
        "21235070a92249945faf28abc4eae298208b4ca747bef69ed91ee7c4ce8c0d5c",
    ),
    # trial 6 turns locally_optimal 0 -> 1: a tie exchange (delta -2.2e-16)
    # whose tour is not strictly cheaper no longer counts as improving
    "two-opt-er": (
        "c765c163a001b4276477cd34d3a37b9e281ba04f9b041fdd0ebca2cd1f126c72",
        "bb96076b8d34f426d0b8aba313b135552084a460cc98a8be967122bf35337229",
    ),
    "two-opt-er-beyond-cut-cap": (
        "3cd356dad8a2c829e381fd403c80aac18795a3b696c2208daa04e1a0e7ab55af",
        "c92a10188b999851509819c975d6398e0a4622b05540bc51acd97786a02e3f48",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _report(case):
    return run_suite(ExperimentConfig(**CASES[case]))


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_digests_match(case):
    report = _report(case)
    assert (_sha(report.to_csv()), _sha(report.to_json())) == DIGESTS[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_record_keys_equal_report_columns(case):
    # the header is the first eligible record's keys, so every eligible
    # record must carry the same keys in the same order
    report = _report(case)
    eligible = [r for r in report.records if r.values.get("connected", 1) == 1]
    assert all(tuple(r.values) == report.columns for r in eligible)


def test_the_two_window_case_starts_a_pool_and_equals_one_worker(monkeypatch):
    from test_lab import recording_pool  # a stand-in pool, so no process starts

    started = []
    monkeypatch.setattr(lab, "ProcessPoolExecutor", recording_pool(started))
    monkeypatch.setattr(metric, "usable_cpus", lambda: 2)
    config = ExperimentConfig(**CASES["structure-er-two-windows"])
    pooled = run_suite(config)
    assert started == [2]
    serial = run_suite(dataclasses.replace(config, workers=1))
    assert started == [2]  # one worker starts no pool
    assert serial.to_csv() == pooled.to_csv()
    # the JSON report holds its config
    assert serial.to_json() == pooled.to_json().replace('"workers": 2', '"workers": 1')
