"""Golden reports: sha256 digests of rendered CSV and JSON for fixed configs.

The digests were captured before the trial pipeline in ``lab.py`` was
rewritten, so a refactor of that pipeline must leave every report
byte-identical.  A change that alters reports on purpose must say why and
update the digests here.  The ``imported`` model is left out because its
JSON embeds the graph file's path.
"""

import functools
import hashlib

import pytest

from rspmetric import ExperimentConfig, run_suite

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
        "20801c4c4c1364ca07ceca54d1516d88a39415b1f0ed6d659bfae937f95b1dfb",
        "f63379b635f4d7cbb44ccb4cc82e930125c800a4505653efcdb6b3168a8cca4f",
    ),
    "ratio-insertion-er": (
        "bae5c882573acb25db3fac36f88742d34f48fae00eee3df245a3ce1d6c6d2a56",
        "dfa5d27ed9fb6e99fc0d5a3553d621a7e1b47c45314e4e68ef105650fef74b8f",
    ),
    "ratio-kmedian-complete": (
        "ed338a0d77b57db72c9c0692409b77004dc197f2dcfff943fa57834823022702",
        "78d9982cda1b6e38aa3ad0961842d14e946835cf78868defb7e85ff35781b7d4",
    ),
    "ratio-kmedian-complete-pruned": (
        "d283d25cd97977937ac13030bdcb55aa5f0c0da52e6b27d19ac06f045e5cc87b",
        "b2fc9910bbc0192dc8f547e012c76154fb6e5fb00fe55a42b0ad219adf960c0c",
    ),
    "ratio-kmedian-er": (
        "092543bbcf98f93a842b95f791bca4f292d0798bd78fcb6237751d6b6f86c48a",
        "be54d6e9b1bc36002f90d35a3e31ccb5fa1df1cc9d2a019bd4917ed3a5f66652",
    ),
    "ratio-matching-complete": (
        "6b4a4708dca44006194853fdab11b0a3880a97a0ff0b31f69fd48275e41c9a8e",
        "cedd83d4b43c6c2309e33be8fc4e70396d566bdadcb9cbb01b47b30f61d76327",
    ),
    "ratio-matching-er": (
        "5576c51e1b0e3c19d458ad2d8dcdb46e6a27769e8ac647eeb1daeef09fba22d4",
        "25eaf32ea909e7f75bf1905c696b0d9ee6f064bb4ab1f8d1e0cc8d98e837b01c",
    ),
    "ratio-nn-complete": (
        "10326b63ba2c78ed23e3ef239cb62e30ce4d8ed4ab5a30c449973ae1f306668c",
        "ac875e3990eae8ffc5170fb2dd0f89b9097e7cdfb244bf16a2ac47e5a7f670f3",
    ),
    "ratio-nn-er": (
        "3c2b466d38aeae0fb0578276d0ecec0e44ac062bd56144b8c4ded3ea17ac2ac9",
        "6e205b02aedfe351631eaae98e29d4774c423e52219a2e84a9138b07d5ff8669",
    ),
    "structure-complete": (
        "3efb1973f6b8f60423eef4ce251373bd86cb718f8565280889e36e294750d909",
        "6519e246ded35209f53992e3e9482585baf2723e104938e7483e88826b948d32",
    ),
    "structure-er": (
        "595a2403e80b562b725c23f166865d9e00e163a319d0a51710441d9e8154ce29",
        "e9a0435f3a04416f3aff5a2143ca08394a16f0b222a15037243af2f376abb4ca",
    ),
    "structure-er-workers-2": (
        "95a7607e6dcd895ba9a1c6ee240d265170c56e145b9a74aa731d89ee451ed8ca",
        "8eb49c73669ea234ac91fbe9ff86125042fbecf6398d0475303cd77aa2e95fcc",
    ),
    "tau-complete": (
        "1d782aad0dd495f00d59d35a91c8c2b5fc2c9a7da67c76aa9e463ee268e823f0",
        "53bde50691af089f1ea5b9cfaa2f5767031231e946f438169b8d256c5de388af",
    ),
    "tau-er": (
        "ad89cb5e8634f52a6ca15b2ffb174bfae6aa3f9eb3909d5c83a49e8d7fdea4e4",
        "55828aedd9f950f0242341f5fecbc695bd121a29520b3c637c794e16952766c5",
    ),
    "tau-er-k3-k7": (
        "12a7c3f148ba3574f2a3dd40a7a064935508368e186fa3a51b778b6dd4fe07a6",
        "54774c4e38092993bfbe38d694db40cd4d885f56dc2642a8ed19ef7190574e3e",
    ),
    "two-opt-complete": (
        "1eb98191dc4f4249ff4406b015feb4edd2bac66f83faa380b0a1e2f794571412",
        "01d287412958fb9f42beb24cd1817540b8be912e3a00c59194a5c8431df0bed9",
    ),
    "two-opt-complete-pruned": (
        "136f02aaab5ca39bb862a172bef3fddc8895bea02715c236b05a4ab68eb83df5",
        "eef4a3143e454f03f90e3101f0f96a3ab0223b75a0cca9afeb372972d33ff23d",
    ),
    "two-opt-complete-pruned-union": (
        "9d86f242b41b621096097eadcd491d1ce8c0120bb357f14eb4e63c78775b8dcf",
        "c161a71882df98654969764d85a5cc1af2117808bf7092eda0aad2f6c826721f",
    ),
    # trial 6 turns locally_optimal 0 -> 1: a tie exchange (delta -2.2e-16)
    # whose tour is not strictly cheaper no longer counts as improving
    "two-opt-er": (
        "ffab8f7fbf97ecb4b4daa29784bc1dd3cb424132428742af4abcfe49dbd2925e",
        "5c8f0855c40a519e7d73cd107af714cc6fec160d0418cfabd73108824d36fb20",
    ),
    "two-opt-er-beyond-cut-cap": (
        "64052f4aa884fa721e6f27ae70c698e1e3554108c06867cce76761fcc494fbb2",
        "a17f2a000de8f4e740be95e6a84370ba8d61932b3625e54cc562212516d2d5ae",
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
