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
    "concentration-er": dict(
        suite="concentration", model="er", n=7, p=0.5, trials=10, seed=114, epsilon=0.4
    ),
    "concentration-er-none-eligible": dict(
        suite="concentration", model="er", n=6, p=0.0, trials=3, seed=115
    ),
    "structure-complete": dict(suite="structure", model="complete", n=6, trials=4, seed=116),
    "structure-er": dict(suite="structure", model="er", n=8, p=0.4, trials=6, seed=117),
    "structure-er-workers-2": dict(
        suite="structure", model="er", n=8, p=0.5, trials=6, seed=117, workers=2,
        structure_checks=("cluster", "chi"), delta_fractions=(0.0, 0.3),
    ),
    "cdf-complete": dict(
        suite="cdf", model="complete", n=6, trials=20, seed=118, samples=500, cdf_terms=2
    ),
    "cdf-er": dict(
        suite="cdf", model="er", n=7, p=0.7, trials=20, seed=119, samples=500, tau_ks=(3, 7)
    ),
}

# case -> (sha256 of to_csv(), sha256 of to_json())
# Every JSON digest moved when the config lost its cdf_tol key; dropping
# that key from the earlier JSON gives the new one exactly for the 19 cases
# that are no cdf run, whose CSVs are byte-identical.  The two cdf cases also
# moved in their check lines: both parts now pass iff the band breach is at
# most the DKW slack, and the tau_k parts report the exact breach over all x
# instead of a 24-point grid.  Their records and exp_sum_sup_diff are
# unchanged, and cdf-complete now passes (0.02825 against the old fixed
# tolerance 0.02, against a slack of 0.07279 at 500 samples now).
# Every JSON digest moved again when the config lost its cdf_c key (the
# exp-sum rates are 1..cdf_terms; a common scale leaves the KS distance as it
# is): dropping that key from the earlier JSON gives the new one exactly for
# all 21 cases, and all 21 CSVs are byte-identical.
# The CSVs of the two none-eligible cases moved when the header began to come
# from the records: with no connected draw it is `trial,seed,connected`, and
# each row drops its trailing empty stat cells.  Nothing else in them changed,
# and all 21 JSON digests are unchanged, since the JSON carries no column list.
DIGESTS = {
    "cdf-complete": (
        "b68f9bd0a257769113c20e337a0a914c45e449233ea41aa5db3332cef6a294b0",
        "20f04ad9d48b52cb149c397660f596d9e11e51e527f4012a72042a5e52833043",
    ),
    "cdf-er": (
        "3bf885cb234738cb5b5c2bd0ddde07a29f4b4b0e56386732cbdd7f19735bb5df",
        "42a7e7fe9af9d7b56b2e182f4e4f829f093faf5d5b4ee652eecd74876d18d420",
    ),
    "concentration-er": (
        "40b691c4692e61c9209ec1f6a6996481294ac3d91425ed1178aee01b991f0f0c",
        "216ffb2f9098091efe2ea2d13461e392ef4085d7fa8f49289f685ccd1e46d264",
    ),
    "concentration-er-none-eligible": (
        "9f4c508b691475669115d4df2c69379edf92886469562ced07550e67f33a5395",
        "6e7c6ae0d5ce807f7f5a9ee6244415a20883a386e094aa267ae9bd583549ba9b",
    ),
    "ratio-er-none-eligible": (
        "ab394d5285614c3adee601680a0a3c6ec5205ccfcb425455a7a834ec5a133425",
        "35d8d3c6a4ffeffc7eabecb1867ed7c2216229b6f94a92256d58464a52ee91ce",
    ),
    "ratio-insertion-complete": (
        "20801c4c4c1364ca07ceca54d1516d88a39415b1f0ed6d659bfae937f95b1dfb",
        "e5f234d09ec0033b0162fcb2ad8851aeb2e18e0e652b26e3ab869fecb82a118f",
    ),
    "ratio-insertion-er": (
        "bae5c882573acb25db3fac36f88742d34f48fae00eee3df245a3ce1d6c6d2a56",
        "180b1944c515cf3c621c9fc5dfad53feceee7b944143c5c9ccff124b2bcf63cc",
    ),
    "ratio-kmedian-complete": (
        "ed338a0d77b57db72c9c0692409b77004dc197f2dcfff943fa57834823022702",
        "1758ec495633fd14ce2e7b5f6180cf29cc102e7eb660d418773b86d4fdac3127",
    ),
    "ratio-kmedian-er": (
        "092543bbcf98f93a842b95f791bca4f292d0798bd78fcb6237751d6b6f86c48a",
        "29d20057559aee1084890327b8afa9da6e87b46ca6ba8b4d2624eda5454f0c34",
    ),
    "ratio-matching-complete": (
        "6b4a4708dca44006194853fdab11b0a3880a97a0ff0b31f69fd48275e41c9a8e",
        "f06974adf94c0843500cfcd683d77eb4cb191aeb479c43bdb8f99c355c56bd06",
    ),
    "ratio-matching-er": (
        "5576c51e1b0e3c19d458ad2d8dcdb46e6a27769e8ac647eeb1daeef09fba22d4",
        "b1da6e1d960502eff615f57d8c299c0cbbd100346fb9a95d92226d13f9ff1888",
    ),
    "ratio-nn-complete": (
        "10326b63ba2c78ed23e3ef239cb62e30ce4d8ed4ab5a30c449973ae1f306668c",
        "3ee06a3b60ccbfc5480261b833c3beaca94614dc1231dbedd8271113600e35d6",
    ),
    "ratio-nn-er": (
        "3c2b466d38aeae0fb0578276d0ecec0e44ac062bd56144b8c4ded3ea17ac2ac9",
        "993d17ceb0b4b3524da998c2f9f1c2240f012c333ec991f72e182bc64a417849",
    ),
    "structure-complete": (
        "3efb1973f6b8f60423eef4ce251373bd86cb718f8565280889e36e294750d909",
        "ce9fbef60a3c84884990aca28af9695a9108f684cbafe58b790b37ed50c75d8f",
    ),
    "structure-er": (
        "595a2403e80b562b725c23f166865d9e00e163a319d0a51710441d9e8154ce29",
        "25cde979fbbe34ae53820591efd9ce1e6fa967191d8daa85997b2d9e78c7f53d",
    ),
    "structure-er-workers-2": (
        "95a7607e6dcd895ba9a1c6ee240d265170c56e145b9a74aa731d89ee451ed8ca",
        "88e3f63339122d6015910a35a41497eab5f85d9643f2d8c693cbea0f8d9235ba",
    ),
    "tau-complete": (
        "c6c520f3a9323d7b52a4f68041ca1ee0f2e147fbcd2d7d7b74771c763117bc46",
        "09c4d2997fbbe26865a93d4b0c6989c6dc03cb7a6a3e1be61e2748252811c431",
    ),
    "tau-er": (
        "eea0a0d1a9a476c6d0dde6e9867d63e13bb3538c45e139941e16d68d71eb4b48",
        "70febebc43b0df76553df5b2caba232d047fac47f9e5e1129bec7827724bb8bd",
    ),
    "two-opt-complete": (
        "c1aa358618c45f397e14a7c57fb1814706f56d0656e6904ca7c103d0bca4b22b",
        "29bd9b892ab5c3ac61ceb08c725c0390550d9c41a51e3667e8e519c25e78436e",
    ),
    # trial 6 turns locally_optimal 0 -> 1: a tie exchange (delta -2.2e-16)
    # whose tour is not strictly cheaper no longer counts as improving
    "two-opt-er": (
        "c1e3afd45ef75b24c5b593bce5442b357017f7f5d998e41289f2bfd94fb995d8",
        "c5297309bd8522f8eb46f0aae0fe2e95fd3570d82e482c5b3c15b30948577f75",
    ),
    "two-opt-er-beyond-cut-cap": (
        "9b48c150be41c3a270c9360dc6033df179c8ac919f8f0de0faf42b770ad84799",
        "7b250b903b40e41e9f2077283c359c0c03d1087dfb9f0d8018a1b76153fd0c04",
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
