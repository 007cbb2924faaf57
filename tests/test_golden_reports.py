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
DIGESTS = {
    "cdf-complete": (
        "b68f9bd0a257769113c20e337a0a914c45e449233ea41aa5db3332cef6a294b0",
        "2051686dfae97ec46a8f09cfb21af21b458180b632d227f2cd17211a83541581",
    ),
    "cdf-er": (
        "3bf885cb234738cb5b5c2bd0ddde07a29f4b4b0e56386732cbdd7f19735bb5df",
        "524b60eea62321806354f2d6a794009b5d47abf5ce2ab2a27b64914b95948dd8",
    ),
    "concentration-er": (
        "40b691c4692e61c9209ec1f6a6996481294ac3d91425ed1178aee01b991f0f0c",
        "eb37ffd74a58c31b114c51265e7b101483058c7e8c862b2bc79d87985848b2c2",
    ),
    "concentration-er-none-eligible": (
        "77a5f11ec9920a85b53ad3a3b0a5da7d948f8afa9b8503192e5ce662087045bd",
        "92557583be1d79c2b424852dac3897faabcb9f4456fb4d8c547403482a16e223",
    ),
    "ratio-er-none-eligible": (
        "7acc23ff637570dc961e6a052acf72524dd85f18daf3848656a3807663836fb4",
        "90cce1079c4551bad1f6026a056b4192f9463326274b41dcd38fc5be32aba66d",
    ),
    "ratio-insertion-complete": (
        "20801c4c4c1364ca07ceca54d1516d88a39415b1f0ed6d659bfae937f95b1dfb",
        "36ddd26f6d97ef3c1ab1091458ce7302cb17ccd3d9310b90315b646457538a48",
    ),
    "ratio-insertion-er": (
        "bae5c882573acb25db3fac36f88742d34f48fae00eee3df245a3ce1d6c6d2a56",
        "6ca3b3e8bd17ae26fd59615a501601d3438fad01b428fca8c76632c1f57a07a1",
    ),
    "ratio-kmedian-complete": (
        "ed338a0d77b57db72c9c0692409b77004dc197f2dcfff943fa57834823022702",
        "13e98f0155488c8234b9b17e688d1aa2af6374fc88260668dc321d2085d8908d",
    ),
    "ratio-kmedian-er": (
        "092543bbcf98f93a842b95f791bca4f292d0798bd78fcb6237751d6b6f86c48a",
        "f69288e7ad2be346204a8fd181ad123600463806801ed1edfa1efe5b04a36953",
    ),
    "ratio-matching-complete": (
        "6b4a4708dca44006194853fdab11b0a3880a97a0ff0b31f69fd48275e41c9a8e",
        "bb87e5750e34bb199c7bd8b324d3a14f9bd51fb052c2305c623f7d65bde59790",
    ),
    "ratio-matching-er": (
        "5576c51e1b0e3c19d458ad2d8dcdb46e6a27769e8ac647eeb1daeef09fba22d4",
        "2e8f39375a712581f02acb019b03a5afb979db3caf9e0f463fa445ad386ec51a",
    ),
    "ratio-nn-complete": (
        "10326b63ba2c78ed23e3ef239cb62e30ce4d8ed4ab5a30c449973ae1f306668c",
        "7d4e96e76498f0d22e9b99fd2ea1d08718cf20c54820941c01b6d1bbfb232ce7",
    ),
    "ratio-nn-er": (
        "3c2b466d38aeae0fb0578276d0ecec0e44ac062bd56144b8c4ded3ea17ac2ac9",
        "08e32081f1eafca29335c0efbaa16cd0b6a17701ed74fa8e5f2affc6e67109d9",
    ),
    "structure-complete": (
        "3efb1973f6b8f60423eef4ce251373bd86cb718f8565280889e36e294750d909",
        "735b15ae137c33ccdb7e857c24007faf9f94f3478fa35761d63233f6aa2d23cd",
    ),
    "structure-er": (
        "595a2403e80b562b725c23f166865d9e00e163a319d0a51710441d9e8154ce29",
        "49a68bf6d3173095c301ecd44b0d2879b4afe2568e655739d52edbc449f76596",
    ),
    "structure-er-workers-2": (
        "95a7607e6dcd895ba9a1c6ee240d265170c56e145b9a74aa731d89ee451ed8ca",
        "3aa480239625554716576192e9e9d0ece53e2559ee5e825c956a610796fe2965",
    ),
    "tau-complete": (
        "c6c520f3a9323d7b52a4f68041ca1ee0f2e147fbcd2d7d7b74771c763117bc46",
        "5f3267ea47debbc4024aa93a51d13224f820d49c372fd0518b90d9d6667073d6",
    ),
    "tau-er": (
        "eea0a0d1a9a476c6d0dde6e9867d63e13bb3538c45e139941e16d68d71eb4b48",
        "12eb8c943ae8a31fb9a6e467a08d04dd4ea31f43bb3c650272dc4c5bfb68c853",
    ),
    "two-opt-complete": (
        "c1aa358618c45f397e14a7c57fb1814706f56d0656e6904ca7c103d0bca4b22b",
        "c2234a66437598ddc86fa86c8706cbad43d3430221692439d3a4bbb200a09ff8",
    ),
    # trial 6 turns locally_optimal 0 -> 1: a tie exchange (delta -2.2e-16)
    # whose tour is not strictly cheaper no longer counts as improving
    "two-opt-er": (
        "c1e3afd45ef75b24c5b593bce5442b357017f7f5d998e41289f2bfd94fb995d8",
        "81a81d4bf0950e2194fbdac1599ec4dc450fa3eac57ca9a48277b1d02a5c1c4b",
    ),
    "two-opt-er-beyond-cut-cap": (
        "9b48c150be41c3a270c9360dc6033df179c8ac919f8f0de0faf42b770ad84799",
        "04cc0686e50533b21fffd13e5a57253b391e8171911e82815b54ef7b60b41d11",
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
    # a suite lists its columns apart from the dict its statistics return
    report = _report(case)
    eligible = [r for r in report.records if r.values.get("connected", 1) == 1]
    assert all(tuple(r.values) == report.columns for r in eligible)
