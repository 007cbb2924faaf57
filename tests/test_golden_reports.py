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
# Every JSON digest moved when the config lost its four *_cap keys, and the
# three two-opt CSV digests when the iteration_scale and within_scale columns
# and the iteration-scale check were deleted.  Dropping those from the earlier
# reports gives the new ones exactly; the other 18 CSVs are byte-identical.
DIGESTS = {
    "cdf-complete": (
        "fdc8c1cef4e4f7a90ad970a5888bc7ece47a7ef92070430555acbb7ea981380e",
        "4ded94f673c5cee58a72dc1dc334e77e2adff60cc999d6f63dfef9a86723b960",
    ),
    "cdf-er": (
        "cea460374eeb2552a80304bd2419ef8bdb0c9a71d00734b65a6bf9ca0144d902",
        "21b7a6f612369ee1fa317c34c543eb5e7e34918d0a22ffe5d299cdcce4efbbab",
    ),
    "concentration-er": (
        "40b691c4692e61c9209ec1f6a6996481294ac3d91425ed1178aee01b991f0f0c",
        "ad1f4271a90bbe47938097075e10b50ebed59a1e75421e24ef7e5cfa72353a80",
    ),
    "concentration-er-none-eligible": (
        "77a5f11ec9920a85b53ad3a3b0a5da7d948f8afa9b8503192e5ce662087045bd",
        "d0b1613f5ec7077888225e5a89dd5ff49fbd124f124c9bcbed5780ac8f759d3e",
    ),
    "ratio-er-none-eligible": (
        "7acc23ff637570dc961e6a052acf72524dd85f18daf3848656a3807663836fb4",
        "f2e8696c4ada5d9370cf79c48c3a6876ca54e3f0a088986d0efbbd77d5acdfae",
    ),
    "ratio-insertion-complete": (
        "20801c4c4c1364ca07ceca54d1516d88a39415b1f0ed6d659bfae937f95b1dfb",
        "0bb57feb66e80d803e30c247e3f3f755e3fa44fb23a061f9a8c35837c2820895",
    ),
    "ratio-insertion-er": (
        "bae5c882573acb25db3fac36f88742d34f48fae00eee3df245a3ce1d6c6d2a56",
        "34b9c1698329282c5cc9f8aef224c8d5076c6594434b41bb8afb93e98cfab116",
    ),
    "ratio-kmedian-complete": (
        "ed338a0d77b57db72c9c0692409b77004dc197f2dcfff943fa57834823022702",
        "a60f7d1080861fbf213b49a7a43aff2ec6ea2de143f74ca22f83b9233f060f5e",
    ),
    "ratio-kmedian-er": (
        "092543bbcf98f93a842b95f791bca4f292d0798bd78fcb6237751d6b6f86c48a",
        "6e0a939bce808fa88adcdcd3b9178946bc823fd700a2c09afa8dde3ef51874fd",
    ),
    "ratio-matching-complete": (
        "6b4a4708dca44006194853fdab11b0a3880a97a0ff0b31f69fd48275e41c9a8e",
        "01997eb793f3006ad7badbe2376864f27d2786ae23a5bf278312634f4b08f151",
    ),
    "ratio-matching-er": (
        "5576c51e1b0e3c19d458ad2d8dcdb46e6a27769e8ac647eeb1daeef09fba22d4",
        "764593d49828d25c33dfccb066148c652763915c06e9aaa2f8e3437081b9ea87",
    ),
    "ratio-nn-complete": (
        "10326b63ba2c78ed23e3ef239cb62e30ce4d8ed4ab5a30c449973ae1f306668c",
        "1084d54cb8eff3f55382deb50ebcf76bd1825f069f76a5f3ae8788f79ddb048e",
    ),
    "ratio-nn-er": (
        "3c2b466d38aeae0fb0578276d0ecec0e44ac062bd56144b8c4ded3ea17ac2ac9",
        "37fe677bd630ce3bfb5c67a8a8001f9d31cb70a6d9c411ead4599710b1b5fdc5",
    ),
    "structure-complete": (
        "3efb1973f6b8f60423eef4ce251373bd86cb718f8565280889e36e294750d909",
        "20ce5fda5924c92a77ad7074931e92d08bdd795718fd6cbecfa8f89507256744",
    ),
    "structure-er": (
        "595a2403e80b562b725c23f166865d9e00e163a319d0a51710441d9e8154ce29",
        "f0f2ac3d31a026aa8e277c1ba637266dd29a50f57faf4da15f6777428a336d3b",
    ),
    "structure-er-workers-2": (
        "95a7607e6dcd895ba9a1c6ee240d265170c56e145b9a74aa731d89ee451ed8ca",
        "a41637e250175026bac40c28666697063310fca5db59f54943805976780ba224",
    ),
    "tau-complete": (
        "c6c520f3a9323d7b52a4f68041ca1ee0f2e147fbcd2d7d7b74771c763117bc46",
        "db602b7a17cf8775b588be7065b7c7e8e336eaff32fcca464a6848c6c2902c97",
    ),
    "tau-er": (
        "eea0a0d1a9a476c6d0dde6e9867d63e13bb3538c45e139941e16d68d71eb4b48",
        "5e6cd2e8f2839107a6e0249a19bfb35a64706f7b56f7018ed2c3024960169e39",
    ),
    "two-opt-complete": (
        "c1aa358618c45f397e14a7c57fb1814706f56d0656e6904ca7c103d0bca4b22b",
        "1f0dd929e9d769a030f0cbb35d09e514f0d107e0b2deb1fcc03c7901945711b4",
    ),
    # trial 6 turns locally_optimal 0 -> 1: a tie exchange (delta -2.2e-16)
    # whose tour is not strictly cheaper no longer counts as improving
    "two-opt-er": (
        "c1e3afd45ef75b24c5b593bce5442b357017f7f5d998e41289f2bfd94fb995d8",
        "abe30fcd153c3558d847829b091716ae8130023ceaf984cb8345d2095d4c922a",
    ),
    "two-opt-er-beyond-cut-cap": (
        "9b48c150be41c3a270c9360dc6033df179c8ac919f8f0de0faf42b770ad84799",
        "5a16ab54a3ca0f8e56cf02bf047f5945a4d63cfcb68f968d2112df191f50d4df",
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
