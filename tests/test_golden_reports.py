"""Golden reports: sha256 digests of rendered CSV and JSON for fixed configs.

The digests were captured before the trial pipeline in ``lab.py`` was
rewritten, so a refactor of that pipeline must leave every report
byte-identical.  A change that alters reports on purpose must say why and
update the digests here.  The ``imported`` model is left out because its
JSON embeds the graph file's path.
"""

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
DIGESTS = {
    "cdf-complete": (
        "fdc8c1cef4e4f7a90ad970a5888bc7ece47a7ef92070430555acbb7ea981380e",
        "3165fa235a44338cae060cd92b283b6f5651a906d5f4785666e59b374c9084ee",
    ),
    "cdf-er": (
        "cea460374eeb2552a80304bd2419ef8bdb0c9a71d00734b65a6bf9ca0144d902",
        "39ba8b761883894d848a5fd424d49574b3aaf372ac71dab83811da113a863ac5",
    ),
    "concentration-er": (
        "40b691c4692e61c9209ec1f6a6996481294ac3d91425ed1178aee01b991f0f0c",
        "929b3cac97b63f3671f15dd570eb4b1bc4064c637866788f4fdf2a9b303ec50c",
    ),
    "concentration-er-none-eligible": (
        "77a5f11ec9920a85b53ad3a3b0a5da7d948f8afa9b8503192e5ce662087045bd",
        "f37f00e6bf61dc3d19473e7bd59f84f76dfcb53c0d867653fa5a7e56193dcf68",
    ),
    "ratio-er-none-eligible": (
        "7acc23ff637570dc961e6a052acf72524dd85f18daf3848656a3807663836fb4",
        "86e0e5c0cebba909166c101b47a9f5b1569408ecf4592adbd514e8839fb896b6",
    ),
    "ratio-insertion-complete": (
        "20801c4c4c1364ca07ceca54d1516d88a39415b1f0ed6d659bfae937f95b1dfb",
        "1949d83e3a9dfe31ea7969a502029a23b41dac449e00eeb0e7fceda2815245bd",
    ),
    "ratio-insertion-er": (
        "bae5c882573acb25db3fac36f88742d34f48fae00eee3df245a3ce1d6c6d2a56",
        "d7eae0913d7f742944d01a0c54746e8cbad9217aa9371805ae74316e7503c826",
    ),
    "ratio-kmedian-complete": (
        "ed338a0d77b57db72c9c0692409b77004dc197f2dcfff943fa57834823022702",
        "3d66ce66d8a2d3f673edc0f276bf8517f9006258d01ba0fbd599cae449767553",
    ),
    "ratio-kmedian-er": (
        "092543bbcf98f93a842b95f791bca4f292d0798bd78fcb6237751d6b6f86c48a",
        "67bd5f74144676696ef669f7606c1193b2f751cf372c3360055418afb999d80d",
    ),
    "ratio-matching-complete": (
        "6b4a4708dca44006194853fdab11b0a3880a97a0ff0b31f69fd48275e41c9a8e",
        "0880679bdb7aec643a772898e97d49ad979c2fbb7fa44add54880bfc581deb62",
    ),
    "ratio-matching-er": (
        "5576c51e1b0e3c19d458ad2d8dcdb46e6a27769e8ac647eeb1daeef09fba22d4",
        "287fe7936a25fb9d9b184d2bcfed57b4b529c5ed5e83383f1109f7b2b96898b6",
    ),
    "ratio-nn-complete": (
        "10326b63ba2c78ed23e3ef239cb62e30ce4d8ed4ab5a30c449973ae1f306668c",
        "a2f55965bd6e9f62e0648803da6a762980e046053f8038ed71cdc5c6b41ed6f3",
    ),
    "ratio-nn-er": (
        "3c2b466d38aeae0fb0578276d0ecec0e44ac062bd56144b8c4ded3ea17ac2ac9",
        "4386f9914f40a4399525ca030101adea8f16a19518291398edf2c371e0051932",
    ),
    "structure-complete": (
        "3efb1973f6b8f60423eef4ce251373bd86cb718f8565280889e36e294750d909",
        "ae1d202f35a33346b46a788466a1670630fc35c8d7201398732a3a7181cebd0c",
    ),
    "structure-er": (
        "595a2403e80b562b725c23f166865d9e00e163a319d0a51710441d9e8154ce29",
        "b033c0033ed0b374c3900a442987f29bcb3710e7785a6a1c701391a15e517f7a",
    ),
    "structure-er-workers-2": (
        "95a7607e6dcd895ba9a1c6ee240d265170c56e145b9a74aa731d89ee451ed8ca",
        "50b818c15e7cf87b547f854e48d0fbfd3f6ef60166e7694a94d918ac06ca7f78",
    ),
    "tau-complete": (
        "c6c520f3a9323d7b52a4f68041ca1ee0f2e147fbcd2d7d7b74771c763117bc46",
        "b9cf3a3ff40d4163e94687a36c48ab22c48de1b2013d341955d6deb34d542c11",
    ),
    "tau-er": (
        "eea0a0d1a9a476c6d0dde6e9867d63e13bb3538c45e139941e16d68d71eb4b48",
        "bdd0ae4000dd3f25d374300b2538581f518d7f1c2ea29817c45cfd27cd25d236",
    ),
    "two-opt-complete": (
        "d905c442e56f04c6ad97818feb99d47525c0bd708263a0368d8f2e4dc9fea3c9",
        "50ba4d1e15f4f9d9763acc21eed1fb5f02ed4cb7168d2c9dfe5fb110ccf3cae7",
    ),
    # trial 6 turns locally_optimal 0 -> 1: a tie exchange (delta -2.2e-16)
    # whose tour is not strictly cheaper no longer counts as improving
    "two-opt-er": (
        "ab6b75a860d14a3019d2cdaa8668c71ca921801fd545c46c23cfe14bbedec5ec",
        "3705a2ec30a8e2ddb6971a37ad47986c126a8ca692132a8dc9b93f6c57fdaa5e",
    ),
    "two-opt-er-beyond-cut-cap": (
        "73fb05ba4686e219cc776c8f217fa889d3d094ef418fa4ef38fc1cf597e3f7fe",
        "dee2ed6f3636d3d4dc743b428fbb3bfc2ca0ebd0edae407e05ef25aa3a6a8082",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_digests_match(case):
    report = run_suite(ExperimentConfig(**CASES[case]))
    assert (_sha(report.to_csv()), _sha(report.to_json())) == DIGESTS[case]
