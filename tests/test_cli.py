import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rspmetric import VERTEX_CAP, Metric, heuristics, lab, read_graph, read_metric
from rspmetric.cli import _build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def strict_json(text):
    """Parse JSON that holds no Infinity, -Infinity or NaN."""
    def reject(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=reject)


# -- gen ------------------------------------------------------------------------


def test_gen_complete(tmp_path, capsys):
    path = str(tmp_path / "k6.txt")
    code, out, _ = run_cli(capsys, "gen", "--model", "complete", "--n", "6", "--out", path)
    assert code == 0
    g = read_graph(path)
    assert g.n == 6 and g.m == 15


def test_gen_er_is_seeded(tmp_path, capsys):
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    for path in (a, b):
        code, _, _ = run_cli(
            capsys, "gen", "--model", "er", "--n", "12", "--p", "0.5", "--seed", "9", "--out", path
        )
        assert code == 0
    assert Path(a).read_text() == Path(b).read_text()


def test_gen_er_without_p_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "gen", "--model", "er", "--n", "5", "--out", str(tmp_path / "x.txt")
    )
    assert code == 2
    assert "needs --p" in err


def test_gen_above_the_vertex_cap_is_usage_error(tmp_path, capsys):
    path = tmp_path / "k.txt"
    n = str(VERTEX_CAP + 1)
    code, _, err = run_cli(capsys, "gen", "--model", "complete", "--n", n, "--out", str(path))
    assert code == 2
    assert "vertex cap" in err
    assert not path.exists()


# -- cutparams / metric -----------------------------------------------------------


def test_cutparams_on_complete_graph(tmp_path, capsys):
    path = str(tmp_path / "k5.txt")
    run_cli(capsys, "gen", "--model", "complete", "--n", "5", "--out", path)
    code, out, _ = run_cli(capsys, "cutparams", "--graph", path)
    assert code == 0
    assert json.loads(out) == {"alpha": 1.0, "beta": 1.0}


def test_cutparams_on_complete_graph_beyond_the_cut_cap(tmp_path, capsys):
    path = str(tmp_path / "k30.txt")
    run_cli(capsys, "gen", "--model", "complete", "--n", "30", "--out", path)
    code, out, _ = run_cli(capsys, "cutparams", "--graph", path)
    assert code == 0
    assert json.loads(out) == {"alpha": 1.0, "beta": 1.0}


def test_cutparams_disconnected_is_error(tmp_path, capsys):
    path = tmp_path / "disc.txt"
    path.write_text("4 2\n1 2\n3 4\n")
    code, _, err = run_cli(capsys, "cutparams", "--graph", str(path))
    assert code == 2
    assert "cut" in err


def test_metric_of_a_disconnected_graph_prints_strict_json(tmp_path, capsys):
    # the infinite diameter used to print as Infinity, which is no JSON
    path = tmp_path / "disc.txt"
    path.write_text("4 2\n1 2\n3 4\n")
    code, out, _ = run_cli(capsys, "metric", "--graph", str(path))
    assert code == 0
    assert strict_json(out) == {"connected": False, "diameter": None, "exported": None, "n": 4}


def test_metric_export_round_trip(tmp_path, capsys):
    gpath, mpath = str(tmp_path / "g.txt"), str(tmp_path / "m.txt")
    run_cli(capsys, "gen", "--model", "complete", "--n", "7", "--out", gpath)
    code, out, _ = run_cli(
        capsys, "metric", "--graph", gpath, "--seed", "4", "--export", mpath
    )
    assert code == 0
    info = json.loads(out)
    assert info["n"] == 7 and info["connected"] is True
    metric = read_metric(mpath)
    assert isinstance(metric, Metric)
    assert metric.n == 7


def test_metric_uses_stored_weights_when_present(tmp_path, capsys):
    path = tmp_path / "wg.txt"
    path.write_text("3 3\n1 2 0.2\n1 3 0.9\n2 3 0.3\n")
    mpath = str(tmp_path / "m.txt")
    code, out, _ = run_cli(
        capsys, "metric", "--graph", str(path), "--seed", "123", "--export", mpath
    )
    assert code == 0
    metric = read_metric(mpath)
    assert metric.d(1, 3) == pytest.approx(0.5, abs=1e-15)


# -- heur -------------------------------------------------------------------------


@pytest.fixture
def weighted_file(tmp_path):
    path = tmp_path / "wg.txt"
    path.write_text("4 6\n1 2 1.1\n1 3 2.0\n1 4 4.5\n2 3 0.9\n2 4 3.4\n3 4 2.5\n")
    return str(path)


def test_heur_greedy_matching(weighted_file, capsys):
    code, out, _ = run_cli(capsys, "heur", "greedy-matching", "--graph", weighted_file)
    assert code == 0
    got = json.loads(out)
    assert got["cost"] == pytest.approx(5.4, rel=1e-12)
    assert got["pairs"] == "2-3 1-4"


def test_heur_nn_and_two_opt(weighted_file, capsys):
    code, out, _ = run_cli(capsys, "heur", "nn", "--graph", weighted_file, "--start", "1")
    assert code == 0
    assert json.loads(out)["cost"] == pytest.approx(9.0, rel=1e-12)
    code, out, _ = run_cli(capsys, "heur", "two-opt", "--graph", weighted_file)
    assert code == 0
    got = json.loads(out)
    assert got["cost"] <= got["initial_cost"]


def test_heur_insertion_rules(weighted_file, capsys):
    for rule in ("nearest", "farthest", "cheapest", "random"):
        code, out, _ = run_cli(
            capsys, "heur", "insertion", "--graph", weighted_file, "--rule", rule, "--seed", "3"
        )
        assert code == 0
        assert json.loads(out)["cost"] >= 9.0 - 1e-12


def test_heur_kmedian(weighted_file, capsys):
    code, out, _ = run_cli(capsys, "heur", "kmedian", "--graph", weighted_file, "--k", "1")
    assert code == 0
    assert json.loads(out)["cost"] == pytest.approx(7.6, rel=1e-12)
    code, _, err = run_cli(capsys, "heur", "kmedian", "--graph", weighted_file)
    assert code == 2
    assert err == "error: kmedian needs --k\n"


def test_heur_kmedian_checks_k_before_building_the_centres(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "k12.txt")
    assert run_cli(capsys, "gen", "--model", "complete", "--n", "12", "--out", path)[0] == 0

    def refuse(k):
        raise AssertionError(f"first_k_centers({k}) called with k out of range")

    monkeypatch.setattr(heuristics, "first_k_centers", refuse)
    for k in ("13", "0"):
        code, out, err = run_cli(capsys, "heur", "kmedian", "--graph", path, "--k", k)
        assert (code, out) == (2, "")
        assert err.count("error:") == 1 and f"k={k}" in err
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "heur", "kmedian", "--graph", path, "--k", "12")
    assert code == 0 and json.loads(out)["cost"] == 0.0  # k = n: every vertex serves itself


def test_heur_csv_format(weighted_file, capsys):
    code, out, _ = run_cli(
        capsys, "heur", "nn", "--graph", weighted_file, "--format", "csv"
    )
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.split(",") == ["cost", "order"]
    assert row.split(",")[1] == "1 2 3 4"


# -- suite ------------------------------------------------------------------------


def write_config(tmp_path, **kwargs):
    path = tmp_path / "cfg.txt"
    path.write_text("".join(f"{k}={v}\n" for k, v in kwargs.items()))
    return str(path)


def test_suite_pass_exit_zero(tmp_path, capsys):
    cfg = write_config(
        tmp_path, suite="ratio", kind="matching", model="complete", n=8, trials=10, seed=3
    )
    code, out, _ = run_cli(capsys, "suite", "ratio", "--config", cfg)
    assert code == 0
    assert out.splitlines()[0].startswith("trial,seed,")
    assert "#summary,result,passed=true" in out


def test_suite_failure_exit_one(tmp_path, capsys):
    # p = 0 never draws a connected graph, so the eligible-trials check fails
    cfg = write_config(
        tmp_path, suite="ratio", kind="matching", model="er", n=6, p=0, trials=3, seed=5
    )
    code, out, _ = run_cli(capsys, "suite", "ratio", "--config", cfg)
    assert code == 1
    assert "check:eligible-trials,passed=false" in out


def test_suite_name_mismatch_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, suite="tau", model="complete", n=4, trials=2, seed=1)
    code, _, err = run_cli(capsys, "suite", "ratio", "--config", cfg)
    assert code == 2
    assert "suite" in err


def test_suite_invalid_config_is_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, suite="ratio", kind="matching", model="complete", n=9, trials=5)
    code, _, err = run_cli(capsys, "suite", "ratio", "--config", cfg)
    assert code == 2
    assert "even" in err


def test_suite_cdf_is_usage_error(tmp_path, capsys):
    # its CDF brackets run in every tau report, its exponential-sum check is an RNG test
    cfg = write_config(tmp_path, suite="cdf", n=6, trials=2)
    with pytest.raises(SystemExit) as exc:
        main(["suite", "cdf", "--config", cfg])
    assert exc.value.code == 2
    code, _, err = run_cli(capsys, "suite", "tau", "--config", cfg)
    assert code == 2
    assert "suite=cdf" in err
    with pytest.raises(lab.ConfigInvalidError, match=r"suite must be one of \(.*'tau'"):
        lab.run_suite(lab.parse_config_file(cfg))


@pytest.mark.parametrize("key, text", [("n", "12.0"), ("tau_ks", "2,x")])
def test_suite_unparsable_config_value_is_usage_error(tmp_path, capsys, key, text):
    cfg = write_config(tmp_path, suite="tau", **{key: text})
    code, out, err = run_cli(capsys, "suite", "tau", "--config", cfg)
    assert code == 2
    assert out == ""
    assert err == f"error: config key {key!r}: cannot parse {text!r}\n"


@pytest.mark.parametrize("model", [{"model": "complete"}, {"model": "er", "p": 0.5}],
                         ids=["complete", "er"])
@pytest.mark.parametrize("check", ["chi", "cluster"])
def test_suite_cut_parameters_of_one_vertex_is_usage_error(tmp_path, capsys, model, check):
    cfg = write_config(tmp_path, suite="structure", n=1, trials=2, structure_checks=check, **model)
    code, _, err = run_cli(capsys, "suite", "structure", "--config", cfg)
    assert code == 2
    assert "needs n >= 2" in err


def test_choices_are_the_lab_and_heuristics_tables():
    def choices(command, dest):
        sub = next(a for a in _build_parser()._actions if a.dest == "command")
        return tuple(next(a for a in sub.choices[command]._actions if a.dest == dest).choices)

    assert choices("suite", "name") == lab.SUITES == tuple(lab._SUITES)
    assert choices("heur", "rule") == heuristics.INSERTION_RULES
    assert choices("heur", "init") == heuristics.TWO_OPT_INITS


def test_suite_writes_output_file_deterministically(tmp_path, capsys):
    out1, out2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
    for out in (out1, out2):
        cfg = write_config(
            tmp_path, suite="two-opt", model="complete", n=8, trials=12, seed=9, out=out
        )
        code, _, _ = run_cli(capsys, "suite", "two-opt", "--config", cfg)
        assert code == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_suite_json_format(tmp_path, capsys):
    cfg = write_config(
        tmp_path, suite="ratio", kind="nn", model="complete", n=6, trials=5, seed=2,
        format="json",
    )
    code, out, _ = run_cli(capsys, "suite", "ratio", "--config", cfg)
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["passed"] is True


# -- bounds -----------------------------------------------------------------------


def test_bounds_eval(capsys):
    code, out, _ = run_cli(capsys, "bounds", "eval", "harmonic", "--params", "n=4")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(25 / 12)


@pytest.mark.filterwarnings("error")
def test_bounds_eval_tau_cdf_at_a_huge_x_is_one_silent_json_line(capsys):
    # its rates overflow to inf, which must not surface as a numpy warning
    code, out, err = run_cli(capsys, "bounds", "eval", "tau-cdf",
                             "--params", "x=1e308,n=10,k=5,alpha=0.5,beta=1")
    assert (code, err) == (0, "")
    assert out.count("\n") == 1
    assert strict_json(out)["value"] == [1.0, 1.0]


def test_bounds_eval_harmonic_huge_n_returns_promptly():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from rspmetric.cli import main; sys.exit(main(sys.argv[1:]))",
         "bounds", "eval", "harmonic", "--params", "n=1000000000000"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == pytest.approx(28.208236780830582, rel=1e-14)


def test_bounds_eval_pair_output(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "eval", "ball-tail", "--params", "delta=0.5,n=20,alpha=1"
    )
    assert code == 0
    lo, hi = strict_json(out)["value"]
    assert lo == pytest.approx(7.38905609893065)
    assert hi == pytest.approx(0.1353352832366127)


def test_usage_errors_print_one_error_line(tmp_path, weighted_file, capsys):
    # each of these used to print its message without the "error:" prefix
    cfg = write_config(tmp_path, suite="tau", n=6)
    commented = tmp_path / "commented.txt"
    commented.write_text("3 1\n1 2 # the only edge\n")  # the graph file has no comments
    cases = [
        (("metric", "--graph", str(commented)), "'#'"),
        (("gen", "--model", "er", "--n", "5", "--out", str(tmp_path / "x.txt")), "needs --p"),
        (("heur", "kmedian", "--graph", weighted_file), "needs --k"),
        (("suite", "ratio", "--config", cfg), "suite=tau"),
        (("bounds", "eval", "harmonic", "--params", "nonsense"), "'nonsense'"),
    ]
    for argv, words in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1 and words in err, err


def test_bounds_eval_bad_params(capsys):
    code, _, err = run_cli(capsys, "bounds", "eval", "harmonic", "--params", "m=4")
    assert code == 2
    code, _, err = run_cli(capsys, "bounds", "eval", "harmonic", "--params", "nonsense")
    assert code == 2


HUGE_N = 10**399 + 7  # 400 digits, above the largest float


@pytest.mark.parametrize(
    "formula, params",
    [
        ("diameter-tail", "c=-10000,n=10"),  # used to overflow
        ("ball-tail", "delta=1,n=10,alpha=-1000"),  # used to overflow
        ("cluster-scale", "delta=1,n=10,alpha=-2"),  # used to give s_delta < 1
        ("exp-sum-cdf", "c=1,n=3,a=nan"),  # used to print NaN
        ("tau-cdf", "x=nan,n=10,k=5,alpha=0.5,beta=1"),
        # an infinite bracket end used to print as Infinity, which is no JSON
        ("tau-expectation", "n=6,k=3,alpha=1e-320,beta=1"),
        # an n beyond the float range used to die with an OverflowError traceback
        pytest.param("ball-tail", f"delta=1,n={HUGE_N},alpha=1", id="ball-tail-huge-n"),
        pytest.param("tau-expectation", f"n={HUGE_N},k=3,alpha=1,beta=1", id="tau-expectation-huge-n"),
        pytest.param("exp-sum-cdf", f"c=1,n={HUGE_N},a=1", id="exp-sum-cdf-huge-n"),
        pytest.param("diameter-tail", f"c=10,n={HUGE_N}", id="diameter-tail-huge-n"),
        pytest.param("sm-tail", f"phi=0.5,c=0.1,n={HUGE_N}", id="sm-tail-huge-n"),
        pytest.param("tau-cdf", f"x=1,n={HUGE_N},k=3,alpha=1,beta=1", id="tau-cdf-huge-n"),
        pytest.param("cluster-scale", f"delta=1,n={HUGE_N},alpha=1", id="cluster-scale-huge-n"),
        # an infinite input used to be echoed as Infinity, n=0 to give [0.5, 0.0], and
        # n=-3 to die with a math domain error
        pytest.param("ball-tail", "delta=inf,n=10,alpha=1", id="ball-tail-inf-delta"),
        pytest.param("cluster-scale", "delta=1,n=0,alpha=1", id="cluster-scale-n-0"),
        pytest.param("cluster-scale", "delta=1,n=-3,alpha=1", id="cluster-scale-n-negative"),
    ],
)
def test_bounds_eval_out_of_range_is_usage_error(capsys, formula, params):
    code, out, err = run_cli(capsys, "bounds", "eval", formula, "--params", params)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    # the harmonic sum takes the same huge n: its asymptotic series needs no float n
    assert run_cli(capsys, "bounds", "eval", "harmonic", "--params", f"n={HUGE_N}")[0] == 0


def test_bounds_eval_of_a_deleted_formula_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "eval", "janson-lower-tail", "--params", "lam=0.5,mu=1,a_star=1"])
    assert exc.value.code == 2


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
