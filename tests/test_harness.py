import dataclasses
import filecmp
import json
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

import bda.harness
from bda.harness import (EXIT_CONFIG, EXIT_IO, EXIT_NUMERICAL, EXIT_OK,
                         EXIT_USAGE, ConfigError, _max_workers, _run_jobs,
                         cli_main, emit_trace, f1_score,
                         hyperclean_baseline, hyperclean_metrics, load_config,
                         parse_trace, run_experiment, suite_counterexample,
                         suite_hyperclean, default_hyperclean_solver)
from bda.inner import AggregationSchedule
from bda.outer import SolverConfig, solve
from bda.problems import HypercleanConfig, make_hypercleaning, make_remark1


def _write_config(path, **overrides):
    cfg = {
        "problem": "remark1",
        "problem_params": {},
        "method": "rhg",
        "K": 10,
        "lambda": 0.5,
        "mu": 0.1, "su": 0.1, "sl": 0.1,
        "alpha_rule": "harmonic",
        "beta_rule": "constant",
        "T_max": 40,
        "stop_tol": 1e-10,
        "seed": 0,
    }
    cfg.update(overrides)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return path


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _small_record():
    p = make_remark1()
    cfg = SolverConfig(method="rhg", K=8, lam=0.4, T_max=12,
                       sched=AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.1))
    return p, cfg, solve(p, cfg)


def test_trace_round_trip_exact(tmp_path):
    _, _, record = _small_record()
    path = str(tmp_path / "trace.csv")
    emit_trace(record, path)
    cols = parse_trace(path)
    for name in ("phiK", "grad_norm", "err_x", "f_gap", "phi_gap"):
        np.testing.assert_array_equal(cols[name], record.metrics[name])
    assert np.isnan(cols["wall_ms"]).all()


def test_trace_single_row_for_single_iteration(tmp_path):
    p = make_remark1()
    cfg = SolverConfig(method="rhg", K=5, lam=0.4, T_max=1,
                       sched=AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.1))
    record = solve(p, cfg)
    path = str(tmp_path / "trace.csv")
    emit_trace(record, path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) == 2  # header + one row


def test_two_runs_same_config_byte_identical(tmp_path):
    p, cfg, _ = _small_record()
    paths = []
    for tag in ("a", "b"):
        record = solve(p, cfg)
        path = str(tmp_path / f"trace_{tag}.csv")
        emit_trace(record, path)
        paths.append(path)
    assert filecmp.cmp(*paths, shallow=False)


def test_run_experiment_writes_resolved_config(tmp_path):
    cfg_path = _write_config(str(tmp_path / "cfg.json"))
    exp = load_config(cfg_path)
    exp.out_dir = str(tmp_path / "out")
    summaries = run_experiment(exp)
    assert len(summaries) == 1
    with open(tmp_path / "out" / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    # full resolved config with defaults expanded
    for key in ("method", "K", "lambda", "mu", "su", "sl", "alpha_rule",
                "beta_rule", "T_max", "stop_tol", "seed"):
        assert key in summary["config"]
    assert os.path.exists(tmp_path / "out" / "trace.csv")


def test_run_experiment_repeat_sweep_one_file_per_seed(tmp_path):
    cfg_path = _write_config(str(tmp_path / "cfg.json"), repeats=3, T_max=5)
    exp = load_config(cfg_path)
    exp.out_dir = str(tmp_path / "out")
    summaries = run_experiment(exp)
    assert len(summaries) == 3
    for seed in (0, 1, 2):
        assert os.path.exists(tmp_path / "out" / f"trace_{seed}.csv")
        assert os.path.exists(tmp_path / "out" / f"summary_{seed}.json")
    assert [s["config"]["seed"] for s in summaries] == [0, 1, 2]


def test_run_experiment_full_verbosity_inner_trace(tmp_path):
    cfg_path = _write_config(str(tmp_path / "cfg.json"), T_max=3,
                             verbosity="full")
    exp = load_config(cfg_path)
    exp.out_dir = str(tmp_path / "out")
    run_experiment(exp)
    inner = str(tmp_path / "out" / "inner_trace.csv")
    assert os.path.exists(inner)
    with open(inner, encoding="utf-8") as fh:
        header = fh.readline().strip()
    assert header == "t,k,f_val,F_val,proj_active"


def test_inner_trace_written_without_rerunning_inner(tmp_path, monkeypatch):
    import bda.harness

    def no_rerun(*args, **kwargs):
        raise AssertionError("emit_inner_trace re-ran the inner dynamics")

    monkeypatch.setattr(bda.harness, "run_inner", no_rerun)
    exp = load_config(_write_config(str(tmp_path / "cfg.json"), T_max=3,
                                    verbosity="full"))
    exp.out_dir = str(tmp_path / "out")
    run_experiment(exp)
    cols = parse_trace(str(tmp_path / "out" / "inner_trace.csv"))
    assert cols["t"].tolist() == [t for t in range(3) for _ in range(11)]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_run_roundtrip(tmp_path):
    cfg_path = _write_config(str(tmp_path / "cfg.json"))
    out = str(tmp_path / "out")
    assert cli_main(["run", "--config", cfg_path, "--out", out]) == EXIT_OK
    assert os.path.exists(os.path.join(out, "trace.csv"))
    assert os.path.exists(os.path.join(out, "summary.json"))


def test_cli_missing_config_is_config_error(tmp_path):
    code = cli_main(["run", "--config", str(tmp_path / "missing.json")])
    assert code == EXIT_CONFIG


def test_config_unknown_keys_are_config_errors(tmp_path, capsys):
    cfg_path = _write_config(str(tmp_path / "cfg.json"), alpha_rul="scaled",
                             lamda=0.1)
    with pytest.raises(ConfigError, match=r"unknown keys \['alpha_rul', 'lamda'\]"):
        load_config(cfg_path)
    assert cli_main(["run", "--config", cfg_path]) == EXIT_CONFIG
    assert "alpha_rul" in capsys.readouterr().err
    # the beta_value alias still sets both beta keys
    exp = load_config(_write_config(str(tmp_path / "alias.json"), beta_value=0.5))
    assert exp.solver.sched.beta_start == exp.solver.sched.beta_lower == 0.5


def test_cli_run_with_failing_default_step_probes_writes_aborted_summary(tmp_path):
    # ihg on remark1 without lambda: CG meets the singular Hessian at a probe
    cfg_path = _write_config(str(tmp_path / "cfg.json"), method="ihg")
    with open(cfg_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    del cfg["lambda"]
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    out = tmp_path / "out"
    # the aborted run writes its files, then exits as a CapabilityError would
    assert cli_main(["run", "--config", cfg_path, "--out", str(out)]) == EXIT_CONFIG
    text = (out / "summary.json").read_text(encoding="utf-8")
    summary = json.loads(text, parse_constant=lambda c: pytest.fail(c))
    assert summary["status"] == "aborted"
    assert summary["error_class"] == "CapabilityError"
    assert summary["iterations"] == 0
    assert summary["resolved_lambda"] is None
    assert summary["final_grad_norm"] is None
    assert "not positive definite" in summary["error"]
    assert (out / "trace.csv").exists()


def test_cli_run_numerical_abort_exits_4_and_names_the_seeds(tmp_path, capsys,
                                                            monkeypatch):
    base = make_remark1()

    def exploding_grad(x, y):
        g = np.asarray(base.grad_y_f(x, y), dtype=float)
        return g / 0.0 if x[0] < 0.3 else g   # blows up once x drifts left

    monkeypatch.setattr(bda.harness, "make_problem", lambda name, **kw:
                        dataclasses.replace(base, grad_y_f=exploding_grad))
    cfg_path = _write_config(str(tmp_path / "cfg.json"), seeds=[3, 4],
                             x0=[0.8], **{"lambda": 2.0})
    out = tmp_path / "out"
    with np.errstate(divide="ignore", invalid="ignore"):
        code = cli_main(["run", "--config", cfg_path, "--out", str(out)])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "seed 3 aborted (NumericalError)" in err
    assert "seed 4 aborted (NumericalError)" in err
    for seed in (3, 4):
        summary = json.loads((out / f"summary_{seed}.json").read_text("utf-8"))
        assert summary["status"] == "aborted"
        assert summary["error_class"] == "NumericalError"
        assert (out / f"trace_{seed}.csv").exists()


def test_readme_example_config_loads(tmp_path):
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"experiment config is flat JSON:\s*```json\n(.*?)```",
                      text, re.S).group(1)
    path = tmp_path / "cfg.json"
    path.write_text(block, encoding="utf-8")
    exp = load_config(str(path))   # unknown keys would be a ConfigError
    assert exp.problem_name == "counterexample"
    assert exp.build_problem().n == exp.problem_params["n"]


def test_cli_bad_json_is_config_error(tmp_path):
    path = str(tmp_path / "broken.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{not json")
    assert cli_main(["run", "--config", path]) == EXIT_CONFIG


def test_cli_out_under_regular_file_is_io_error(tmp_path, capsys):
    cfg_path = _write_config(str(tmp_path / "cfg.json"), T_max=2)
    blocker = tmp_path / "plain_file"
    blocker.write_text("not a directory")
    code = cli_main(["run", "--config", cfg_path,
                     "--out", str(blocker / "out")])
    assert code == EXIT_IO
    assert "I/O failure" in capsys.readouterr().err


def test_cli_directory_on_trace_path_is_io_error(tmp_path, capsys):
    cfg_path = _write_config(str(tmp_path / "cfg.json"), T_max=2)
    out = tmp_path / "out"
    (out / "trace.csv").mkdir(parents=True)
    assert cli_main(["run", "--config", cfg_path, "--out", str(out)]) == EXIT_IO
    assert "I/O failure" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["trace.csv"]   # no stray temp file


def test_run_jobs_in_order_on_the_calling_thread():
    seen = []

    def job(i):
        seen.append((i, threading.get_ident()))
        return i * i

    assert _run_jobs([lambda i=i: job(i) for i in range(5)]) == [0, 1, 4, 9, 16]
    assert seen == [(i, threading.get_ident()) for i in range(5)]
    assert _max_workers() == 1


def test_module_entry_point_runs_without_runpy_warning():
    import bda
    src = os.path.dirname(os.path.dirname(os.path.abspath(bda.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "bda.harness",
         "--help"], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "RuntimeWarning" not in done.stderr
    done = subprocess.run(
        [sys.executable, "-c", "import bda; print(bda.harness.EXIT_IO)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert done.stdout.strip() == str(EXIT_IO), done.stderr


def test_cli_unknown_subcommand_exit_2(capsys):
    assert cli_main(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()


def test_cli_gradcheck(capsys):
    code = cli_main(["gradcheck", "--problem", "remark1", "--method", "rhg",
                     "--K", "20"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "max relative error" in out
    printed = float(out.strip().rsplit(" ", 1)[-1])
    assert printed <= 1e-5


def test_cli_gradcheck_rejects_truncated_trhg(capsys):
    # a truncated estimator is biased, so differences of phi_K cannot check it
    code = cli_main(["gradcheck", "--problem", "remark1", "--method", "trhg",
                     "--K", "10"])
    assert code == EXIT_CONFIG
    assert "bda and rhg" in capsys.readouterr().err


def test_cli_verify_lemma1(tmp_path, capsys):
    out = str(tmp_path / "v")
    assert cli_main(["verify", "--suite", "lemma1", "--out", out]) == EXIT_OK
    with open(os.path.join(out, "verify_lemma1.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    assert all(r["status"] == "pass" for r in payload["reports"])
    capsys.readouterr()


@pytest.mark.slow
def test_cli_verify_rate_suite(tmp_path, capsys):
    out = str(tmp_path / "v")
    assert cli_main(["verify", "--suite", "rate", "--out", out]) == EXIT_OK
    with open(os.path.join(out, "verify_rate.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    names = {r["check_name"]: r["status"] for r in payload["reports"]}
    assert names["rate_bound"] == "pass"
    # the corrupted-constant control counts as pass only when it fires
    assert names["rate_bound_negative_control"] == "pass"
    capsys.readouterr()


# ---------------------------------------------------------------------------
# counter-example suite
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_suite_counterexample_files_and_claims(tmp_path):
    out = str(tmp_path / "suite")
    summary = suite_counterexample(n=50, K=20, methods=["bda", "rhg"],
                                   out=out, T_max=700, lam=0.01, num_inits=3)
    for fname in ("bda_trace.csv", "rhg_trace.csv", "init_sweep.csv",
                  "summary.json", "alpha_zero_trace.csv",
                  "proj_with_projection_trace.csv"):
        assert os.path.exists(os.path.join(out, fname)), fname

    # every initialization: aggregation lands an order of magnitude closer
    per_init = {}
    for row in summary["init_sweep"]:
        per_init.setdefault(row["init"], {})[row["method"]] = row["final_err_x"]
    for vals in per_init.values():
        assert vals["bda"] <= 0.1 * vals["rhg"]

    # dropping the UL term entirely gives the worst final error
    alpha = summary["alpha_sweep"]
    zero_err = alpha["alpha_zero"]["final_err_x"]
    assert zero_err >= max(v["final_err_x"] for v in alpha.values()) - 1e-12

    # projection accelerates convergence from a far LL start
    proj = summary["projection_sweep"]
    assert (proj["with_projection"]["iterations"]
            <= proj["without_projection"]["iterations"])
    assert proj["with_projection"]["status"] == "converged"


def test_suite_counterexample_rejects_unknown_methods(tmp_path):
    from bda.numerics import ContractError
    with pytest.raises(ContractError):
        suite_counterexample(2, 5, ["ihg"], str(tmp_path / "x"))


# ---------------------------------------------------------------------------
# hyper-cleaning suite
# ---------------------------------------------------------------------------

def test_f1_score_conventions():
    assert f1_score([True, False], [True, False]) == 1.0
    assert f1_score([False, False], [False, False]) == 1.0  # all-correct
    assert f1_score([False, True], [True, False]) == 0.0
    assert f1_score([True, True], [True, False]) == pytest.approx(2 / 3)


def test_zero_corruption_methods_match_baseline(tmp_path):
    cfg = HypercleanConfig(corruption_fraction=0.0, seed=1,
                           n_train=30, n_val=120, n_test=120)
    problem = make_hypercleaning(cfg)
    sched = default_hyperclean_solver(problem, "bda").sched
    base = hyperclean_baseline(problem, K=40, sched=sched)
    assert base["f1"] == 1.0   # nothing flagged, nothing corrupted
    for method in ("rhg", "bda"):
        record = solve(problem, default_hyperclean_solver(problem, method,
                                                          seed=1))
        mets = hyperclean_metrics(problem, record.x_final, record.y_final)
        assert abs(mets["val_acc"] - base["val_acc"]) <= 0.01


@pytest.mark.slow
def test_suite_hyperclean_outputs(tmp_path):
    out = str(tmp_path / "hc")
    cfg = HypercleanConfig(corruption_fraction=0.5, seed=1)
    summary = suite_hyperclean(cfg, ["bda", "obda"], out)
    assert os.path.exists(os.path.join(out, "hyperclean_table.csv"))
    assert os.path.exists(os.path.join(out, "dataset.csv"))
    # mean weight on corrupted samples sits well below the clean mean
    bda_row = next(r for r in summary["results"] if r["method"] == "bda")
    assert (bda_row["mean_sigma_corrupted"]
            <= bda_row["mean_sigma_clean"] - 0.2)
    with open(os.path.join(out, "dataset.csv"), encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    assert header[:4] == ["split", "index", "label", "corrupted_flag"]


def test_dataset_dump_roundtrip(tmp_path):
    cfg = HypercleanConfig(corruption_fraction=0.4, seed=2, n_train=10,
                           n_val=10, n_test=10)
    from bda.problems import hyperclean_dataset_rows
    rows = hyperclean_dataset_rows(make_hypercleaning(cfg))
    assert len(rows) == 30
    splits = {r[0] for r in rows}
    assert splits == {"train", "val", "test"}
    corrupted = sum(r[3] for r in rows if r[0] == "train")
    assert corrupted == 4
