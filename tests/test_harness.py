import dataclasses
import filecmp
import json
import math
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
                         cli_main, emit_inner_trace, emit_trace, f1_score,
                         hyperclean_baseline, hyperclean_metrics, load_config,
                         parse_trace, run_experiment, suite_counterexample,
                         suite_hyperclean, default_hyperclean_solver,
                         verify_suite, write_summary)
from bda.inner import AggregationSchedule
from bda.numerics import ContractError, NumericalError
from bda.outer import METHODS, SolverConfig, config_dict, solve
from bda.problems import (HypercleanConfig, make_counterexample,
                          make_hypercleaning, make_lls_quadratic, make_remark1)


_RUN_CONFIG = {
    "problem": "remark1",
    "problem_params": {},
    "method": "rhg",
    "K": 10,
    "lambda": 0.5,
    "mu": 0.1, "su": 0.1, "sl": 0.1,
    "alpha_rule": "harmonic",
    "T_max": 40,
    "stop_tol": 1e-10,
    "seed": 0,
}


def _write_config(path, **overrides):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**_RUN_CONFIG, **overrides}, fh)
    return path


def _python(*args, one_cpu=False):
    """``python *args`` in a child process that imports this checkout's
    ``bda``.  With ``one_cpu`` the child is pinned to one CPU before it
    execs, so the pin holds before numpy loads, as under ``taskset -c 0``;
    the calling process keeps its own affinity."""
    import bda
    src = os.path.dirname(os.path.dirname(os.path.abspath(bda.__file__)))
    cpu = {min(os.sched_getaffinity(0))}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120,
        preexec_fn=(lambda: os.sched_setaffinity(0, cpu)) if one_cpu else None)


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
                "T_max", "stop_tol", "seed"):
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


def test_inner_trace_needs_kept_rows(tmp_path):
    _, _, record = _small_record()  # solved without keep_inner
    path = str(tmp_path / "inner_trace.csv")
    with pytest.raises(ContractError, match="keep_inner"):
        emit_inner_trace(record, path)
    assert not os.path.exists(path)


_SEEDS = {"K": 5, "T_max": 20, "repeats": 2, "verbosity": "full"}
_LLS = {"problem": "lls_quadratic",
        "problem_params": {"n": 3, "m": 4, "seed": 0}}
_HC_RUN = {"problem": "hyperclean", "method": "bda", "T_max": 5,
           "su": 0.001, "sl": 0.001}
_RERUN = (False, False)


@pytest.mark.parametrize("argv,config,pins,files", [
    # no lambda, so the seeded default-step probes run as well
    pytest.param(["run"], {**_RUN_CONFIG, "method": "bda", "T_max": 15,
                           "verbosity": "full", "lambda": None},
                 _RERUN, ["trace.csv", "inner_trace.csv"], id="run-remark1"),
    pytest.param(["verify", "--suite", "all"], None, _RERUN,
                 ["verify_all.json"], id="verify-all"),
    pytest.param(["run"], {**_LLS, "method": "bda", **_SEEDS}, _RERUN,
                 ["*.csv"], id="run-lls-bda-seeds"),
    pytest.param(["run"], {"problem": "remark1", "method": "bda", **_SEEDS},
                 _RERUN, ["*.csv"], id="run-remark1-bda-seeds"),
    pytest.param(["run"], {**_LLS, "method": "ihg", **_SEEDS}, _RERUN,
                 ["*.csv"], id="run-lls-ihg-seeds"),
    pytest.param(["run"], {"problem": "remark1", "method": "obda", **_SEEDS,
                           "K": 1}, _RERUN, ["*.csv"],
                 id="run-remark1-obda-seeds"),
    pytest.param(["run"], {**_HC_RUN, "K": 5, "seeds": [0, 1]}, _RERUN,
                 ["*.csv"], id="run-hyperclean-seeds"),
    pytest.param(["run"], {**_HC_RUN, "K": 40, "seeds": [0, 1, 2]}, _RERUN,
                 ["*.csv"], id="run-hyperclean-batch"),
    pytest.param(["hyperclean", "--methods", "bda,rhg,trhg"],
                 {"seed": 1, "n_train": 20, "n_val": 20, "n_test": 20},
                 _RERUN, ["*_trace.csv", "dataset.csv"],
                 id="hyperclean-reverse"),
    pytest.param(["hyperclean", "--methods", "bda,ihg"], {"seed": 1},
                 (False, True), ["*_trace.csv", "dataset.csv"],
                 id="hyperclean-one-cpu"),
    pytest.param(["counterexample", "--n", "3", "--K", "5", "--methods",
                  "bda,rhg,trhg", "--T-max", "5"], None, (False, False, True),
                 ["*.csv"], id="counterexample-one-cpu"),
])
def test_traces_byte_identical_across_two_processes(tmp_path, argv, config,
                                                    pins, files):
    """Each run of a CLI call in its own process writes the first run's bytes.

    A case is the call's arguments, its ``--config`` (None for none), one
    flag per run that says whether the run is pinned to one CPU, and the
    patterns of the files compared.  A pinned suite takes the serial path
    (`test_one_cpu_child_takes_the_serial_path`), so a pinned run compares
    the forked workers' files with a serial run's.  On a 1-CPU host every
    run is serial, and such a case shows only that a rerun repeats."""
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        argv = [*argv, "--config", str(cfg)]
    outs = [tmp_path / f"out{i}" for i in range(len(pins))]
    for out, one_cpu in zip(outs, pins):
        done = _python("-m", "bda.harness", *argv, "--out", str(out),
                       one_cpu=one_cpu)
        assert done.returncode == EXIT_OK, done.stderr
    for pattern in files:
        names = sorted(path.name for path in outs[0].glob(pattern))
        assert names, pattern
        assert all((outs[0] / name).stat().st_size for name in names)
        for out in outs[1:]:
            assert sorted(path.name for path in out.glob(pattern)) == names
            for name in names:
                assert filecmp.cmp(outs[0] / name, out / name,
                                   shallow=False), (out.name, name)


def test_one_cpu_child_takes_the_serial_path():
    # a pin that failed to hold would compare two forked runs above
    done = _python("-c", "import bda.harness; "
                   "print(bda.harness._max_workers())", one_cpu=True)
    assert done.stdout.strip() == "1", done.stderr


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


def _assert_seeds_match_solo_solves(exp, problem, tmp_path):
    """Each seed's trace and inner trace hold the bytes a solo ``solve`` of
    that seed writes, and its summary the same fields (the batch's wall time
    aside)."""
    out, solo = tmp_path / "out", tmp_path / "solo"
    solo.mkdir()
    for seed in exp.seeds:
        record = solve(problem, dataclasses.replace(exp.solver, seed=seed),
                       x0=exp.x0, keep_inner=True)
        emit_trace(record, str(solo / "trace.csv"))
        emit_inner_trace(record, str(solo / "inner_trace.csv"))
        for name in ("trace", "inner_trace"):
            assert filecmp.cmp(out / f"{name}_{seed}.csv", solo / f"{name}.csv",
                               shallow=False), (seed, name)
        write_summary(bda.harness.summarize_record(record, problem),
                      str(solo / "summary.json"))
        alone = json.loads((solo / "summary.json").read_text("utf-8"))
        batch = json.loads((out / f"summary_{seed}.json").read_text("utf-8"))
        assert batch.pop("trace_file") == f"trace_{seed}.csv"
        assert batch.pop("problem_params") == exp.problem_params
        batch.pop("wall_time_s"), alone.pop("wall_time_s")
        assert batch == alone, seed


@pytest.mark.parametrize("lam", [None, 0.5])
@pytest.mark.parametrize("problem,params", [
    ("remark1", {}), ("lls_quadratic", {"n": 3, "m": 4, "seed": 2}),
    ("hyperclean", {"num_classes": 2, "feature_dim": 2, "n_train": 8,
                    "n_val": 8, "n_test": 8, "corruption_fraction": 0.25,
                    "seed": 3})])
def test_run_experiment_seeds_equal_solo_solves(tmp_path, problem, params,
                                                lam):
    # hyperclean's smoothness constants ask for smaller steps
    steps = {"su": 0.001, "sl": 0.001} if problem == "hyperclean" else {}
    cfg_path = _write_config(str(tmp_path / "cfg.json"), problem=problem,
                             problem_params=params, method="bda", K=5,
                             T_max=12, seeds=[3, 0, 5], verbosity="full",
                             **{"lambda": lam}, **steps)
    exp = load_config(cfg_path)
    exp.out_dir = str(tmp_path / "out")
    summaries = run_experiment(exp)
    assert [s["config"]["seed"] for s in summaries] == [3, 0, 5]
    assert len({s["config"]["lambda"] for s in summaries}) == \
        (1 if lam is not None else 3)
    assert len({s["wall_time_s"] for s in summaries}) == 1
    _assert_seeds_match_solo_solves(exp, exp.build_problem(), tmp_path)


def test_run_experiment_failing_seeds_abort_alone(tmp_path, monkeypatch):
    # grad_y_F is non-finite wherever x_0 > 0.33.  Seed 2's default-step
    # probes land there; seed 7's steps reach it at t = 2, when the batch's
    # call fails and its rows are redone one at a time; seed 0 stays below
    base = make_lls_quadratic(2, 3, seed=1)

    def grad_y_F(x, y):
        g = base.grad_y_F(x, y)
        return np.where((np.asarray(x)[..., :1] > 0.33), np.nan, g)

    problem = dataclasses.replace(base, grad_y_F=grad_y_F)
    monkeypatch.setattr(bda.harness, "make_problem", lambda name, **kw: problem)
    cfg_path = _write_config(str(tmp_path / "cfg.json"),
                             problem="lls_quadratic", method="bda", K=5,
                             T_max=3, seeds=[0, 7, 2], verbosity="full",
                             **{"lambda": None})
    exp = load_config(cfg_path)
    exp.out_dir = str(tmp_path / "out")
    with np.errstate(invalid="ignore"):
        summaries = run_experiment(exp)
        _assert_seeds_match_solo_solves(exp, problem, tmp_path)
    status = {s["config"]["seed"]: (s["status"], s["iterations"], s["error"])
              for s in summaries}
    message = "inner step k=0: grad_y_F non-finite"
    assert status == {0: ("max-iters", 3, None), 7: ("aborted", 2, message),
                      2: ("aborted", 0, message)}
    assert summaries[2]["resolved_lambda"] is None


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


@pytest.mark.parametrize("overrides,key", [
    ({"K": 10.7}, "K"),                      # int() would truncate it to 10
    ({"K": True}, "K"),                      # a JSON bool is not a count
    ({"T_max": 40.0}, "T_max"),
    ({"seed": 1.5}, "seed"),
    ({"repeats": 2.5}, "repeats"),
    # SolverConfig accepts 2.5; range() in the backward loop does not
    ({"method": "trhg", "truncate_at": 2.5}, "truncate_at"),
    ({"seeds": [0, 1.5]}, "seeds"),
])
def test_config_integer_keys_reject_non_integers(tmp_path, capsys, overrides,
                                                 key):
    cfg_path = _write_config(str(tmp_path / "cfg.json"), **overrides)
    with pytest.raises(ConfigError, match=f"{key} must be"):
        load_config(cfg_path)
    assert cli_main(["run", "--config", cfg_path,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert f"{key} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [True, "0.1", math.nan, math.inf, -math.inf,
                                   10 ** 400])
@pytest.mark.parametrize("key", ["lambda", "stop_tol", "mu", "su", "sl",
                                 "alpha_scale", "beta_start", "beta_lower"])
def test_config_float_keys_reject_what_is_not_a_finite_number(tmp_path, capsys,
                                                              key, value):
    # float() would read true as 1.0 and "0.1" as 0.1, and overflow on 10**400
    cfg_path = _write_config(str(tmp_path / "cfg.json"), **{key: value})
    with pytest.raises(ConfigError, match=f"{key} must be a finite number"):
        load_config(cfg_path)
    assert cli_main(["run", "--config", cfg_path,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert f"{key} must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_integer_for_a_float_key_loads_as_a_float(tmp_path):
    exp = load_config(_write_config(str(tmp_path / "cfg.json"), **{"lambda": 1}))
    assert type(exp.solver.lam) is float and exp.solver.lam == 1.0


@pytest.mark.parametrize("overrides", [
    {"beta_rule": "constant"}, {"beta_value": 0.5},
    {"alpha_rule": "scaled"}, {"alpha_rule": "zero"},
])
def test_config_removed_schedule_spellings_exit_3(tmp_path, overrides):
    cfg_path = _write_config(str(tmp_path / "cfg.json"), **overrides)
    assert cli_main(["run", "--config", cfg_path,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def test_config_dict_loads_back_as_the_same_solver_config(tmp_path,
                                                          monkeypatch):
    # the bda/rhg/trhg/obda configs the two suites build
    built = []

    def recording(solver):
        def run(problem, cfg, *args, **kwargs):
            # solve_many takes one config per row
            built.extend([cfg] if isinstance(cfg, SolverConfig) else cfg)
            return solver(problem, cfg, *args, **kwargs)
        return run

    for name in ("solve", "solve_many"):
        monkeypatch.setattr(bda.harness, name,
                            recording(getattr(bda.harness, name)))
    suite_counterexample(2, 2, ["bda", "rhg", "trhg"], str(tmp_path / "ce"),
                         T_max=2, num_inits=1)
    problem = make_hypercleaning(HypercleanConfig(seed=1))
    built += [default_hyperclean_solver(problem, method)
              for method in ("bda", "rhg", "trhg", "obda")]
    assert {cfg.method for cfg in built} == {"bda", "rhg", "trhg", "obda"}
    for i, cfg in enumerate(built):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps({"problem": "remark1", **config_dict(cfg)}),
                        encoding="utf-8")
        assert load_config(str(path)).solver == cfg


def test_config_verbosity_must_be_summary_or_full(tmp_path, capsys):
    # any other value would run, exit 0 and write no inner trace
    cfg_path = _write_config(str(tmp_path / "cfg.json"), verbosity="fulll")
    with pytest.raises(ConfigError, match="verbosity 'fulll'"):
        load_config(cfg_path)
    assert cli_main(["run", "--config", cfg_path,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "verbosity" in capsys.readouterr().err


def test_config_repeats_and_seeds_are_exclusive(tmp_path, capsys):
    # with both, seeds would win and repeats would have no effect
    cfg_path = _write_config(str(tmp_path / "cfg.json"), repeats=3, seeds=[7])
    with pytest.raises(ConfigError, match="repeats or seeds, not both"):
        load_config(cfg_path)
    assert cli_main(["run", "--config", cfg_path,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "repeats or seeds" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides,message", [
    ({"seeds": []}, "no seeds"), ({"repeats": 0}, "no seeds"),
    ({"repeats": -2}, "no seeds"), ({"seeds": [0, 4, 0]}, "seeds repeated")])
def test_config_seeds_must_be_a_non_empty_list_without_repeats(
        tmp_path, capsys, overrides, message):
    # an empty list ran nothing and exited 0; a repeated seed overwrote the
    # files of its first run
    cfg_path = _write_config(str(tmp_path / "cfg.json"), **overrides)
    with pytest.raises(ConfigError, match=message):
        load_config(cfg_path)
    assert cli_main(["run", "--config", cfg_path,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_out_must_be_a_string(tmp_path, capsys, monkeypatch):
    # an int reached os.makedirs and died there with a TypeError, exit 1
    monkeypatch.chdir(tmp_path)
    cfg_path = _write_config(str(tmp_path / "cfg.json"), out=5)
    with pytest.raises(ConfigError, match="out must be a string"):
        load_config(cfg_path)
    assert cli_main(["run", "--config", cfg_path]) == EXIT_CONFIG
    assert "out must be a string" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("x0", ["abc", [[0.1], [0.1, 0.2]], [float("nan")],
                                [float("inf")], True])
def test_cli_run_x0_that_is_not_floats_exits_3(tmp_path, capsys, x0):
    # json.dump writes NaN and Infinity, which json.load reads back (as it
    # reads 1e999); neither may reach the run as a start
    cfg_path = _write_config(str(tmp_path / "cfg.json"), x0=x0)
    assert cli_main(["run", "--config", cfg_path,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert re.search(r"x0(\[\d+\])? must be", capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


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


def test_cli_run_non_finite_outer_step_writes_aborted_record(tmp_path):
    cfg_path = _write_config(str(tmp_path / "cfg.json"), method="bda", K=5,
                             x0=[50.0], **{"lambda": 1e307})
    out = tmp_path / "out"
    with np.errstate(over="ignore"):
        code = cli_main(["run", "--config", cfg_path, "--out", str(out)])
    assert code == EXIT_NUMERICAL
    summary = json.loads((out / "summary.json").read_text("utf-8"))
    assert summary["status"] == "aborted"
    assert summary["error_class"] == "NumericalError"
    assert summary["error"].startswith("outer step")
    assert summary["iterations"] == 0
    assert (out / "trace.csv").exists()


@pytest.mark.parametrize("field,value", [("seed", 1.5), ("seed", True),
                                         ("n_train", 30.5)])
@pytest.mark.parametrize("command", ["run", "hyperclean"])
def test_hyperclean_config_fields_take_the_type_of_their_default(
        tmp_path, capsys, command, field, value):
    params = {field: value}
    out = str(tmp_path / "out")
    if command == "run":
        cfg_path = _write_config(str(tmp_path / "cfg.json"),
                                 problem="hyperclean", problem_params=params,
                                 su=0.005, sl=0.005, T_max=2)
        argv = ["run", "--config", cfg_path, "--out", out]
    else:
        cfg_path = tmp_path / "hc.json"
        cfg_path.write_text(json.dumps(params), encoding="utf-8")
        argv = ["hyperclean", "--config", str(cfg_path), "--methods", "bda",
                "--out", out]
    assert cli_main(argv) == EXIT_CONFIG
    assert f"hyperclean: {field} must be" in capsys.readouterr().err


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
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli_main(["run", "--config", str(path)]) == EXIT_CONFIG
    # dict() read a list of pairs, or failed with its own message
    for text in ('[["problem", "remark1"]]', "[1]", '"remark1"'):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match="config must be a JSON object"):
            load_config(str(path))


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


def test_run_jobs_in_order_on_the_calling_thread(monkeypatch):
    # the serial path: one worker
    monkeypatch.setattr(bda.harness, "_max_workers", lambda: 1)
    seen = []

    def job(i):
        seen.append((i, threading.get_ident()))
        return i * i

    assert _run_jobs([lambda i=i: job(i) for i in range(5)]) == [0, 1, 4, 9, 16]
    assert seen == [(i, threading.get_ident()) for i in range(5)]
    assert bda.harness._max_workers() == 1


@pytest.mark.parametrize("missing", [None, "fork", "sched_getaffinity",
                                     "memfd_create"])
def test_max_workers_is_the_affinity_mask(monkeypatch, missing):
    cpus = len(os.sched_getaffinity(0))
    if missing:  # a platform without it keeps the serial path
        monkeypatch.delattr(os, missing)
        cpus = 1
    assert _max_workers() == cpus


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _timeless(obj):
    if isinstance(obj, dict):
        return {k: _timeless(v) for k, v in obj.items() if k != "wall_time_s"}
    if isinstance(obj, list):
        return [_timeless(v) for v in obj]
    return obj


@pytest.fixture
def two_workers(monkeypatch):
    monkeypatch.setattr(bda.harness, "_max_workers", lambda: 2)


def test_run_jobs_runs_serially_beside_other_threads(two_workers):
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        assert _run_jobs([os.getpid, os.getpid]) == [os.getpid()] * 2
    finally:
        stop.set()
        other.join()


def test_run_jobs_forks_and_keeps_job_order(two_workers):
    results = _run_jobs([lambda i=i: (i * i, os.getpid()) for i in range(7)])
    _assert_no_children()
    assert [square for square, _ in results] == [i * i for i in range(7)]
    # job 0 runs in the caller, the others in at most two workers
    pids = [pid for _, pid in results]
    assert pids[0] == os.getpid()
    assert os.getpid() not in pids[1:] and 1 <= len(set(pids[1:])) <= 2
    # one job, or none, takes the serial path
    assert _run_jobs([os.getpid]) == [os.getpid()]
    assert _run_jobs([]) == []
    # more indices than the task pipe holds are refused before any fork
    from bda.workers import MAX_JOBS, run_forked
    with pytest.raises(ContractError, match="at most"):
        run_forked([os.getpid] * (MAX_JOBS + 1), 2)


def test_run_jobs_drains_results_larger_than_a_pipe(monkeypatch):
    # more workers than CPUs, each result 400 kB, six times a pipe's buffer
    monkeypatch.setattr(bda.harness, "_max_workers", lambda: 4)
    results = _run_jobs([lambda i=i: np.full(50_000, float(i))
                         for i in range(12)])
    _assert_no_children()
    assert [r.shape for r in results] == [(50_000,)] * 12
    assert [float(r[-1]) for r in results] == [float(i) for i in range(12)]


def _fail(err):
    raise err


class _TwoArgError(Exception):
    def __init__(self, a, b):  # a pickle round trip calls it with one
        super().__init__(f"{a}/{b}")


@pytest.mark.parametrize("error", [NumericalError("diverged at t=3"),
                                   ContractError("x has shape (2,)")])
def test_run_jobs_raises_the_lowest_failing_jobs_error(two_workers, error):
    jobs = [lambda: 0, lambda: _fail(error),
            lambda: _fail(RuntimeError("a later failure")), lambda: 3]
    with pytest.raises(type(error)) as info:
        _run_jobs(jobs)
    _assert_no_children()
    assert type(info.value) is type(error)
    assert str(info.value) == str(error)


def test_run_jobs_reports_what_cannot_travel(two_workers):
    with pytest.raises(RuntimeError, match="^_TwoArgError: 1/2$"):
        _run_jobs([lambda: 0, lambda: _fail(_TwoArgError(1, 2))])
    _assert_no_children()
    with pytest.raises(Exception, match="pickle"):
        _run_jobs([lambda: 0, lambda: (lambda: 1)])
    _assert_no_children()


def test_run_jobs_names_the_status_of_a_worker_that_exits(two_workers):
    with pytest.raises(RuntimeError, match=r"job 1 sent no result.*\[0, 7\]"):
        _run_jobs([lambda: 0, lambda: os._exit(7), lambda: 2])
    _assert_no_children()
    # job 1's result was written before job 2 ended its worker
    from bda.workers import run_forked
    with pytest.raises(RuntimeError, match=r"job 2 sent no result.*\[7\]"):
        run_forked([lambda: 0, lambda: 1, lambda: os._exit(7)], 1)
    _assert_no_children()


def test_run_jobs_kills_its_workers_when_interrupted(two_workers):
    import time

    # job 0, in the caller, is interrupted while a worker sleeps in job 1
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        _run_jobs([lambda: time.sleep(0.2) or _fail(KeyboardInterrupt()),
                   lambda: time.sleep(60)])
    _assert_no_children()
    assert time.perf_counter() - start < 30


def test_worker_takes_its_next_job_before_sending_a_large_result(tmp_path):
    # while the caller runs job 0, a result beyond a pipe's 64 KiB must not
    # hold back the worker's next job
    import time
    from bda.workers import run_forked
    marker = tmp_path / "job2"

    def wait_for_job_2():
        deadline = time.monotonic() + 10
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return marker.exists()

    results = run_forked([wait_for_job_2, lambda: np.zeros(50_000),
                          marker.touch], 1)
    _assert_no_children()
    assert results[0] is True and results[1].shape == (50_000,)


def test_run_jobs_raises_job_0s_error_without_waiting_for_workers(
        two_workers):
    import time

    start = time.perf_counter()
    with pytest.raises(NumericalError, match="^diverged at t=0$"):
        _run_jobs([lambda: _fail(NumericalError("diverged at t=0")),
                   lambda: time.sleep(60)])
    _assert_no_children()
    assert time.perf_counter() - start < 5


def test_suite_hyperclean_forked_equals_serial(tmp_path, monkeypatch):
    """Forked workers write the serial run's bytes and report its numbers."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    summaries = {}
    for workers in (1, 2):
        monkeypatch.setattr(bda.harness, "_max_workers", lambda w=workers: w)
        summaries[workers] = suite_hyperclean(HypercleanConfig(seed=1),
                                              list(METHODS),
                                              str(tmp_path / f"w{workers}"))
        assert len(forks) == 2 * (workers - 1)  # the forked run forks twice
    _assert_no_children()
    names = sorted(os.listdir(tmp_path / "w1"))
    assert names == sorted(os.listdir(tmp_path / "w2"))
    deterministic = [name for name in names if name.endswith(".csv")
                     and "wall_time_s" not in (tmp_path / "w1" / name)
                     .read_text(encoding="utf-8").split("\n", 1)[0]]
    assert sorted(deterministic) == sorted(
        ["dataset.csv", *[f"{m}_trace.csv" for m in METHODS]])
    for name in deterministic:
        assert filecmp.cmp(tmp_path / "w1" / name, tmp_path / "w2" / name,
                           shallow=False), name
    assert _timeless(summaries[1]) == _timeless(summaries[2])
    assert [row["method"] for row in summaries[2]["results"]] == \
        ["baseline_unweighted", *METHODS]


def test_module_entry_point_runs_without_runpy_warning():
    done = _python("-W", "error::RuntimeWarning", "-m", "bda.harness",
                   "--help")
    assert done.returncode == 0, done.stderr
    assert "RuntimeWarning" not in done.stderr
    done = _python("-c", "import bda; print(bda.harness.EXIT_IO)")
    assert done.stdout.strip() == str(EXIT_IO), done.stderr


def test_import_loads_only_the_modules_a_process_uses():
    """``import bda`` loads no submodule; building the hyper-cleaning
    problem then loads ``bda.numerics`` and ``bda.problems`` and no
    ``numpy.ma``; ``bda.harness`` loads ``argparse`` only for the CLI.  On
    a numpy whose ``np.unique`` does not import ``numpy.ma`` (CI's Python
    3.10 leg may get one), or whose ``import numpy`` already loaded it,
    the ``numpy.ma`` check holds with ``np.unique`` too, and only the
    ``bda.`` module checks fail with every module imported eagerly."""
    done = _python("-c", """if True:
        import json, sys
        import numpy
        def loaded():
            return sorted(m for m in sys.modules if m.startswith("bda."))
        import bda
        seen = {"import": loaded(), "ma_before": "numpy.ma" in sys.modules}
        bda.make_hypercleaning(bda.HypercleanConfig())
        seen.update(build=loaded(), ma_after="numpy.ma" in sys.modules)
        import bda.harness
        seen["argparse"] = "argparse" in sys.modules
        print(json.dumps(seen))""")
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    assert seen["import"] == []
    assert seen["build"] == ["bda.numerics", "bda.problems"]
    assert seen["ma_after"] == seen["ma_before"]
    assert not seen["argparse"]


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


def test_cli_gradcheck_problem_params(capsys):
    from bda.verify import TOLERANCES
    for horizon in (["--K", "10"], []):   # [] takes the default K = 20
        code = cli_main(["gradcheck", "--problem", "counterexample",
                         "--params", '{"n": 3}', "--method", "bda", *horizon])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert float(out.strip().rsplit(" ", 1)[-1]) <= TOLERANCES.fd_rel_tol
    for params in ("{n: 3", "[3]", '{"size": 3}',
                   '{"n": 2, "y_radius": true}'):
        code = cli_main(["gradcheck", "--problem", "counterexample",
                         "--params", params, "--method", "bda"])
        assert code == EXIT_CONFIG, params
        assert "error" in capsys.readouterr().err


def test_cli_gradcheck_rejects_truncated_trhg(capsys):
    # a truncated estimator is biased, so differences of phi_K cannot check it
    code = cli_main(["gradcheck", "--problem", "remark1", "--method", "trhg",
                     "--K", "10"])
    assert code == EXIT_CONFIG
    assert "bda and rhg" in capsys.readouterr().err


def test_verify_suite_unknown_name_makes_no_directory(tmp_path):
    out = tmp_path / "v"
    with pytest.raises(ContractError, match="unknown verify suite"):
        verify_suite("lemma2", str(out))
    assert not out.exists()


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


def test_suite_counterexample_alpha_sweep_rows_equal_solo_solves(
        tmp_path, monkeypatch):
    # the alpha sweep runs as rows of bda's batch; each label's trace is the
    # bytes a solo solve of that config writes
    out = tmp_path / "ce"
    built = []
    solve_many = bda.harness.solve_many

    def recording(problem, cfgs, X0, *args, **kwargs):
        built.append((cfgs, X0))
        return solve_many(problem, cfgs, X0, *args, **kwargs)

    monkeypatch.setattr(bda.harness, "solve_many", recording)
    # a forked worker's calls would not reach the recorder
    monkeypatch.setattr(bda.harness, "_max_workers", lambda: 1)
    summary = suite_counterexample(3, 5, ["bda", "rhg"], str(out),
                                   T_max=30, num_inits=2)
    (cfgs, X0), _ = built
    assert len(cfgs) == len(X0) == 6 and not X0[3:].any()
    problem = make_counterexample(3)
    for label, cfg in zip(summary["alpha_sweep"], cfgs[3:]):
        emit_trace(solve(problem, cfg), str(tmp_path / "solo.csv"))
        assert filecmp.cmp(out / f"{label}_trace.csv", tmp_path / "solo.csv",
                           shallow=False), label
    assert [c.sched.alpha_scale for c in cfgs[3:]] == [0.0, 0.5, 0.5]


def test_suite_counterexample_forked_equals_serial(tmp_path, monkeypatch):
    """Forked workers write the serial run's bytes and report its numbers."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    summaries = {}
    for workers in (1, 2):
        monkeypatch.setattr(bda.harness, "_max_workers", lambda w=workers: w)
        summaries[workers] = suite_counterexample(
            3, 5, ["bda", "rhg", "trhg"], str(tmp_path / f"w{workers}"),
            T_max=30, num_inits=2)
        assert len(forks) == 2 * (workers - 1)  # the forked run forks twice
    _assert_no_children()
    names = sorted(os.listdir(tmp_path / "w1"))
    assert names == sorted(os.listdir(tmp_path / "w2"))
    csvs = [name for name in names if name.endswith(".csv")]
    assert len(csvs) == 9
    for name in csvs:
        assert filecmp.cmp(tmp_path / "w1" / name, tmp_path / "w2" / name,
                           shallow=False), name
    assert _timeless(summaries[1]) == _timeless(summaries[2])
    assert summaries[2]["runs"]["rhg"]["wall_time_s"] > 0


@pytest.mark.parametrize("num_inits", [-1, 1.5, True, "2"])
def test_suite_counterexample_num_inits_must_be_a_count(tmp_path, num_inits):
    # -1 and 1.5 died in numpy; True ran one start
    out = tmp_path / "ce"
    with pytest.raises(ContractError, match="num_inits"):
        suite_counterexample(2, 2, ["bda"], str(out), T_max=2,
                             num_inits=num_inits)
    assert not out.exists()


def test_suite_counterexample_rejects_unknown_methods(tmp_path):
    from bda.numerics import ContractError
    with pytest.raises(ContractError):
        suite_counterexample(2, 5, ["ihg"], str(tmp_path / "x"))


@pytest.mark.parametrize("methods", ["", "bda,bda", "rhg,bda,rhg"])
def test_suite_counterexample_rejects_empty_or_repeated_methods(tmp_path,
                                                                capsys,
                                                                methods):
    # an empty list died on methods[0]; a repeat overwrote its own summary
    out = tmp_path / "ce"
    with pytest.raises(ContractError, match="empty|repeated"):
        suite_counterexample(2, 2, [m for m in methods.split(",") if m],
                             str(out), T_max=2, num_inits=1)
    assert cli_main(["counterexample", "--n", "2", "--K", "2", "--methods",
                     methods, "--T-max", "2", "--out", str(out)]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["counterexample", "--n", "0", "--K", "2", "--methods", "bda"],
    ["counterexample", "--n", "2", "--K", "0", "--methods", "bda,rhg"],
    # two validation samples, three classes
    ["hyperclean", "--methods", "bda", "--config", {"n_val": 2}],
    # the default s_u = 0.1 is not below hyperclean's 1/L_F
    ["run", "--config", {"problem": "hyperclean", "method": "bda"}],
    # a list died in make_problem with a TypeError, exit 1
    ["run", "--config", {"problem": ["remark1"]}],
    # dict() took a list of pairs and ran the counterexample at n = 2
    ["run", "--config", {"problem": "counterexample",
                         "problem_params": [["n", 2]]}],
    ["run", "--config", {"problem": "remark1", "problem_params": []}],
    ["run", "--config", [["problem", "remark1"]]],
    # each ran: a radius true as 1, 1e400 as inf, seed 1.5 as 1, false as 0
    ["run", "--config", {"problem": "counterexample",
                         "problem_params": {"n": 2, "y_radius": True}}],
    ["run", "--config", {"problem": "counterexample",
                         "problem_params": {"n": 2, "x_radius": 1e400}}],
    ["run", "--config", {"problem": "lls_quadratic",
                         "problem_params": {"n": 2, "m": 3, "seed": 1.5}}],
    ["run", "--config", {"problem": "lls_quadratic",
                         "problem_params": {"n": 2, "m": 3, "seed": False}}],
    # moved <= stop_tol never held, so the run went on to T_max
    ["run", "--config", {"problem": "remark1", "method": "bda", "lambda": 0.1,
                         "T_max": 2, "stop_tol": -1}],
])
def test_suites_refuse_bad_input_before_creating_out(tmp_path, capsys, argv):
    # each exited 3 but left an empty output directory behind
    out = tmp_path / "out"
    argv = list(argv)
    if not isinstance(argv[-1], str):   # a --config given as its JSON data
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(argv[-1]), encoding="utf-8")
        argv[-1] = str(cfg_path)
    assert cli_main([*argv, "--out", str(out)]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("overrides", [
    {"seeds": [-1]}, {"seed": -1},
    {"problem": "lls_quadratic", "problem_params": {"n": 2, "m": 3,
                                                    "seed": -1}}])
def test_cli_run_negative_seed_exits_3_before_creating_out(tmp_path, capsys,
                                                          overrides):
    # without lambda each ended in numpy's ValueError, exit 1, some after
    # creating out
    cfg_path = _write_config(str(tmp_path / "cfg.json"),
                             **{"lambda": None, **overrides})
    out = tmp_path / "out"
    assert cli_main(["run", "--config", cfg_path,
                     "--out", str(out)]) == EXIT_CONFIG
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_cli_hyperclean_negative_seed_exits_3(tmp_path, capsys):
    cfg_path = tmp_path / "hc.json"
    cfg_path.write_text(json.dumps({"seed": -1}), encoding="utf-8")
    out = tmp_path / "hc"
    assert cli_main(["hyperclean", "--config", str(cfg_path), "--methods",
                     "bda", "--out", str(out)]) == EXIT_CONFIG
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


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


def test_summaries_are_strict_json(tmp_path):
    # with nothing corrupted the mean weight on corrupted samples is NaN,
    # which json.dump wrote as the non-JSON token NaN
    def strict(name):
        raise ValueError(f"non-JSON constant {name}")

    cfg_path = tmp_path / "hc.json"
    cfg_path.write_text(json.dumps({"corruption_fraction": 0.0, "seed": 1,
                                    "n_train": 10, "n_val": 10,
                                    "n_test": 10}), encoding="utf-8")
    for methods in ("ihg", "ihg,obda"):
        out = tmp_path / methods
        assert cli_main(["hyperclean", "--config", str(cfg_path), "--methods",
                         methods, "--out", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text(
            encoding="utf-8"), parse_constant=strict)
        assert [row["mean_sigma_corrupted"] for row in summary["results"]] \
            == [None] * (1 + len(methods.split(",")))  # and the baseline
    path = tmp_path / "summary.json"
    write_summary({"a": np.array([[1.5, np.nan]]), "b": (np.inf, 2),
                   "c": {"d": np.float32(-np.inf), "e": np.int64(3)}}, path)
    assert json.loads(path.read_text(encoding="utf-8"),
                      parse_constant=strict) == \
        {"a": [[1.5, None]], "b": [None, 2], "c": {"d": None, "e": 3}}
    # an object JSON cannot hold is an error, not its str() in the file
    with pytest.raises(TypeError):
        write_summary({"config": HypercleanConfig(seed=1)},
                      tmp_path / "config.json")
    assert not (tmp_path / "config.json").exists()


@pytest.mark.parametrize("methods", ["", "bda,bda", "ihg,obda,ihg"])
def test_suite_hyperclean_rejects_empty_or_repeated_methods(tmp_path, capsys,
                                                            methods):
    # an empty list wrote a table of the baseline alone and exited 0
    out = tmp_path / "hc"
    cfg = HypercleanConfig(seed=1)
    with pytest.raises(ContractError, match="empty|repeated"):
        suite_hyperclean(cfg, [m for m in methods.split(",") if m], str(out))
    cfg_path = tmp_path / "hc.json"
    cfg_path.write_text(json.dumps({"seed": 1}), encoding="utf-8")
    assert cli_main(["hyperclean", "--config", str(cfg_path), "--methods",
                     methods, "--out", str(out)]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


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
