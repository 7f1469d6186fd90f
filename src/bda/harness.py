"""CLI entry point, experiment configuration, trace serialization, and the
scripted experiment suites.

Subcommands:
  run            one solver run from a JSON config, writing trace.csv + summary.json
  gradcheck      compare a method's hypergradient against central differences
  counterexample the comparison suite on the non-singleton quartic problem
  hyperclean     the toy data-cleaning suite
  verify         the inequality/rate/stationarity audit suites

All trace files are written atomically and reproduce bit-for-bit under a
fixed config and seed; wall-clock time is reported only in summary JSON.
The suites split their work into jobs (``_run_jobs``): the parent runs the
first job while forked workers, one per CPU, run the others, and then the
parent writes every file.  The hyper-cleaning suite's jobs are the
unweighted baseline and then one solve per method; the counterexample
suite's are one batch per method and then the projection pair.  Batches
take the place of jobs where the runs share a problem: a ``run`` solves its
seeds as the rows of one ``solve_many`` batch, and the counterexample suite
solves each method's starts as one batch, and its alpha sweep as three more
rows of bda's batch.
A ``run`` whose solve ends ``aborted`` still writes every file, then exits
with the code its error class gets (3 capability, 4 numerical).
"""
from __future__ import annotations

import csv
import json
import math
import os
import sys
import threading
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .inner import AggregationSchedule, run_inner
from .numerics import (CapabilityError, ContractError, NumericalError,
                       as_vector, rng_stream, typed_value)
from .outer import (METHODS, METRIC_COLUMNS, SCHED_KEYS, SOLVER_KEYS,
                    RunRecord, SolverConfig, config_dict, solve,
                    solve_many)
from .problems import (BilevelProblem, HypercleanConfig, _sigmoid,
                       hyperclean_dataset_rows, make_counterexample,
                       make_hypercleaning, make_lls_quadratic, make_problem,
                       make_remark1)
from .hypergrad import hypergrad_reverse
from . import verify as verify_mod

TRACE_COLUMNS = ("t", *METRIC_COLUMNS, "wall_ms")
INNER_TRACE_COLUMNS = ("t", "k", "f_val", "F_val", "proj_active")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4
EXIT_IO = 5
# an aborted run exits as its error would have, had it escaped
ABORT_EXIT = {"CapabilityError": EXIT_CONFIG, "NumericalError": EXIT_NUMERICAL}


class ConfigError(ValueError):
    """Raised for unreadable, unparsable, or inconsistent experiment configs."""


@dataclass
class ExperimentConfig:
    problem_name: str
    problem_params: dict
    solver: SolverConfig
    out_dir: str
    verbosity: str = "summary"          # 'summary' | 'full'
    seeds: list[int] = field(default_factory=lambda: [0])
    x0: list | None = None

    def build_problem(self) -> BilevelProblem:
        return make_problem(self.problem_name, **self.problem_params)


def _pop_fields(raw: dict, keys: dict, cls) -> dict:
    """Pop the ``keys`` present in ``raw`` as typed fields of ``cls``; null
    only where the field's default is None.  Absent keys keep the defaults."""
    nullable = {f.name for f in fields(cls) if f.default is None}
    return {name: typed_value(key, raw.pop(key), kind, name in nullable)
            for key, (name, kind) in keys.items() if key in raw}


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a JSON experiment config; unknown keys are errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        if type(raw) is not dict:
            raise ConfigError(f"config must be a JSON object, got {raw!r}")
        # each key is popped as it is read; leftovers are unknown
        sched = AggregationSchedule(
            **_pop_fields(raw, SCHED_KEYS, AggregationSchedule))
        solver = SolverConfig(sched=sched,
                              **_pop_fields(raw, SOLVER_KEYS, SolverConfig))
        if "repeats" in raw and "seeds" in raw:
            raise ConfigError("give repeats or seeds, not both")
        repeats = typed_value("repeats", raw.pop("repeats", 1), int)
        seeds = raw.pop("seeds", None)
        if seeds is None:
            seeds = [solver.seed + i for i in range(repeats)]
        elif type(seeds) is not list or any(type(s) is not int for s in seeds):
            raise ConfigError(f"seeds must be a list of integers, got {seeds!r}")
        if not seeds:
            raise ConfigError("the run has no seeds: give repeats >= 1 or a "
                              "non-empty seeds list")
        if any(s < 0 for s in seeds):
            raise ConfigError(f"seeds must be >= 0, got {seeds}")
        if len(set(seeds)) < len(seeds):
            raise ConfigError(f"seeds repeated: {seeds}; each seed writes "
                              f"its own files")
        x0 = raw.pop("x0", None)
        if x0 is not None and type(x0) is not list:
            raise ConfigError(f"x0 must be null or a list of numbers, got {x0!r}")
        verbosity = raw.pop("verbosity", "summary")
        if verbosity not in ("summary", "full"):
            raise ConfigError(f"verbosity {verbosity!r} is not summary or full")
        params = raw.pop("problem_params", {})
        if type(params) is not dict:
            raise ConfigError(f"problem_params must be a JSON object, got "
                              f"{params!r}")
        exp = ExperimentConfig(
            problem_name=typed_value("problem", raw.pop("problem"), str),
            problem_params=params,
            solver=solver,
            out_dir=typed_value("out", raw.pop("out", "."), str),
            verbosity=verbosity,
            seeds=seeds,
            x0=None if x0 is None else [typed_value(f"x0[{i}]", v, float)
                                        for i, v in enumerate(x0)],
        )
        if raw:
            raise ConfigError(f"unknown keys {sorted(raw)}")
        return exp
    except (KeyError, TypeError, ValueError, ContractError) as err:
        raise ConfigError(f"bad config {path}: {err}") from err


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    v = float(value)
    if math.isnan(v):
        return ""
    return f"{v:.17g}"


def _atomic_write(path: str, write_fn) -> None:
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            write_fn(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _write_csv(path: str, header, rows) -> None:
    """Write a header and an iterable of rows as one CSV file (atomically)."""

    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

    _atomic_write(path, write)


def emit_trace(record: RunRecord, path: str) -> None:
    """Write the per-iteration trace CSV (atomically).

    The wall_ms column is part of the schema but left empty so identical
    configs yield byte-identical files; wall time lives in summary JSON.
    """
    metrics = record.metrics
    _write_csv(path, TRACE_COLUMNS,
               ([t, *(_fmt(metrics[c][t]) for c in METRIC_COLUMNS), ""]
                for t in range(len(metrics["phiK"]))))


def parse_trace(path: str) -> dict:
    """Read a trace CSV back into column arrays (nan for empty cells)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        columns = {name: [] for name in header}
        for row in reader:
            for name, cell in zip(header, row):
                columns[name].append(float(cell) if cell != "" else math.nan)
    return {name: np.asarray(vals) for name, vals in columns.items()}


def emit_inner_trace(record: RunRecord, path: str) -> None:
    """Dump the per-step f/F values and projection flags of the inner run
    behind each outer iteration, as kept by ``solve(keep_inner=True)``
    (verbosity 'full')."""
    if record.T > 0 and not record.inner_rows:
        raise ContractError("emit_inner_trace: the record kept no inner rows; "
                            "solve with keep_inner=True")
    _write_csv(path, INNER_TRACE_COLUMNS,
               ([t, k, _fmt(f_vals[k]), _fmt(F_vals[k]), int(active[k])]
                for t, (f_vals, F_vals, active) in enumerate(record.inner_rows)
                for k in range(len(f_vals))))


def write_summary(payload: dict, path: str) -> None:
    """Write ``payload`` as strict JSON (atomically): a non-finite number,
    in an array too, is written as null, as ``_fmt`` leaves its CSV cell
    empty.  An object JSON cannot hold is a TypeError."""
    def write(fh):
        json.dump(_finite(payload), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")

    _atomic_write(path, write)


def _finite(obj):
    """``obj`` with arrays as lists, numpy integers as ints and each
    non-finite float as None."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def summarize_record(record: RunRecord, problem: BilevelProblem) -> dict:
    metrics = record.metrics
    final = {name: (None if vals.size == 0 or math.isnan(vals[-1])
                    else float(vals[-1]))
             for name, vals in metrics.items()}
    return {
        "problem": record.problem,
        "problem_dims": {"n": problem.n, "m": problem.m},
        "config": record.config,
        "status": record.status,
        "iterations": int(len(metrics["phiK"])),
        "final": final,
        "final_grad_norm": final["grad_norm"],  # null, not NaN, when T = 0
        "resolved_lambda": record.config["lambda"],
        "wall_time_s": record.wall_time_s,
        "error": record.error,
        "error_class": record.error_class,
    }


# ---------------------------------------------------------------------------
# job queue
# ---------------------------------------------------------------------------

def _max_workers() -> int:
    """One worker per CPU this process may run on; 1 where the platform has
    no ``os.fork``, ``os.sched_getaffinity`` or ``os.memfd_create``."""
    if all(hasattr(os, name) for name in
           ("fork", "sched_getaffinity", "memfd_create")):
        return len(os.sched_getaffinity(0))
    return 1


def _run_jobs(jobs) -> list:
    """Call every job and return the results in job order.

    With two jobs or more and ``_max_workers()`` > 1, the calling thread
    runs job 0 while ``min(_max_workers(), len(jobs) - 1)`` forked workers
    run the rest, and their results come back pickled in anonymous memory
    files.  Job 0 is always the caller's, so what the caller does never
    depends on timing.  Where jobs fail, the lowest-index one's exception is
    raised here with its own class and message, as the serial loop would
    raise it.  With one worker, or from a caller with other threads (a fork
    copies only the calling thread, so a lock another thread holds would
    stay held in the child), the jobs run one after another on the calling
    thread.
    """
    jobs = list(jobs)
    cpus = _max_workers()
    if len(jobs) < 2 or cpus < 2 or threading.active_count() > 1:
        return [job() for job in jobs]
    # imported here, so that a process that never forks never compiles it
    from .workers import run_forked
    return run_forked(jobs, min(cpus, len(jobs) - 1))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def _method_list(methods, supported: tuple, suite: str) -> list:
    """``methods`` as a list, checked: not empty, no repeats, all supported."""
    methods = list(methods)
    if not methods:
        raise ContractError(f"{suite}: the method list is empty")
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise ContractError(f"{suite}: methods repeated: {repeated}")
    bad = [m for m in methods if m not in supported]
    if bad:
        raise ContractError(f"{suite} supports {'/'.join(supported)}, "
                            f"got {bad}")
    return methods


def run_experiment(exp: ExperimentConfig) -> list[dict]:
    """Solve the config once per seed and write each seed's trace, summary
    and (verbosity 'full') inner trace, suffixed ``_<seed>`` when there are
    several seeds; returns the summaries in seed order.

    The seeds are the rows of one ``solve_many`` batch, all from ``x0`` (the
    origin by default); each row's record equals that seed's solo ``solve``,
    save ``wall_time_s``, which is the batch's.
    """
    problem = exp.build_problem()
    x0 = np.zeros(problem.n) if exp.x0 is None else \
        as_vector(exp.x0, dim=problem.n, name="x0")
    full = exp.verbosity == "full"
    records = solve_many(problem, [replace(exp.solver, seed=seed)
                                   for seed in exp.seeds],
                         np.tile(x0, (len(exp.seeds), 1)), keep_inner=full)
    os.makedirs(exp.out_dir, exist_ok=True)  # a refused config makes none
    multiple = len(exp.seeds) > 1
    summaries = []
    for seed, record in zip(exp.seeds, records):
        tag = f"_{seed}" if multiple else ""
        trace_path = os.path.join(exp.out_dir, f"trace{tag}.csv")
        emit_trace(record, trace_path)
        if full:
            emit_inner_trace(record, os.path.join(exp.out_dir,
                                                  f"inner_trace{tag}.csv"))
        summary = summarize_record(record, problem)
        summary["problem_params"] = exp.problem_params
        summary["trace_file"] = os.path.basename(trace_path)
        write_summary(summary, os.path.join(exp.out_dir, f"summary{tag}.json"))
        summaries.append(summary)
    return summaries


def suite_counterexample(n: int, K: int, methods, out: str, seed: int = 0,
                         T_max: int = 1000, lam: float = 0.01,
                         num_inits: int = 10) -> dict:
    """Comparison suite on the non-singleton quartic problem: per-method
    traces, an initialization sweep, a projection on/off pair, and an
    alpha-rule sweep.

    Each method solves its starts, the origin and ``num_inits`` random
    points, as one ``solve_many`` batch: the origin's record gives the
    method's trace and summary, the others the initialization sweep.  The
    alpha sweep's runs (zero / constant / harmonic alpha, heavier UL mixing,
    from the origin) are three more rows of bda's batch, each under its own
    schedule.

    The method batches, in method order, and then the projection pair are
    jobs of ``_run_jobs``: this process solves the first method's batch
    while forked workers, one per CPU, solve the rest and send back their
    records.  This process writes every file, so the traces have the bits
    of a serial run.

    The quartic upper objective tolerates a larger step under the aggregated
    dynamics than under plain unrolling, so the plain-unrolling methods run
    at 0.3 * lam.
    """
    methods = _method_list(methods, ("bda", "rhg", "trhg"),
                           "suite_counterexample")
    if typed_value("num_inits", num_inits, int) < 0:
        raise ContractError(f"num_inits must be >= 0, got {num_inits}")
    problem = make_counterexample(n)
    sched = AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.1,
                                alpha_rule="harmonic", alpha_scale=0.5)

    def cfg_for(method: str, **kw) -> SolverConfig:
        base = dict(method=method, K=K,
                    lam=lam if method == "bda" else 0.3 * lam,
                    T_max=T_max, sched=sched, seed=seed, stop_tol=1e-9)
        if method == "trhg":
            base["truncate_at"] = max(1, K // 2)
        base.update(kw)
        return SolverConfig(**base)

    method_cfgs = {method: cfg_for(method) for method in methods}
    summary: dict = {"n": n, "K": K, "methods": methods,
                     "schedule": config_dict(method_cfgs[methods[0]])}

    # the origin, then the initialization sweep's shared random starts
    rng = rng_stream(seed)
    inits = 0.75 * (2.0 * rng.random((num_inits, n)) - 1.0)
    starts = np.vstack([np.zeros(n), inits])

    # the alpha sweep: label, alpha_rule, alpha_scale
    alpha_sweep = (("alpha_zero", "constant", 0.0),
                   ("alpha_const_0.5", "constant", 0.5),
                   ("alpha_adaptive_0.5_over_k", "harmonic", 0.5))
    alpha_cfgs = [cfg_for("bda", sched=AggregationSchedule(
        mu=0.5, s_u=0.1, s_l=0.1, alpha_rule=rule, alpha_scale=scale))
        for _, rule, scale in alpha_sweep]
    os.makedirs(out, exist_ok=True)  # every config is valid by now

    def run_method(method):
        cfgs, X0 = [method_cfgs[method]] * len(starts), starts
        if method == "bda":  # the alpha sweep's rows, from the origin
            cfgs = cfgs + alpha_cfgs
            X0 = np.vstack([starts, np.zeros((len(alpha_cfgs), n))])
        return solve_many(problem, cfgs, X0)

    # projection on/off: start the LL outside a tight box.  Runs at a
    # reduced dimension so the unprojected quartic dynamics stay inside
    # their stability basin and both runs actually converge.
    def run_projection_pair():
        n_proj = min(n, 6)
        far = np.concatenate([2.5 * np.ones(n_proj), np.zeros(n_proj)])
        return {label: solve(make_counterexample(n_proj, y_radius=radius),
                             cfg_for("bda", stop_tol=1e-8), y0=far)
                for label, radius in (("with_projection", 1.5),
                                      ("without_projection", 1e6))}

    jobs = [lambda m=m: run_method(m) for m in methods]
    if "bda" in methods:
        jobs.append(run_projection_pair)
    solved = _run_jobs(jobs)
    records = dict(zip(methods, solved))
    for method in methods:
        emit_trace(records[method][0],
                   os.path.join(out, f"{method}_trace.csv"))
    summary["runs"] = {method: summarize_record(records[method][0], problem)
                       for method in methods}
    sweep_rows = [{"init": i, "method": method,
                   "final_err_x": float(records[method][i + 1]
                                        .metrics["err_x"][-1]),
                   "status": records[method][i + 1].status}
                  for i in range(num_inits) for method in methods]
    _write_csv(os.path.join(out, "init_sweep.csv"),
               ["init", "method", "final_err_x", "status"],
               ([row["init"], row["method"], _fmt(row["final_err_x"]),
                 row["status"]] for row in sweep_rows))
    summary["init_sweep"] = sweep_rows

    if "bda" in methods:
        proj_results = {}
        for label, record in solved[-1].items():
            emit_trace(record, os.path.join(out, f"proj_{label}_trace.csv"))
            proj_results[label] = {
                "iterations": int(len(record.metrics["phiK"])),
                "final_err_x": float(record.metrics["err_x"][-1]),
                "status": record.status,
            }
        summary["projection_sweep"] = proj_results

        # the alpha sweep's records close bda's batch
        alpha_results = {}
        for (label, _, _), record in zip(alpha_sweep,
                                         records["bda"][num_inits + 1:]):
            emit_trace(record, os.path.join(out, f"{label}_trace.csv"))
            alpha_results[label] = {
                "final_err_x": float(record.metrics["err_x"][-1]),
                "status": record.status,
            }
        summary["alpha_sweep"] = alpha_results

    write_summary(summary, os.path.join(out, "summary.json"))
    return summary


def accuracy(data, theta: np.ndarray) -> float:
    pred = np.argmax(data.logits(theta), axis=1)
    return float(np.mean(pred == data.labels))


def f1_score(flags: np.ndarray, truth: np.ndarray) -> float:
    flags = np.asarray(flags, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    tp = float(np.sum(flags & truth))
    fp = float(np.sum(flags & ~truth))
    fn = float(np.sum(~flags & truth))
    if tp == 0.0:
        return 1.0 if (fp == 0.0 and fn == 0.0) else 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def hyperclean_metrics(problem: BilevelProblem, x: np.ndarray,
                       y: np.ndarray) -> dict:
    md = problem.metadata
    cfg: HypercleanConfig = md["config"]
    theta = y.reshape(cfg.num_classes, cfg.feature_dim + 1)
    weights = _sigmoid(np.asarray(x, dtype=float))
    flags = weights < 0.5
    truth = md["corrupted_mask"]
    mean_corr = float(weights[truth].mean()) if truth.any() else math.nan
    mean_clean = float(weights[~truth].mean()) if (~truth).any() else math.nan
    return {
        "val_acc": accuracy(md["val"], theta),
        "test_acc": accuracy(md["test"], theta),
        "f1": f1_score(flags, truth),
        "mean_sigma_corrupted": mean_corr,
        "mean_sigma_clean": mean_clean,
    }


def hyperclean_baseline(problem: BilevelProblem, K: int,
                        sched: AggregationSchedule) -> dict:
    """Unweighted baseline: plain LL training with every weight equal."""
    x0 = np.zeros(problem.n)  # sigmoid(0) = 0.5 on every sample
    y_K, _ = run_inner(problem, x0, K, sched, mode="plain")
    out = hyperclean_metrics(problem, x0, y_K)
    out["method"] = "baseline_unweighted"
    return out


def default_hyperclean_solver(problem: BilevelProblem, method: str,
                              seed: int = 0) -> SolverConfig:
    """Per-method defaults tuned for the toy scale; the LL step sits just
    under the declared smoothness bound."""
    s_l = 0.8 / problem.L_f
    s_u = 0.8 / problem.L_F
    sched = AggregationSchedule(mu=0.1, s_u=s_u, s_l=s_l,
                                alpha_rule="harmonic")
    base = dict(K=40, lam=2.0, T_max=300, sched=sched, seed=seed,
                stop_tol=1e-7)
    if method == "trhg":
        base["truncate_at"] = 20
    if method == "obda":  # one inner step, carried across outer iterations
        base.update(K=1, T_max=2000)
    if method == "ihg":
        base["cg_tol"] = 1e-8
        base["cg_max_iter"] = 400
    return SolverConfig(method=method, **base)


def suite_hyperclean(cfg: HypercleanConfig, methods, out: str) -> dict:
    """Toy data hyper-cleaning: the unweighted baseline, then one solve per
    method from the suite's defaults (``default_hyperclean_solver``).

    The baseline and then the methods are jobs of ``_run_jobs``: this
    process computes the baseline while forked workers, one per CPU, solve
    the methods and send back each method's metrics and record.  This
    process writes every file, so the traces have the bits of a serial run.
    ``wall_time_s`` is each method's own solve, however many ran at once.
    """
    methods = _method_list(methods, tuple(METHODS), "suite_hyperclean")
    problem = make_hypercleaning(cfg)
    solvers = {m: default_hyperclean_solver(problem, m, seed=cfg.seed)
               for m in methods}
    os.makedirs(out, exist_ok=True)  # the problem and configs are valid

    _write_csv(os.path.join(out, "dataset.csv"),
               ["split", "index", "label", "corrupted_flag",
                *[f"feature_{j}" for j in range(cfg.feature_dim)]],
               hyperclean_dataset_rows(problem))

    base_sched = default_hyperclean_solver(problem, "bda").sched

    def run_method(method):
        record = solve(problem, solvers[method])
        metrics = hyperclean_metrics(problem, record.x_final, record.y_final)
        metrics.update({"method": method, "wall_time_s": record.wall_time_s,
                        "status": record.status,
                        "iterations": int(len(record.metrics["phiK"]))})
        return metrics, record

    baseline, *solved = _run_jobs(
        [lambda: hyperclean_baseline(problem, K=40, sched=base_sched),
         *(lambda m=m: run_method(m) for m in methods)])
    results = [baseline]
    for method, (metrics, record) in zip(methods, solved):
        emit_trace(record, os.path.join(out, f"{method}_trace.csv"))
        results.append(metrics)

    cols = ["method", "val_acc", "test_acc", "f1",
            "mean_sigma_corrupted", "mean_sigma_clean", "wall_time_s"]
    _write_csv(os.path.join(out, "hyperclean_table.csv"), cols,
               ([row.get("method"), *(_fmt(row.get(c)) for c in cols[1:])]
                for row in results))
    summary = {"config": vars(cfg), "methods": methods, "results": results}
    write_summary(summary, os.path.join(out, "summary.json"))
    return summary


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def verify_suite(name: str, out: str) -> dict:
    suites = ("lemma1", "rate", "stationarity")
    if name == "all":
        chosen = suites
    elif name in suites:
        chosen = (name,)
    else:
        raise ContractError(f"unknown verify suite '{name}'")
    os.makedirs(out, exist_ok=True)

    reports = []
    if "lemma1" in chosen:
        for problem in (make_remark1(), make_lls_quadratic(2, 3, seed=5)):
            sched = AggregationSchedule(
                mu=0.3, s_u=0.5 / problem.L_F, s_l=0.5 / problem.L_f,
                alpha_rule="harmonic")
            x = 0.25 * np.ones(problem.n)
            _, trace = run_inner(problem, x, 60, sched, mode="bda")
            rep = verify_mod.check_descent_inequality(
                problem, x, trace, num_test_points=100, seed=11)
            rep.check_name = f"descent_inequality[{problem.name}]"
            reports.append(rep)
            rep = verify_mod.check_nonexpansive(problem, x, trace)
            rep.check_name = f"nonexpansive[{problem.name}]"
            reports.append(rep)
    if "rate" in chosen:
        problem = make_counterexample(5)
        constants, sched, x = rate_check_setup(problem)
        rep = verify_mod.check_rate_bound(problem, x, sched, k_max=500,
                                          constants=constants)
        reports.append(rep)
        neg = verify_mod.check_rate_bound(
            problem, x, sched, k_max=500,
            constants=verify_mod.corrupted_constants(constants))
        neg.check_name = "rate_bound_negative_control"
        neg.status = "pass" if neg.violations else "fail"
        reports.append(neg)
    if "stationarity" in chosen:
        problem = make_lls_quadratic(1, 2, seed=3)
        s = 0.5 / max(problem.L_F, problem.L_f)
        sched = AggregationSchedule(mu=0.1, s_u=s, s_l=s, alpha_rule="harmonic")
        grid = [np.array([t]) for t in np.linspace(-2.0, 2.0, 11)]
        errors = verify_mod.check_stationarity(problem, grid, sched,
                                               k_list=[10, 100, 1000])
        ok = errors[-1] <= 1e-3 and errors[-1] <= errors[0]
        reports.append(verify_mod.CheckReport(
            check_name="stationarity", status="pass" if ok else "fail",
            worst_margin=float(1e-3 - errors[-1]),
            location=f"sup errors {errors.tolist()}"))

    payload = {"suite": name, "reports": [r.to_json_dict() for r in reports]}
    write_summary(payload, os.path.join(out, f"verify_{name}.json"))
    all_pass = all(r.status == "pass" for r in reports)
    payload["all_pass"] = all_pass
    return payload


def rate_check_setup(problem: BilevelProblem):
    """Schedule, evaluation point, and constants for the rate-bound audit.

    The UL step must sit under the sampled smoothness bound of the quartic
    upper objective over X x Y, which is what keeps the aggregated scheme
    within the bound's hypotheses."""
    probe = AggregationSchedule(mu=0.1, s_u=1e-9, s_l=0.1,
                                alpha_rule="harmonic")
    x = 1.5 * np.ones(problem.n)
    rc_probe = verify_mod.compute_rate_constants(problem, probe, x=x)
    s_u = 0.5 / rc_probe.L_F
    sched = AggregationSchedule(mu=0.1, s_u=s_u, s_l=0.1,
                                alpha_rule="harmonic")
    constants = verify_mod.compute_rate_constants(problem, sched, x=x)
    return constants, sched, x


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def gradcheck(problem_name: str, method: str, K: int = 20,
              seed: int = 0, params: dict | None = None) -> float:
    """Max relative error of the method's hypergradient against central
    differences of x -> F(x, y_K(x)) (the inner run recomputed per probe).
    ``params`` are the problem's keyword parameters, as in a run config."""
    problem = make_problem(problem_name, **(params or {}))
    if method not in ("bda", "rhg"):  # truncated trhg is biased: nothing to check
        raise ContractError("gradcheck supports the untruncated bda and rhg")
    mode = METHODS[method].inner
    sched = AggregationSchedule(mu=0.1, s_u=0.1, s_l=0.1,
                                alpha_rule="harmonic")
    rng = rng_stream(seed)
    worst = 0.0
    for _ in range(3):
        x = problem.region_x.project(rng.standard_normal(problem.n))

        def phi_K(xv):
            xv = np.atleast_1d(np.asarray(xv, dtype=float))
            y_K, _ = run_inner(problem, xv, K, sched, mode=mode)
            return problem.F(xv, y_K)

        grad = hypergrad_reverse(problem, x, K, sched, mode=mode).gradient
        fd = verify_mod.fd_gradient(phi_K, x, eps=1e-6 * (1.0 + float(np.linalg.norm(x))))
        denom = max(float(np.linalg.norm(fd)), 1e-12)
        worst = max(worst, float(np.linalg.norm(grad - fd)) / denom)
    return worst


def _build_parser() -> argparse.ArgumentParser:
    import argparse     # only the CLI pays for argparse and gettext
    parser = argparse.ArgumentParser(prog="bda",
                                     description="bi-level solver harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)

    p_gc = sub.add_parser("gradcheck", help="hypergradient vs finite differences")
    p_gc.add_argument("--problem", required=True)
    p_gc.add_argument("--method", required=True)
    p_gc.add_argument("--K", type=int, default=20)
    p_gc.add_argument("--params", default="{}",
                      help="problem parameters as a JSON object")

    p_ce = sub.add_parser("counterexample", help="comparison suite")
    p_ce.add_argument("--n", type=int, required=True)
    p_ce.add_argument("--K", type=int, required=True)
    p_ce.add_argument("--methods", required=True)
    p_ce.add_argument("--out", required=True)
    p_ce.add_argument("--T-max", type=int, default=1000)

    p_hc = sub.add_parser("hyperclean", help="toy data-cleaning suite")
    p_hc.add_argument("--config", required=True)
    p_hc.add_argument("--methods", required=True)
    p_hc.add_argument("--out", required=True)

    p_vf = sub.add_parser("verify", help="numerical verification suites")
    p_vf.add_argument("--suite", required=True,
                      choices=["lemma1", "rate", "stationarity", "all"])
    p_vf.add_argument("--out", required=True)
    return parser


def cli_main(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        if args.command == "run":
            exp = load_config(args.config)
            if args.out is not None:
                exp.out_dir = args.out
            summaries = run_experiment(exp)
            print(f"run: wrote {len(summaries)} trace/summary pairs to {exp.out_dir}")
            aborted = [s for s in summaries if s["status"] == "aborted"]
            for s in aborted:
                print(f"run: seed {s['config']['seed']} aborted "
                      f"({s['error_class']}): {s['error']}", file=sys.stderr)
            if aborted:
                return ABORT_EXIT[aborted[0]["error_class"]]
        elif args.command == "gradcheck":
            try:
                params = json.loads(args.params)
            except json.JSONDecodeError as err:
                raise ConfigError(f"bad --params: {err}") from err
            if not isinstance(params, dict):
                raise ConfigError("--params must be a JSON object")
            worst = gradcheck(args.problem, args.method, K=args.K,
                              params=params)
            print(f"gradcheck {args.problem}/{args.method} K={args.K}: "
                  f"max relative error {worst:.3e}")
            if worst > verify_mod.TOLERANCES.fd_rel_tol:
                return EXIT_NUMERICAL
        elif args.command == "counterexample":
            methods = [m.strip() for m in args.methods.split(",") if m.strip()]
            suite_counterexample(args.n, args.K, methods, args.out,
                                 T_max=args.T_max)
            print(f"counterexample suite written to {args.out}")
        elif args.command == "hyperclean":
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    raw = json.load(fh)
                cfg = HypercleanConfig(**raw)
            except (OSError, json.JSONDecodeError, TypeError) as err:
                raise ConfigError(f"bad hyperclean config: {err}") from err
            methods = [m.strip() for m in args.methods.split(",") if m.strip()]
            suite_hyperclean(cfg, methods, args.out)
            print(f"hyperclean suite written to {args.out}")
        elif args.command == "verify":
            payload = verify_suite(args.suite, args.out)
            for rep in payload["reports"]:
                print(f"{rep['check_name']}: {rep['status']} "
                      f"(worst margin {rep['worst_margin']:.3e})")
            if not payload["all_pass"]:
                return EXIT_NUMERICAL
    except (ConfigError, ContractError, CapabilityError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as err:
        print(f"I/O failure: {err}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
