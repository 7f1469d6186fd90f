"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one caller: one call of a public suite
function of ``bda.harness`` (as the CLI makes it), the next only after the
previous one returns.  ``setup`` builds the problems and data from the seed;
``job`` runs the suites into an output directory; ``check`` audits what they
returned and wrote against the repository's independent oracles.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os

COUNTEREXAMPLE = dict(n=50, K=20, methods=("bda", "rhg", "trhg"),
                      T_max=200, num_inits=2)
HYPERCLEAN_METHODS = ("bda", "obda", "rhg", "trhg", "ihg")
# criterion 10 is stated for this data seed; other seeds are recorded only
HYPERCLEAN_GATED_SEED = 1


class Checks:
    """Operations attempted and failed in one job, plus quality values.

    An operation is one solve or one audit (including the benchmark's own
    output checks); it fails on an exception, a non-finite output, an
    aborted status, or a failed check.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.quality: dict[str, float] = {}

    def op(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(float(v)) for v in values)


def _solve_ok(checks: Checks, name: str, status: str, *values) -> None:
    checks.op(f"solve {name}", status != "aborted" and _finite(*values))


def csv_files(out_dir: str) -> list[str]:
    return sorted(os.path.join(base, name)
                  for base, _, names in os.walk(out_dir)
                  for name in names if name.endswith(".csv"))


def deterministic_csv_hashes(out_dir: str) -> dict[str, str]:
    """sha256 of every CSV the determinism guarantee covers: all of them but
    the tables with a wall-clock column."""
    hashes = {}
    for path in csv_files(out_dir):
        with open(path, "rb") as fh:
            data = fh.read()
        header = data.split(b"\n", 1)[0].decode("utf-8").strip().split(",")
        if "wall_time_s" not in header:
            hashes[os.path.relpath(path, out_dir)] = hashlib.sha256(data).hexdigest()
    return hashes


# value columns of the outer and inner traces; never empty in any row
_REQUIRED = ("phiK", "grad_norm", "f_val", "F_val")


def check_traces(checks: Checks, out_dir: str) -> None:
    """Every cell of every trace CSV is empty or finite, and the value
    columns are never empty."""
    for path in csv_files(out_dir):
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        if header[0] != "t":
            continue
        required = [header.index(c) for c in _REQUIRED if c in header]
        ok = len(rows) > 1
        for row in rows[1:]:
            ok = ok and all(cell == "" or math.isfinite(float(cell))
                            for cell in row)
            ok = ok and all(row[i] != "" for i in required)
        checks.op(f"finite {os.path.relpath(path, out_dir)}", ok)


class Capture:
    """Keeps the RunRecord behind every trace file the suites write, by
    wrapping ``harness.emit_trace`` (one dictionary store per solve)."""

    def __init__(self, harness):
        self.records: dict = {}
        self._harness = harness
        self._emit = harness.emit_trace

    def __enter__(self):
        def emit_trace(record, path):
            self.records[os.path.basename(path)] = record
            return self._emit(record, path)
        self._harness.emit_trace = emit_trace
        return self

    def __exit__(self, *exc):
        self._harness.emit_trace = self._emit


# ---------------------------------------------------------------------------
# counterexample: the paper's 50-dimensional non-singleton problem
# ---------------------------------------------------------------------------

class Counterexample:
    name = "counterexample"

    def setup(self, bda, seed: int, work_dir: str):
        n = COUNTEREXAMPLE["n"]
        # the problems the suite solves, and the plain-descent limit oracle
        problems = [bda.make_counterexample(n),
                    bda.make_counterexample(min(n, 6), y_radius=1.5),
                    bda.make_counterexample(min(n, 6), y_radius=1e6)]
        oracle = bda.verify.rhg_limit_oracle_counterexample(
            0.1, COUNTEREXAMPLE["K"])
        return {"seed": seed, "x_opt": problems[0].x_opt, "oracle": oracle}

    def job(self, bda, state, out_dir: str):
        c = COUNTEREXAMPLE
        return bda.harness.suite_counterexample(
            c["n"], c["K"], list(c["methods"]), out_dir, seed=state["seed"],
            T_max=c["T_max"], num_inits=c["num_inits"])

    def check(self, bda, state, summary, records, out_dir: str) -> Checks:
        import numpy as np
        checks = Checks()
        for method, run in summary["runs"].items():
            _solve_ok(checks, method, run["status"], run["final"]["phiK"])
        for row in summary["init_sweep"]:
            _solve_ok(checks, f"init{row['init']}-{row['method']}",
                      row["status"], row["final_err_x"])
        for group in ("projection_sweep", "alpha_sweep"):
            for label, row in summary[group].items():
                _solve_ok(checks, label, row["status"], row["final_err_x"])
        check_traces(checks, out_dir)

        n = COUNTEREXAMPLE["n"]
        errs = np.linalg.norm(records["bda_trace.csv"].xs - state["x_opt"],
                              axis=1) / math.sqrt(n)
        reached = np.flatnonzero(errs <= 0.1)
        x_hat = state["oracle"].x_hat
        rhg_dev = float(np.abs(records["rhg_trace.csv"].x_final - x_hat).max())
        checks.quality.update({
            "bda_err_x": float(errs[-1]),
            "bda_iters_to_tol": int(reached[0]) if reached.size else -1,
            "rhg_oracle_dev": rhg_dev,
        })
        # criterion 02; the method runs start at the origin for every seed
        checks.op("criterion02 bda_err_x<=0.1", errs[-1] <= 0.1)
        checks.op("criterion02 rhg_oracle_dev<=1e-3, x_hat<0.9",
                  rhg_dev <= 1e-3 and x_hat < 0.9)
        return checks


# ---------------------------------------------------------------------------
# hyperclean: toy data hyper-cleaning with all five methods
# ---------------------------------------------------------------------------

class Hyperclean:
    name = "hyperclean"

    def setup(self, bda, seed: int, work_dir: str):
        cfg = bda.HypercleanConfig(seed=seed)
        bda.make_hypercleaning(cfg)  # the data generation the suite repeats
        return {"seed": seed, "cfg": cfg}

    def job(self, bda, state, out_dir: str):
        return bda.harness.suite_hyperclean(state["cfg"],
                                            list(HYPERCLEAN_METHODS), out_dir)

    def check(self, bda, state, summary, records, out_dir: str) -> Checks:
        checks = Checks()
        rows = {row["method"]: row for row in summary["results"]}
        base = rows.pop("baseline_unweighted")
        checks.op("solve baseline_unweighted", _finite(base["val_acc"]))
        for method, row in rows.items():
            _solve_ok(checks, method, row["status"], row["val_acc"],
                      row["f1"], row["mean_sigma_clean"],
                      row["mean_sigma_corrupted"])
        check_traces(checks, out_dir)

        bda_row = rows["bda"]
        margin = bda_row["mean_sigma_clean"] - bda_row["mean_sigma_corrupted"]
        checks.quality.update({"bda_f1": bda_row["f1"],
                               "bda_val_acc": bda_row["val_acc"],
                               "bda_sigma_margin": margin,
                               "baseline_val_acc": base["val_acc"]})
        if state["seed"] == HYPERCLEAN_GATED_SEED:
            checks.op("criterion10 f1>=0.8", bda_row["f1"] >= 0.8)
            checks.op("criterion10 sigma_margin>=0.2", margin >= 0.2)
            checks.op("criterion10 val_acc>=baseline",
                      bda_row["val_acc"] >= base["val_acc"])
        return checks


# ---------------------------------------------------------------------------
# small: the audits plus `bda run` configs on tiny problems
# ---------------------------------------------------------------------------

def small_configs(seed: int) -> dict[str, dict]:
    """``bda run`` configs: no ``lambda`` (so ``default_lambda`` runs),
    several seeds per config, and per-step inner traces."""
    common = {"K": 20, "mu": 0.1, "su": 0.1, "sl": 0.1, "T_max": 150,
              "stop_tol": 1e-12, "seed": seed, "repeats": 2,
              "verbosity": "full"}
    lls = {"problem": "lls_quadratic",
           "problem_params": {"n": 5, "m": 10, "seed": seed}}
    return {
        "remark1_bda": {"problem": "remark1", "method": "bda", **common},
        "remark1_rhg": {"problem": "remark1", "method": "rhg", **common},
        "lls_bda": {**lls, "method": "bda", **common},
        "lls_rhg": {**lls, "method": "rhg", **common},
    }


class Small:
    name = "small"

    def setup(self, bda, seed: int, work_dir: str):
        os.makedirs(work_dir, exist_ok=True)
        paths = {}
        for label, cfg in small_configs(seed).items():
            paths[label] = os.path.join(work_dir, f"{label}.json")
            with open(paths[label], "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            bda.harness.load_config(paths[label]).build_problem()
        return {"seed": seed, "configs": paths}

    def job(self, bda, state, out_dir: str):
        harness = bda.harness
        out = {"verify": harness.verify_suite("all", out_dir), "runs": {}}
        for label, path in state["configs"].items():
            exp = harness.load_config(path)
            exp.out_dir = os.path.join(out_dir, label)
            out["runs"][label] = harness.run_experiment(exp)
        return out

    def check(self, bda, state, result, records, out_dir: str) -> Checks:
        checks = Checks()
        for report in result["verify"]["reports"]:
            checks.op(f"audit {report['check_name']}",
                      report["status"] == "pass")
        checks.op("verify all_pass", result["verify"]["all_pass"])
        for label, summaries in result["runs"].items():
            for summary in summaries:
                _solve_ok(checks, f"{label} seed {summary['config']['seed']}",
                          summary["status"], summary["final"]["phiK"],
                          summary["resolved_lambda"])
        check_traces(checks, out_dir)
        return checks


WORKLOADS = {w.name: w for w in (Counterexample(), Hyperclean(), Small())}
