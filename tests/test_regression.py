"""Numeric regression record: every method on three small problems.

For each case the stored reference holds the final x, the final ``phiK`` and
``grad_norm``, the resolved UL step, and every row of ``trace.csv`` and
``inner_trace.csv`` written by ``run_experiment`` with ``verbosity: "full"``.
Refactors must reproduce them to the problem's rtol (see ``RTOL``).  The
``obda`` inner trace is not stored: it is checked against the warm-started
inner state instead.

Regenerate the reference after a deliberate numerical change with

    PYTHONPATH=src python tests/test_regression.py
"""
import json
import os

import numpy as np
import pytest

from bda.harness import load_config, parse_trace, run_experiment
from bda.hypergrad import hypergrad_onestage
from bda.inner import default_y0
from bda.outer import solve

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "regression_reference.json")
# The hyperclean record was written when its gradients were per-sample
# einsums.  The matrix products that replaced them sum in another order, so
# its traces moved in their last bits: at most 2e-15 relative for bda, rhg
# and trhg, 6e-14 for obda and 8e-13 for ihg, whose CG amplifies rounding.
# 1e-10 leaves two orders of magnitude for other BLAS builds; a change of
# formula moves these values far more.
RTOL = {"remark1": 1e-12, "lls": 1e-12, "hyperclean": 1e-10}

# problem and its schedule keys; the hyperclean steps sit under 1/L_F, 1/L_f
PROBLEMS = {
    "remark1": {"problem": "remark1", "problem_params": {}},
    "lls": {"problem": "lls_quadratic",
            "problem_params": {"n": 2, "m": 3, "seed": 12}},
    "hyperclean": {"problem": "hyperclean", "problem_params": {"seed": 1},
                   "su": 0.004, "sl": 0.004},
}
METHOD_KEYS = {"bda": {}, "rhg": {}, "trhg": {"truncate_at": 2}, "ihg": {},
               "obda": {"K": 1}}
# CG meets the singular remark1 Hessian at every probe of the default step,
# so that case fixes the step and stops after the one iteration CG survives.
OVERRIDES = {("remark1", "ihg"): {"lambda": 0.5, "T_max": 1}}
CASES = [(p, m) for p in PROBLEMS for m in METHOD_KEYS]


def _config(problem: str, method: str) -> dict:
    cfg = {"method": method, "K": 5, "T_max": 12,
           "mu": 0.1, "su": 0.1, "sl": 0.1, "alpha_rule": "harmonic",
           "stop_tol": 1e-12, "seed": 0,
           "verbosity": "full", **PROBLEMS[problem], **METHOD_KEYS[method]}
    cfg.update(OVERRIDES.get((problem, method), {}))
    return cfg


def _rows(path: str) -> list:
    cols = parse_trace(path)
    names = list(cols)
    return [[None if np.isnan(cols[n][i]) else float(cols[n][i]) for n in names]
            for i in range(len(cols[names[0]]))]


def _observe(problem: str, method: str, work_dir: str) -> dict:
    """Run one case through the harness and collect what the record holds."""
    cfg_path = os.path.join(work_dir, "cfg.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(_config(problem, method), fh)
    exp = load_config(cfg_path)
    exp.out_dir = os.path.join(work_dir, "out")
    [summary] = run_experiment(exp)
    record = solve(exp.build_problem(), exp.solver)
    return {
        "x_final": record.x_final.tolist(),
        "phiK": summary["final"]["phiK"],
        "grad_norm": summary["final"]["grad_norm"],
        "resolved_lambda": summary["resolved_lambda"],
        "status": summary["status"],
        "trace": _rows(os.path.join(exp.out_dir, "trace.csv")),
        "inner_trace": _rows(os.path.join(exp.out_dir, "inner_trace.csv")),
    }


def _assert_close(actual, expected, rtol, what):
    a = np.array(actual, dtype=float)
    e = np.array(expected, dtype=float)
    assert a.shape == e.shape, f"{what}: shape {a.shape} != {e.shape}"
    np.testing.assert_allclose(a, e, rtol=rtol, atol=0.0, equal_nan=True,
                               err_msg=what)


@pytest.fixture(scope="module")
def reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("problem,method", CASES)
def test_matches_reference(reference, tmp_path, problem, method):
    expected = reference[f"{problem}/{method}"]
    got = _observe(problem, method, str(tmp_path))
    assert got["status"] == expected["status"]
    for key in ("x_final", "phiK", "grad_norm", "resolved_lambda", "trace"):
        _assert_close(got[key], expected[key], RTOL[problem],
                      f"{problem}/{method} {key}")
    if method != "obda":
        _assert_close(got["inner_trace"], expected["inner_trace"],
                      RTOL[problem], f"{problem}/{method} inner_trace")


@pytest.mark.parametrize("problem", list(PROBLEMS))
def test_obda_inner_trace_follows_carried_state(tmp_path, problem):
    """Row (t, 0) holds f/F at (x_t, y_t) with y_t carried across outer
    iterations, and row (t, 1) at the next carried state."""
    cfg_path = os.path.join(str(tmp_path), "cfg.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(_config(problem, "obda"), fh)
    exp = load_config(cfg_path)
    exp.out_dir = str(tmp_path / "out")
    run_experiment(exp)
    p = exp.build_problem()
    record = solve(p, exp.solver)
    inner = parse_trace(os.path.join(exp.out_dir, "inner_trace.csv"))
    T = record.T
    assert inner["t"].tolist() == [t for t in range(T) for _ in range(2)]
    assert inner["k"].tolist() == [0, 1] * T

    y = default_y0(p)
    for t in range(T):
        x = record.xs[t]
        y_next = hypergrad_onestage(p, x, y,
                                    exp.solver.sched).diagnostics["y1"]
        for k, yk in enumerate((y, y_next)):
            assert inner["f_val"][2 * t + k] == p.f(x, yk)
            assert inner["F_val"][2 * t + k] == p.F(x, yk)
        y = y_next
    # a cold start from y0 at x_1 would give a different value
    assert inner["f_val"][2] != p.f(record.xs[1], default_y0(p))


if __name__ == "__main__":
    import tempfile

    out = {}
    for prob, meth in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            obs = _observe(prob, meth, tmp)
        if meth == "obda":
            del obs["inner_trace"]
        out[f"{prob}/{meth}"] = obs
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
