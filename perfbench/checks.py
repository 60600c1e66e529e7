"""Output checks of a benchmark run, all made outside the timed intervals.

Checks over trials return ``(trial key, message)`` problems; a run with any
problem is not correct.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import replace
from pathlib import Path

from softcell.coordination import verify_duality
from softcell.evaluation import evaluate

from tracing import trial_key

# Objectives must match the reference to this relative tolerance: tight enough
# to catch a wrong optimum, loose enough for a solver that certifies the same
# optimum by another path (the IPM's own certification gap is 1e-6).
RTOL = 1e-6
# Independent SINR check, as in coordination._verify_feasible.
SINR_TOL = 1e-6
CERTIFIED = ("optimal", "infeasible", "rzf_infeasible")


def load_reference(path: Path) -> dict:
    return json.loads(path.read_text())["trials"]


def reference_problems(records, reference: dict) -> list[tuple]:
    """Status and total power of every trial against the seed commit's.

    A certified status may never change.  A numerical_failure may turn into a
    certified status, which is an improvement the reference cannot price."""
    problems = []
    for r in records:
        key = trial_key(r.axis_value, r.trial)
        ref = reference.get(key)
        if ref is None:
            problems.append((key, f"{key}: not in the reference"))
        elif ref["status"] in CERTIFIED and r.status != ref["status"]:
            problems.append((key, f"{key}: certified status {ref['status']} became {r.status}"))
        elif r.status == ref["status"] == "optimal" and \
                not math.isclose(r.total_mw, ref["total_mw"], rel_tol=RTOL):
            problems.append((key, f"{key}: total_mw {r.total_mw!r} differs from the reference "
                                  f"{ref['total_mw']!r} by more than {RTOL:g} relative"))
    return problems


def repeat_problems(records) -> list[tuple]:
    """Every run of one trial within a process must give the same record."""
    first, problems = {}, []
    for r in records:
        key = trial_key(r.axis_value, r.trial)
        fields = repr(replace(r, wall_ms=0.0))
        if first.setdefault(key, fields) != fields:
            problems.append((key, f"{key}: record differs between runs of the same trial"))
    return problems


def solution_problems(problem, solution, certificate) -> list[str]:
    """Recheck one solution with the independent evaluator and, for the exact
    solver, the uplink-duality certificate."""
    report = evaluate(solution, problem.channels, problem.hw, problem.gamma)
    gt = problem.gtilde
    out = [f"user {k} SINR {report.sinr[k]!r} below target {gt[k]!r}"
           for k in problem.qos_users() if report.sinr[k] < gt[k] * (1.0 - SINR_TOL)]
    out += [f"cap of antenna {s.antenna} at transmitter {s.transmitter} exceeded"
            for s in report.power_slacks if s.violated]
    if not math.isclose(report.p_total_mw, solution.objective_total, rel_tol=RTOL):
        out.append(f"evaluated total power {report.p_total_mw!r} differs from the "
                   f"reported {solution.objective_total!r}")
    if certificate is not None:
        duality = verify_duality(solution, certificate, problem)
        if not duality.ok():
            out.append(f"duality residual {duality.max_residual:.3g} above tolerance")
    return out


def solve_count_problems(path: Path, fingerprint: str, counts_by_trial: dict) -> list[tuple]:
    """Per-solve counts of a trial must repeat exactly for the same code,
    thread count and libraries: within this run and against earlier runs in
    this checkout, which are kept in ``path``."""
    stored = json.loads(path.read_text()) if path.exists() else {}
    known = stored.setdefault(fingerprint, {})
    problems = []
    for key, runs in counts_by_trial.items():
        expected = known.setdefault(key, runs[0])
        if any(run != expected for run in runs):
            problems.append((key, f"{key}: per-solve counts differ from another run "
                                  f"of the same code"))
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(stored))
    os.replace(tmp, path)
    return problems
