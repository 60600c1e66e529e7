"""Monte Carlo harness: sweeps over antenna counts or QoS targets, trial-level
parallelism with per-trial RNG streams, and deterministic CSV emission.

A sweep runs (axis value) x (algorithm) x (trial) independent tasks.  Every
task derives its randomness from (seed, trial) alone, so records are
reproducible regardless of scheduling; aggregation sorts before writing.
Infeasible trials are excluded from power means but reported as a rate
(mixing units would corrupt dBm means).

The per-trial CSV schema is fixed:

    axis_value,algorithm,trial,status,p_dynamic_mw,p_static_mw,total_mw,
    total_dbm,n_multiflow_users,n_bs_only,n_single_sca,infeasible,wall_ms,
    exchanged_scalars_total

wall_ms is measured and kept on the in-memory records, but the CSV column is
written as 0 so output is byte-identical for any worker count.  Across
machines it is byte-identical only with the same numpy, scipy and BLAS
libraries and the same BLAS thread count, since the last bits of an
interior-point solve depend on the thread count; pin it with
OPENBLAS_NUM_THREADS=1.
"""

from __future__ import annotations

import io
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .coordination import (BS_ONLY, MULTIFLOW, SINGLE_SCA, CoordinationProblem,
                           classify_assignment, serving_case, solve_optimal)
from .exceptions import (InfeasibleProblemError, InvalidInputError,
                         NumericalFailureError, RzfInfeasibleError)
from .power import circuit_power, mw_to_dbm
from .rzf import rzf_solve
from .scenario import ScenarioConfig, realize_scenario, with_axis_value

AXES = ("n_bs", "n_sca", "qos")
ALGORITHMS = ("optimal", "rzf", "bs_only")

CSV_HEADER = ("axis_value,algorithm,trial,status,p_dynamic_mw,p_static_mw,"
              "total_mw,total_dbm,n_multiflow_users,n_bs_only,n_single_sca,"
              "infeasible,wall_ms,exchanged_scalars_total")
SUMMARY_HEADER = ("axis_value,algorithm,n_trials,n_feasible,feasible_fraction,"
                  "mean_total_dbm,std_total_dbm,multiflow_fraction,"
                  "sca_multiuser_fraction")


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    values: tuple
    trials: int
    algorithms: tuple
    base: ScenarioConfig

    def __post_init__(self):
        if self.axis not in AXES:
            raise InvalidInputError(f"unknown sweep axis {self.axis!r}")
        values = tuple(self.values)
        if not values:
            raise InvalidInputError("sweep needs at least one axis value")
        if self.axis != "qos" and not all(float(v).is_integer() for v in values):
            raise InvalidInputError(f"{self.axis} values must be integers")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise InvalidInputError("axis values must be strictly increasing")
        if self.trials < 1:
            raise InvalidInputError("trials must be >= 1")
        algorithms = tuple(self.algorithms)
        if not algorithms or any(a not in ALGORITHMS for a in algorithms):
            raise InvalidInputError(f"algorithms must be a nonempty subset of {ALGORITHMS}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "algorithms", algorithms)


@dataclass(frozen=True)
class TrialRecord:
    axis_value: float
    algorithm: str
    trial: int
    status: str
    p_dynamic_mw: float
    p_static_mw: float
    total_mw: float
    total_dbm: float
    n_multiflow: int
    n_bs_only: int
    n_single_sca: int
    n_sca_multiuser: int
    infeasible: bool
    wall_ms: float
    exchanged_scalars: int


def _num(v) -> str:
    return repr(int(v)) if float(v) == int(v) else repr(float(v))


def _sca_multiuser(serving, num_transmitters) -> int:
    count = 0
    for j in range(1, num_transmitters):
        if sum(1 for s in serving if j in s) > 1:
            count += 1
    return count


def _channel_scalars(channels) -> int:
    """Scalars a central node needs for the full problem: all complex channel
    coefficients (two reals each) plus one noise power per user."""
    return channels.num_users * (2 * sum(channels.antenna_counts) + 1)


def run_trial(base: ScenarioConfig, axis: str, value, algorithm: str, trial: int) -> TrialRecord:
    cfg = with_axis_value(base, axis, value)
    if algorithm == "bs_only":
        cfg = with_axis_value(cfg, "n_sca", 0)
    channels = realize_scenario(cfg, trial=trial)
    problem = CoordinationProblem(channels, cfg.hardware, cfg.qos_targets)
    p_stat = circuit_power(cfg.hardware, channels.antenna_counts)

    t0 = time.perf_counter()
    status = "optimal"
    try:
        if algorithm == "rzf":
            solution = rzf_solve(problem)
            cases = [serving_case(s) for s in solution.serving]
        else:
            solution, _ = solve_optimal(problem)
            report = classify_assignment(solution)
            cases = [a.case for a in report.assignments]
    except InfeasibleProblemError:
        status, solution = "infeasible", None
    except RzfInfeasibleError:
        status, solution = "rzf_infeasible", None
    except NumericalFailureError:
        status, solution = "numerical_failure", None
    wall_ms = 1e3 * (time.perf_counter() - t0)

    if solution is None:
        return TrialRecord(value, algorithm, trial, status, float("nan"), p_stat,
                           float("nan"), float("nan"), 0, 0, 0, 0, True, wall_ms, 0)

    if algorithm == "rzf":
        exchanged = sum(solution.exchanged_scalars.values())
    else:
        exchanged = _channel_scalars(channels)
    total = float(solution.objective_total)
    return TrialRecord(value, algorithm, trial, status,
                       float(solution.objective_dynamic), float(solution.objective_static),
                       total, mw_to_dbm(total) if total > 0 else float("-inf"),
                       cases.count(MULTIFLOW), cases.count(BS_ONLY), cases.count(SINGLE_SCA),
                       _sca_multiuser(solution.serving, channels.num_transmitters),
                       False, wall_ms, exchanged)


def run_sweep(spec: SweepSpec, workers: int = 1):
    """All trials of the sweep; returns (records, aggregate rows).

    Records come back sorted by (axis value, algorithm, trial) and are
    independent of the execution order and of ``workers``.
    """
    if workers < 1:
        raise InvalidInputError("workers must be >= 1")
    tasks = [(spec.base, spec.axis, value, algorithm, trial)
             for value in spec.values
             for algorithm in spec.algorithms
             for trial in range(spec.trials)]
    if workers == 1:
        records = [run_trial(*t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run_trial, *zip(*tasks), chunksize=1))
    order = {a: i for i, a in enumerate(spec.algorithms)}
    records.sort(key=lambda r: (spec.values.index(r.axis_value), order[r.algorithm], r.trial))
    return records, aggregate(records, spec)


def aggregate(records, spec: SweepSpec):
    """Summary rows grouped by (axis value, algorithm) in sweep order."""
    if not records:
        raise InvalidInputError("nothing to aggregate")
    num_users = spec.base.num_users
    num_sca = spec.base.num_sca
    rows = []
    for value in spec.values:
        for algorithm in spec.algorithms:
            group = [r for r in records if r.axis_value == value and r.algorithm == algorithm]
            if not group:
                continue
            feasible = [r for r in group if not r.infeasible]
            dbm = np.array([r.total_dbm for r in feasible])
            mean = float(dbm.mean()) if feasible else float("nan")
            # A zero-power trial reads -inf dBm; a group holds only such trials
            # (zero targets and zero static power) or none, so -inf has no spread.
            std = float(dbm.std(ddof=1)) if len(feasible) > 1 and np.isfinite(mean) else 0.0
            multi = (sum(r.n_multiflow for r in feasible) / (len(feasible) * num_users)
                     if feasible else 0.0)
            sca_multi = (sum(r.n_sca_multiuser for r in feasible) / (len(feasible) * num_sca)
                         if feasible and num_sca and algorithm != "bs_only" else 0.0)
            rows.append({"axis_value": value, "algorithm": algorithm,
                         "n_trials": len(group), "n_feasible": len(feasible),
                         "feasible_fraction": len(feasible) / len(group),
                         "mean_total_dbm": mean, "std_total_dbm": std,
                         "multiflow_fraction": multi,
                         "sca_multiuser_fraction": sca_multi})
    return rows


def records_csv(records) -> str:
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for r in records:
        fields = [_num(r.axis_value), r.algorithm, str(r.trial), r.status,
                  repr(r.p_dynamic_mw), repr(r.p_static_mw), repr(r.total_mw),
                  repr(r.total_dbm), str(r.n_multiflow), str(r.n_bs_only),
                  str(r.n_single_sca), str(int(r.infeasible)), "0",
                  str(r.exchanged_scalars)]
        out.write(",".join(fields) + "\n")
    return out.getvalue()


def summary_csv(rows) -> str:
    out = io.StringIO()
    out.write(SUMMARY_HEADER + "\n")
    for row in rows:
        fields = [_num(row["axis_value"]), row["algorithm"], str(row["n_trials"]),
                  str(row["n_feasible"]), repr(row["feasible_fraction"]),
                  repr(row["mean_total_dbm"]), repr(row["std_total_dbm"]),
                  repr(row["multiflow_fraction"]), repr(row["sca_multiuser_fraction"])]
        out.write(",".join(fields) + "\n")
    return out.getvalue()
