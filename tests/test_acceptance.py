"""End-to-end acceptance battery.

Each test prints one [PASS]/[FAIL] line with its tolerance so the run log
doubles as the acceptance report.  Heavy artifacts (the 200-instance pool and
the Monte Carlo sweeps) are built once per module and shared.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import loose_hardware, make_channels
from softcell import conic_solver as cs
from softcell.cli import desk_config
from softcell.conic_problem import NONNEG, PSD, Block, ConicProblem
from softcell.coordination import (CoordinationProblem, classify_assignment,
                                   solve_optimal, verify_duality)
from softcell.evaluation import evaluate
from softcell.exceptions import (InfeasibleProblemError, NumericalFailureError,
                                 RzfInfeasibleError)
from softcell.power import HardwareProfile
from softcell.rzf import rzf_solve
from softcell.scenario import ScenarioConfig, realize_scenario
from softcell.simulate import SweepSpec, records_csv, run_sweep, summary_csv

_R = 0.3 / np.sqrt(2.0)


def _announce(capsys, ok: bool, text: str) -> None:
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {text}", flush=True)


# ---------------------------------------------------------------------------
# Shared artifacts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def instance_set():
    """>= 200 feasible random instances with N_BS <= 16, K <= 6, S <= 2.

    Every record keeps the exact solution, its certificate, the duality and
    assignment reports, the heuristic outcome and the exact-solve wall time.
    """
    sca_sites = ((_R, _R), (-_R, -_R))
    combos = []
    for n_bs in (4, 8, 16):
        for s in (0, 1, 2):
            for users_per_sca in ((0,) if s == 0 else (0, 1)):
                for uniform in (1, 2, 4):
                    for gamma in (1.0, 2.0, 3.0):
                        if uniform + users_per_sca * s <= 6:
                            combos.append((n_bs, s, users_per_sca, uniform, gamma))
    records = []
    failures = []
    for trial in range(3):
        if len(records) >= 200:
            break
        for idx, (n_bs, s, users_per_sca, uniform, gamma) in enumerate(combos):
            if len(records) >= 200:
                break
            k_total = uniform + users_per_sca * s
            cfg = ScenarioConfig(
                cell_radius=0.5, num_users_uniform=uniform,
                sca_positions=sca_sites[:s], users_per_sca=users_per_sca,
                n_bs=n_bs, n_sca=2, qos_targets=(gamma,) * k_total,
                seed=7000 + idx)
            channels = realize_scenario(cfg, trial=trial)
            problem = CoordinationProblem(channels, cfg.hardware, cfg.qos_targets)
            t0 = time.perf_counter()
            try:
                solution, cert = solve_optimal(problem)
            except InfeasibleProblemError:
                continue
            except NumericalFailureError as exc:
                failures.append((idx, trial, str(exc)))
                continue
            wall = time.perf_counter() - t0
            try:
                heur = rzf_solve(problem)
                heur_status = "optimal"
            except RzfInfeasibleError:
                heur, heur_status = None, "rzf_infeasible"
            records.append({
                "config": cfg, "problem": problem, "solution": solution,
                "certificate": cert, "wall_s": wall,
                "evaluation": evaluate(solution, channels, cfg.hardware, cfg.qos_targets),
                "duality": verify_duality(solution, cert, problem),
                "assignment": classify_assignment(solution, cfg.hardware),
                "rzf": heur, "rzf_status": heur_status,
            })
    return {"records": records, "failures": failures}


@pytest.fixture(scope="module")
def antenna_sweeps():
    """One n_sca in {0,1,2} sweep per n_bs in {8,16,24}: 100 trials, exact only."""
    out = {}
    t0 = time.perf_counter()
    for n_bs in (8, 16, 24):
        base = replace(desk_config(seed=101), n_bs=n_bs)
        spec = SweepSpec(axis="n_sca", values=(0, 1, 2), trials=100,
                         algorithms=("optimal",), base=base)
        records, summary = run_sweep(spec, workers=1)
        out[n_bs] = {"spec": spec, "records": records, "summary": summary}
    out["elapsed_s"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def qos_sweep():
    base = desk_config(seed=202)
    spec = SweepSpec(axis="qos", values=(1.0, 2.0, 3.0), trials=100,
                     algorithms=("optimal", "rzf", "bs_only"), base=base)
    records, summary = run_sweep(spec, workers=1)
    return {"spec": spec, "records": records, "summary": summary}


def _group(records, value, algorithm):
    return [r for r in records if r.axis_value == value and r.algorithm == algorithm]


def _paired_dbm(records, val_a, val_b, algorithm="optimal"):
    """Per-trial total_dbm pairs for trials feasible at both axis values."""
    a = {r.trial: r for r in _group(records, val_a, algorithm)}
    b = {r.trial: r for r in _group(records, val_b, algorithm)}
    pairs = [(a[t].total_dbm, b[t].total_dbm) for t in sorted(set(a) & set(b))
             if not (a[t].infeasible or b[t].infeasible)]
    return np.array(pairs)


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_01_single_user_closed_form(capsys):
    h = np.array([0.6, 0.8j])
    ch = make_channels([[h]], [1.0])
    prob = CoordinationProblem(ch, loose_hardware(1, rho=2.0), (2.0,))
    t0 = time.perf_counter()
    exact, _ = solve_optimal(prob)
    t_exact = time.perf_counter() - t0
    t0 = time.perf_counter()
    heur = rzf_solve(prob)
    t_heur = time.perf_counter() - t0
    err_exact = abs(exact.p[0, 0] - 3.0) / 3.0
    err_heur = abs(heur.p[0, 0] - 3.0) / 3.0
    ok = err_exact <= 1e-6 and err_heur <= 1e-6 and t_exact < 0.1 and t_heur < 0.1
    _announce(capsys, ok,
              f"criterion 1: single-user emitted power 3 mW from both solvers "
              f"(rel err {max(err_exact, err_heur):.2e} <= 1e-6, "
              f"times {t_exact * 1e3:.1f}/{t_heur * 1e3:.1f} ms < 100 ms)")
    assert ok


def test_criterion_02_repaired_objective_matches_relaxation(capsys, instance_set):
    records, failures = instance_set["records"], instance_set["failures"]
    n = len(records)
    worst_obj, worst_viol, worst_wall = 0.0, 0.0, 0.0
    for rec in records:
        sol, rep = rec["solution"], rec["evaluation"]
        rel = abs(sol.objective_dynamic - sol.objective_relaxation) \
            / (1.0 + abs(sol.objective_relaxation))
        worst_obj = max(worst_obj, rel)
        gt = rec["problem"].gtilde
        for k in rec["problem"].qos_users():
            worst_viol = max(worst_viol, (gt[k] - rep.sinr[k]) / gt[k])
        for slack in rep.power_slacks:
            if slack.limit_mw > 0:
                worst_viol = max(worst_viol, -slack.slack_mw / slack.limit_mw)
        worst_wall = max(worst_wall, rec["wall_s"])
    ok = (n >= 200 and not failures and worst_obj <= 1e-6
          and worst_viol <= 1e-6 and worst_wall < 2.0)
    _announce(capsys, ok,
              f"criterion 2: {n} feasible instances, rank-one objective within "
              f"{worst_obj:.2e} of the relaxed optimum (tol 1e-6 rel), worst "
              f"constraint violation {worst_viol:.2e} (tol 1e-6), slowest solve "
              f"{worst_wall * 1e3:.0f} ms (< 2 s), {len(failures)} numerical failures")
    assert ok


def test_criterion_03_duality_certificates(capsys, instance_set):
    records = instance_set["records"]
    worst = max(rec["duality"].max_residual for rec in records)
    checked = sum(np.isfinite(rec["duality"].residual).sum() for rec in records)
    ok = len(records) >= 200 and worst <= 1e-4
    _announce(capsys, ok,
              f"criterion 3: duality identity on {checked} served users across "
              f"{len(records)} instances, max residual {worst:.2e} (tol 1e-4)")
    assert ok


def test_criterion_04_multiflow_is_licensed_by_active_caps(capsys, instance_set):
    records = instance_set["records"]
    unlicensed = [d for rec in records for d in rec["assignment"].diagnostics]
    n_multiflow = sum(rec["assignment"].count("multiflow") for rec in records)

    # Re-solve with caps scaled by 100.  A lifted cap can still bind (a cheap
    # split is worth its whole budget), so any surviving multiflow must still
    # be licensed; once caps are lifted beyond every binding level, splitting
    # has no incentive left and must disappear entirely.
    def lift(rec, factor):
        hw = rec["config"].hardware
        lifted = HardwareProfile(rho=hw.rho, eta=hw.eta,
                                 per_antenna_limit=tuple(factor * q for q in hw.per_antenna_limit),
                                 subcarriers=hw.subcarriers)
        problem = CoordinationProblem(rec["problem"].channels, lifted, rec["problem"].gamma)
        solution, _ = solve_optimal(problem)
        return classify_assignment(solution, lifted)

    retest = [rec for rec in records if rec["assignment"].count("multiflow")]
    chosen = {id(rec) for rec in retest}
    retest = (retest + [rec for rec in records if id(rec) not in chosen])[:40]
    still_multiflow, unlicensed_lifted, unbound_multiflow = [], [], 0
    for rec in retest:
        report = lift(rec, 100.0)
        unlicensed_lifted += report.diagnostics
        if report.count("multiflow"):
            still_multiflow.append(rec)
    for rec in still_multiflow:
        unbound_multiflow += lift(rec, 1e6).count("multiflow")
    ok = (not unlicensed and not unlicensed_lifted and unbound_multiflow == 0
          and len(still_multiflow) <= len(retest) // 10)
    _announce(capsys, ok,
              f"criterion 4: {n_multiflow} multiflow users all licensed by an active "
              f"per-antenna cap (tol 1e-6); caps x100 on {len(retest)} instances leave "
              f"{len(still_multiflow)} splits (all still cap-licensed), and caps lifted "
              f"beyond every binding level leave {unbound_multiflow}")
    assert ok


def test_criterion_05_heuristic_never_beats_the_optimum(capsys, instance_set):
    records = instance_set["records"]
    gaps = []
    violations = 0
    for rec in records:
        if rec["rzf"] is None:
            continue
        opt, heur = rec["solution"].objective_total, rec["rzf"].objective_total
        if heur < opt * (1.0 - 1e-6):
            violations += 1
        gaps.append(heur / opt - 1.0)
    ok = violations == 0 and len(gaps) > 0
    _announce(capsys, ok,
              f"criterion 5: heuristic >= optimum - 1e-6 rel on {len(gaps)}/"
              f"{len(records)} heuristic-feasible instances ({violations} violations), "
              f"mean consumption gap {100.0 * np.mean(gaps):.1f}%")
    assert ok


def test_criterion_06_brute_force_finds_nothing_cheaper(capsys):
    rng = np.random.default_rng(4242)
    h0 = (rng.normal(size=2) + 1j * rng.normal(size=2)) / np.sqrt(2.0)
    h1 = (rng.normal(size=2) + 1j * rng.normal(size=2)) / np.sqrt(2.0)
    ch = make_channels([[h0], [h1]], [1.0, 1.0])
    hw = loose_hardware(1, rho=2.0)
    prob = CoordinationProblem(ch, hw, (2.0, 2.0))
    exact, _ = solve_optimal(prob)
    gt = 3.0

    t0 = time.perf_counter()
    best = np.inf
    total = 10 ** 6
    chunk = 10 ** 5
    for _ in range(total // chunk):
        u0 = rng.normal(size=(chunk, 2)) + 1j * rng.normal(size=(chunk, 2))
        u1 = rng.normal(size=(chunk, 2)) + 1j * rng.normal(size=(chunk, 2))
        u0 /= np.linalg.norm(u0, axis=1, keepdims=True)
        u1 /= np.linalg.norm(u1, axis=1, keepdims=True)
        a00 = np.abs(u0 @ h0.conj()) ** 2
        a01 = np.abs(u1 @ h0.conj()) ** 2
        a10 = np.abs(u0 @ h1.conj()) ** 2
        a11 = np.abs(u1 @ h1.conj()) ** 2
        # SINR targets met with equality: a 2x2 linear system in the powers.
        det = a00 * a11 - gt * gt * a01 * a10
        with np.errstate(divide="ignore", invalid="ignore"):
            p0 = gt * (a11 + gt * a01) / det
            p1 = gt * (a00 + gt * a10) / det
        valid = (det > 0) & (p0 >= 0) & (p1 >= 0)
        if np.any(valid):
            best = min(best, float((p0[valid] + p1[valid]).min()))
    elapsed = time.perf_counter() - t0
    best_total = hw.rho[0] * best + exact.objective_static
    ok = best_total >= exact.objective_total * (1.0 - 1e-4) and elapsed < 60.0
    _announce(capsys, ok,
              f"criterion 6: 1e6 random rank-one pairs, best {best_total:.6f} mW vs "
              f"optimum {exact.objective_total:.6f} mW (none below -1e-4 rel), "
              f"{elapsed:.1f} s < 60 s")
    assert ok


def test_criterion_07_small_cells_and_antennas_reduce_power(capsys, antenna_sweeps):
    sca_gains, bs_trend_ok, multiflow_worst = [], True, 0.0
    for n_bs in (8, 16, 24):
        records = antenna_sweeps[n_bs]["records"]
        for s in (0, 1):
            pairs = _paired_dbm(records, s, s + 1)
            diffs = pairs[:, 0] - pairs[:, 1]   # dB saved by the extra SCA
            se = diffs.std(ddof=1) / np.sqrt(len(diffs))
            sca_gains.append((n_bs, s, diffs.mean(), se, len(diffs)))
        for row in antenna_sweeps[n_bs]["summary"]:
            multiflow_worst = max(multiflow_worst, row["multiflow_fraction"])
    for s in (0, 1, 2):
        means = {}
        for n_bs in (8, 16, 24):
            rows = [r for r in antenna_sweeps[n_bs]["summary"] if r["axis_value"] == s]
            means[n_bs] = (rows[0]["mean_total_dbm"],
                           rows[0]["std_total_dbm"] / np.sqrt(rows[0]["n_feasible"]))
        for a, b in ((8, 16), (16, 24)):
            if means[b][0] > means[a][0] + np.hypot(means[a][1], means[b][1]):
                bs_trend_ok = False

    sca_ok = all(mean > se for (_, _, mean, se, _) in sca_gains)
    elapsed = antenna_sweeps["elapsed_s"]
    ok = sca_ok and bs_trend_ok and multiflow_worst < 0.10 and elapsed < 1800.0
    gains_text = "; ".join(f"N_BS={nb}, {s}->{s + 1} SCAs: {m:.2f} dB (SE {e:.2f}, n={n})"
                           for nb, s, m, e, n in sca_gains)
    _announce(capsys, ok,
              f"criterion 7: mean power drops beyond 1 SE per added SCA [{gains_text}]; "
              f"non-increasing in N_BS at fixed SCA count: {bs_trend_ok}; max multiflow "
              f"fraction {multiflow_worst:.3f} < 0.10; {elapsed / 60.0:.1f} min < 30 min")
    assert ok


def test_criterion_08_algorithm_ordering_across_targets(capsys, qos_sweep):
    records = qos_sweep["records"]

    def paired_means(gamma, alg_a, alg_b):
        a = {r.trial: r for r in _group(records, gamma, alg_a)}
        b = {r.trial: r for r in _group(records, gamma, alg_b)}
        common = [t for t in sorted(set(a) & set(b))
                  if not (a[t].infeasible or b[t].infeasible)]
        da = np.array([a[t].total_dbm for t in common])
        db = np.array([b[t].total_dbm for t in common])
        return da, db

    ok = True
    strict_parts = []
    for gamma in (1.0, 2.0, 3.0):
        bs, rzf_b = paired_means(gamma, "bs_only", "rzf")
        rzf_o, opt = paired_means(gamma, "rzf", "optimal")
        ok &= bs.mean() >= rzf_b.mean() - 1e-9
        ok &= rzf_o.mean() >= opt.mean() - 1e-9
        if gamma == 3.0:
            d1 = bs.mean() - rzf_b.mean()
            se1 = (bs - rzf_b).std(ddof=1) / np.sqrt(len(bs))
            d2 = rzf_o.mean() - opt.mean()
            se2 = (rzf_o - opt).std(ddof=1) / np.sqrt(len(opt))
            strict_parts = [(d1, se1), (d2, se2)]
            ok &= d1 > se1 and d2 > se2
    text = ", ".join(f"gap {d:.2f} dB > SE {e:.2f}" for d, e in strict_parts)
    _announce(capsys, ok,
              f"criterion 8: mean total power bs_only >= rzf >= optimal at targets "
              f"1/2/3 bits/s/Hz on mutually feasible trials; strict at 3 ({text})")
    assert ok


def test_criterion_09_worker_count_leaves_output_byte_identical(capsys, antenna_sweeps):
    spec = antenna_sweeps[16]["spec"]
    serial_records = records_csv(antenna_sweeps[16]["records"])
    serial_summary = summary_csv(antenna_sweeps[16]["summary"])
    records8, summary8 = run_sweep(spec, workers=8)
    ok = (records_csv(records8) == serial_records
          and summary_csv(summary8) == serial_summary)
    _announce(capsys, ok,
              f"criterion 9: 300-trial sweep with 1 and 8 workers produced "
              f"byte-identical record and summary CSVs "
              f"({len(serial_records)} + {len(serial_summary)} bytes)")
    assert ok


def test_criterion_10_analytic_programs_and_infeasibility_certificates(capsys):
    worst = 0.0
    # Trace minimization against a rank-one floor: optimum 1 at h h^H.
    h = np.array([1.0, 0.0], dtype=complex)
    prob = ConicProblem([Block(PSD, 2)])
    prob.add_constraint({0: np.outer(h, h.conj())}, ">=", 1.0)
    prob.set_objective({0: np.eye(2, dtype=complex)})
    sol = cs.solve(prob)
    worst = max(worst, abs(sol.primal_objective - 1.0))
    ok = sol.status == cs.OPTIMAL

    # Scalar program p >= 3 with multiplier 3.
    prob = ConicProblem([Block(NONNEG, 1)])
    row = prob.add_constraint({0: np.array([1.0 / 3.0])}, ">=", 1.0)
    prob.set_objective({0: np.array([1.0])})
    sol = cs.solve(prob)
    ok &= sol.status == cs.OPTIMAL
    worst = max(worst, abs(sol.primal_objective - 3.0) / 3.0,
                abs(sol.duals[row] - 3.0) / 3.0)

    # Mixed cone: p >= 2 plus a unit gain floor, optimum 3.
    g = np.array([0.6, 0.8], dtype=complex)
    prob = ConicProblem([Block(NONNEG, 1), Block(PSD, 2)])
    prob.add_constraint({0: np.array([1.0])}, ">=", 2.0)
    prob.add_constraint({1: np.outer(g, g.conj())}, ">=", 1.0)
    prob.set_objective({0: np.array([1.0]), 1: np.eye(2, dtype=complex)})
    sol = cs.solve(prob)
    ok &= sol.status == cs.OPTIMAL
    worst = max(worst, abs(sol.primal_objective - 3.0) / 3.0)

    # Randomized contradictory programs must certify, never claim optimality.
    rng = np.random.default_rng(77)
    certified = 0
    for _ in range(10):
        n = int(rng.integers(1, 4))
        a = rng.uniform(0.5, 2.0, size=n)
        prob = ConicProblem([Block(NONNEG, n), Block(PSD, 2)])
        prob.add_constraint({0: a}, ">=", 2.0)
        prob.add_constraint({0: a}, "<=", rng.uniform(0.1, 1.0))
        A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        prob.add_constraint({1: A @ A.conj().T + 0.1 * np.eye(2)}, ">=", 1.0)
        prob.set_objective({0: np.ones(n), 1: np.eye(2, dtype=complex)})
        sol = cs.solve(prob)
        ok &= sol.status == cs.INFEASIBLE and sol.duals is not None
        certified += int(sol.status == cs.INFEASIBLE and sol.duals is not None)
    ok &= worst <= 1e-6
    _announce(capsys, ok,
              f"criterion 10: analytic optima within {worst:.2e} (tol 1e-6); "
              f"{certified}/10 contradictory programs returned infeasibility "
              f"certificates and none claimed optimality")
    assert ok
