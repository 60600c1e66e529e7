#!/usr/bin/env python3
"""Relaxation fallbacks of the exact solver at the paper's geometry.

Runs full_paper_config() (N_BS=100, K=10, four single-antenna small cells)
at QoS 3, trials 0-23, with the small-cell caps x0.1, so that the uplink fixed
point's beams break a small-cell cap and the relaxation seeded with that cap
answers.  Prints one line per trial that solved a relaxation: the BS block
size, coordinates, IPM iterations and seconds of each program solved, then the
trial's total power and its certificate's duality residual.  Exits 1 on any
uncertified status or any duality residual above DUALITY_TOL.

    python3 scripts/paper_fallbacks.py
"""

import pathlib
import sys
import time
from dataclasses import replace

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from softcell import conic_solver as cs  # noqa: E402
from softcell import coordination  # noqa: E402
from softcell.cli import full_paper_config  # noqa: E402
from softcell.coordination import (DUALITY_TOL, CoordinationProblem, solve_optimal,  # noqa: E402
                                   verify_duality)
from softcell.exceptions import InfeasibleProblemError, NumericalFailureError  # noqa: E402
from softcell.power import HardwareProfile  # noqa: E402
from softcell.scenario import realize_scenario  # noqa: E402

QOS, TRIALS, CAP_FACTOR = 3.0, 24, 0.1      # the declared corpus


def recorded_solves(problem):
    """solve_optimal(problem) with each relaxation it solves recorded as
    (BS block size, coordinates, iterations, seconds)."""
    solves = []
    build, solve = coordination.build_relaxation, cs.solve

    def timed_solve(conic):
        t0 = time.perf_counter()
        sol = solve(conic)
        solves[-1] += (sol.iterations, time.perf_counter() - t0)
        return sol

    def recorded_build(p, caps):
        relax = build(p, caps)
        bs = relax.conic.blocks[min(relax.block_of.values())].dim
        solves.append((bs, sum(b.svec_dim for b in relax.conic.blocks)))
        return relax

    coordination.build_relaxation, cs.solve = recorded_build, timed_solve
    try:
        return solve_optimal(problem), solves
    finally:
        coordination.build_relaxation, cs.solve = build, solve


def main() -> int:
    cfg = full_paper_config()
    hw = cfg.hardware
    caps = hw.per_antenna_limit[:1] + tuple(CAP_FACTOR * q for q in hw.per_antenna_limit[1:])
    cfg = replace(cfg, qos_targets=(QOS,) * len(cfg.qos_targets),
                  hardware=HardwareProfile(hw.rho, hw.eta, caps, hw.subcarriers))
    bad = fallbacks = 0
    for trial in range(TRIALS):
        problem = CoordinationProblem(realize_scenario(cfg, trial=trial), cfg.hardware,
                                      cfg.qos_targets)
        try:
            (solution, certificate), solves = recorded_solves(problem)
        except InfeasibleProblemError:
            print(f"trial {trial}: infeasible (certified)")
            continue
        except NumericalFailureError as exc:
            print(f"trial {trial}: numerical failure: {exc}")
            bad += 1
            continue
        if not solves:
            continue
        fallbacks += 1
        residual = verify_duality(solution, certificate, problem).max_residual
        bad += residual > DUALITY_TOL
        programs = "; ".join(f"BS blocks {bs}x{bs}, {coords} coordinates, {iters} iterations, "
                             f"{seconds:.3f} s" for bs, coords, iters, seconds in solves)
        print(f"trial {trial}: {programs}; total {solution.objective_total:.6f} mW, "
              f"duality residual {residual:.2g}")
    print(f"{fallbacks} fallbacks in {TRIALS} trials, {bad} uncertified or above "
          f"DUALITY_TOL {DUALITY_TOL:g}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
