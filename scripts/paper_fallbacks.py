#!/usr/bin/env python3
"""Relaxation fallbacks of the exact solver at the paper's geometry.

Runs full_paper_config() (N_BS=100, K=10, four single-antenna small cells)
at QoS 3, trials 0-23, with the small-cell caps x0.1, so that the uplink fixed
point's beams break a small-cell cap and a fallback answers: the cap ascent on
that cap's multiplier (its one-cap answer, or its two-cap answer where that
answer breaks one more cap of the same transmitter), or the relaxation seeded
with the caps the beams touch.  Each small cell has one antenna here, so the
two-cap step never runs.  Prints one line per trial that fell back: the
candidate that answered (the solution's path), the ascent's evaluations of
the uplink fixed point, the BS block size, coordinates, IPM iterations and
seconds of each program solved, then the trial's total power and its
certificate's duality residual.  Exits 1 on any uncertified status or any
duality residual above DUALITY_TOL.

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
    """solve_optimal(problem) with its fallbacks recorded: the number of
    uplink fixed points the cap ascent evaluated, and each relaxation solved
    as (BS block size, coordinates, iterations, seconds)."""
    solves, evaluations = [], [0]
    build, solve = coordination.build_relaxation, cs.solve
    solve_uplink = coordination._solve_uplink

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

    def counted_uplink(p, mu=None, lam=None):
        evaluations[0] += mu is not None
        return solve_uplink(p, mu, lam)

    coordination.build_relaxation, cs.solve = recorded_build, timed_solve
    coordination._solve_uplink = counted_uplink
    try:
        return solve_optimal(problem), evaluations[0], solves
    finally:
        coordination.build_relaxation, cs.solve = build, solve
        coordination._solve_uplink = solve_uplink


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
            (solution, certificate), evaluations, solves = recorded_solves(problem)
        except InfeasibleProblemError:
            print(f"trial {trial}: infeasible (certified)")
            continue
        except NumericalFailureError as exc:
            print(f"trial {trial}: numerical failure: {exc}")
            bad += 1
            continue
        if solution.path == "uplink":
            continue
        fallbacks += 1
        residual = verify_duality(solution, certificate, problem).max_residual
        bad += residual > DUALITY_TOL
        steps = [f"ascent {evaluations} evaluations"] if evaluations else []
        steps += [f"BS blocks {bs}x{bs}, {coords} coordinates, {iters} iterations, {seconds:.3f} s"
                  for bs, coords, iters, seconds in solves]
        print(f"trial {trial}: {solution.path}; {'; '.join(steps)}; "
              f"total {solution.objective_total:.6f} mW, duality residual {residual:.2g}")
    print(f"{fallbacks} fallbacks in {TRIALS} trials, {bad} uncertified or above "
          f"DUALITY_TOL {DUALITY_TOL:g}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
