"""Command-line entry point for Monte Carlo sweeps.

    softcell-sim --sweep n_sca --values 0,1,2 --trials 100 \
                 --algorithms optimal,rzf --seed 7 --out fig3.csv --workers 8

Writes the per-trial records to --out and the grouped summary next to it with
a .summary.csv suffix.  Without --out both tables go to stdout.  The base
scenario is the desk-scale default, a JSON file via --config, or the full
published setup via --full-paper-setup.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

from .exceptions import InvalidInputError
from .scenario import ScenarioConfig, load_config
from .simulate import (ALGORITHMS, AXES, SweepSpec, records_csv, run_sweep,
                       summary_csv)

# Two SCAs on the cell diagonal at radius 0.3 km, four uniformly dropped
# users plus one user near each SCA, sixteen BS antennas.
_R_SCA = 0.3 / math.sqrt(2.0)


def desk_config(seed: int = 0) -> ScenarioConfig:
    return ScenarioConfig(
        cell_radius=0.5, num_users_uniform=4,
        sca_positions=((_R_SCA, _R_SCA), (-_R_SCA, -_R_SCA)),
        users_per_sca=1, n_bs=16, n_sca=2, qos_targets=(2.0,) * 6, seed=seed)


def full_paper_config(seed: int = 0) -> ScenarioConfig:
    positions = tuple((0.3 * math.cos(math.radians(a)), 0.3 * math.sin(math.radians(a)))
                      for a in (45.0, 135.0, 225.0, 315.0))
    return ScenarioConfig(
        cell_radius=0.5, num_users_uniform=6, sca_positions=positions,
        users_per_sca=1, n_bs=100, n_sca=1, qos_targets=(2.0,) * 10, seed=seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softcell-sim",
        description="Monte Carlo sweeps of coordinated multiflow beamforming.")
    scenario = parser.add_mutually_exclusive_group()
    scenario.add_argument("--config", help="JSON scenario file (defaults to the desk-scale setup)")
    parser.add_argument("--sweep", required=True, choices=AXES, help="sweep axis")
    parser.add_argument("--values", required=True,
                        help="comma-separated axis values, strictly increasing")
    parser.add_argument("--trials", type=int, default=100, help="trials per (value, algorithm)")
    parser.add_argument("--algorithms", default="optimal,rzf",
                        help=f"comma-separated subset of {','.join(ALGORITHMS)}")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument("--out", help="records CSV path (summary goes to <out>.summary.csv)")
    parser.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    scenario.add_argument("--full-paper-setup", action="store_true",
                          help="radius 0.5 km, 4 SCAs, 10 users, 100 BS antennas")
    return parser


def _parse_values(axis: str, text: str):
    parts = [p for p in text.split(",") if p.strip()]
    kind = float if axis == "qos" else int
    try:
        return tuple(kind(p) for p in parts)
    except ValueError:
        kinds = "numbers" if kind is float else "integers"
        raise InvalidInputError(f"{axis} values must be {kinds}, got {text!r}") from None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            base = load_config(args.config)
        elif args.full_paper_setup:
            base = full_paper_config()
        else:
            base = desk_config()
        if args.seed is not None:
            base = replace(base, seed=args.seed, hardware=base.hardware)

        spec = SweepSpec(axis=args.sweep, values=_parse_values(args.sweep, args.values),
                         trials=args.trials,
                         algorithms=tuple(a for a in args.algorithms.split(",") if a),
                         base=base)
        records, summary = run_sweep(spec, workers=args.workers)
    except InvalidInputError as exc:
        parser.error(str(exc))

    rec_text, sum_text = records_csv(records), summary_csv(summary)
    if args.out:
        parent = os.path.dirname(args.out)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(args.out, "w") as fh:
            fh.write(rec_text)
        with open(args.out + ".summary.csv", "w") as fh:
            fh.write(sum_text)
    else:
        sys.stdout.write(rec_text)
        sys.stdout.write(sum_text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
