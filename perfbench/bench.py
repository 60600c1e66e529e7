"""Workloads, the closed trial loop, metrics and the report of one run.

Imported by run.py after the BLAS thread count is pinned.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import softcell
from softcell import simulate
from softcell.cli import desk_config, full_paper_config

import calibrate
import checks
import tracing
from run import ROOT, THREADS

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 7
# A percentile is reported only with at least ten samples beyond it.
P90_MIN_SAMPLES = 100


@dataclass(frozen=True)
class Workload:
    name: str
    make_config: Callable
    values: tuple                   # QoS axis values, bits/s/Hz
    algorithm: str
    trials: range

    def corpus(self, seed: int) -> list[tuple]:
        """The fixed (value, trial) corpus in an order drawn from ``seed``.

        The set is fixed because trial cost varies more than tenfold inside
        it (one desk trial stalls for 200 IPM iterations, where the median
        takes 18; paper trials take 19 to 31), so a seed-drawn subset would
        measure the draw rather than the program."""
        corpus = [(v, t) for v in self.values for t in self.trials]
        random.Random(seed).shuffle(corpus)
        return corpus


WORKLOADS = {w.name: w for w in (
    # The QoS sweep of scripts/sweep_qos.py (seed 202), its first 16 trials:
    # many small PSD blocks, a 200-iteration stall (qos 1, trial 3), rank
    # repair solves and a numerical failure (qos 1, trial 9) at one thread.
    Workload("desk_optimal", lambda: desk_config(seed=202), (1.0, 2.0, 3.0), "optimal", range(16)),
    # Paper scale (N_BS=100, K=10, S=4): dense Schur assembly and 100x100 NT
    # scaling dominate; about 27 s per trial, so one trial per pass.
    Workload("paper_optimal", full_paper_config, (2.0,), "optimal", range(1)),
    # The heuristic never enters the PSD path: scenario, evaluation, the LP
    # through the nonnegative orthant, and rzf directions.
    Workload("paper_rzf", full_paper_config, (2.0,), "rzf", range(256)),
)}


@dataclass
class Passes:
    records: list
    starts: list = field(default_factory=list)      # tracing.clock() around each trial
    ends: list = field(default_factory=list)
    trial_s: list = field(default_factory=list)     # reference seconds per trial
    count: int = 0
    wall_s: float = 0.0                             # wall time of the loop, for the report

    @property
    def elapsed(self) -> float:
        """Time of the corpus: the loop does nothing between trials."""
        return sum(self.trial_s)

    @property
    def trials_per_s(self) -> float:
        return len(self.records) / self.elapsed


def run_passes(callers: list, base, workload: Workload, corpus: list,
               seconds: float, meter: calibrate.Meter) -> list[Passes]:
    """Whole passes over ``corpus``, one trial at a time, until ``seconds``
    of wall time have elapsed.  With several callers each trial runs through
    each of them back to back, so their timings are paired; the order rotates
    from trial to trial because a repeated trial runs slightly faster.  Trial
    times are in reference seconds (calibrate.py)."""
    runs = [Passes([]) for _ in callers]
    start = time.perf_counter()
    with meter.sampling():
        while True:
            for i, (value, trial) in enumerate(corpus):
                for c in range(len(callers)):
                    c = (c + i) % len(callers)
                    runs[c].starts.append(tracing.clock())
                    runs[c].records.append(
                        callers[c](base, "qos", value, workload.algorithm, trial))
                    runs[c].ends.append(tracing.clock())
            for out in runs:
                out.count += 1
            if time.perf_counter() - start >= seconds:
                break
    for out in runs:
        out.trial_s = meter.durations(out.starts, out.ends)
        out.wall_s = time.perf_counter() - start
    return runs


def p90(samples: list) -> float | None:
    """90th percentile, or None when fewer than ten samples lie beyond it."""
    if len(samples) < P90_MIN_SAMPLES:
        return None
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def failed_fraction(records) -> float:
    """Trials ending in numerical_failure over trials attempted; infeasible
    and rzf_infeasible are certified outcomes, not failures."""
    return sum(r.status == "numerical_failure" for r in records) / len(records)


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": cpu, "threads": THREADS,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": sys.version.split()[0]}


def fingerprint(info: dict) -> str:
    """Code, libraries, CPU and thread count: what per-solve counts depend on."""
    digest = hashlib.sha256(json.dumps(info, sort_keys=True).encode())
    for path in sorted((ROOT / "src" / "softcell").glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def prepare(workload: Workload, seed: int):
    """Everything a run needs before its first trial."""
    reference = checks.load_reference(HERE / "reference" / f"{workload.name}.json")
    return workload.make_config(), workload.corpus(seed), reference


def setup_seconds(args) -> float:
    """Interpreter start to the first trial ready, the median over fresh
    processes.  A probe reports its own CPU time, which counts from its start;
    it is scaled by the factor of the kernel samples taken just before and
    after it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    meter = calibrate.Meter()
    meter.sample()
    out = []
    for _ in range(SETUP_PROBES):
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().split()
            proc.stdout.read()
        if proc.returncode != 0 or len(line) != 2 or line[0] != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        meter.sample()
        around = meter.kernel_s()[-2:]
        out.append(float(line[1]) * calibrate.REFERENCE_S / statistics.mean(around))
    return statistics.median(out)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="softcell closed-loop trial benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(run: Passes, setup_s: float) -> dict:
    return {
        "trials_per_s": metric(run.trials_per_s, "1/s"),
        "trial_s_p50": metric(statistics.median(run.trial_s), "s"),
        "certified_fraction": metric(1.0 - failed_fraction(run.records), "fraction"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: tracing.Tracer, untraced: Passes, traced: Passes) -> dict:
    trials = len(traced.records)
    values = tracing.layer_metrics(tracer, trials, traced.count)
    values["trace.trial_s"] = traced.elapsed / trials
    values["trace.untraced_trial_s"] = untraced.elapsed / len(untraced.records)
    values["trace.overhead"] = untraced.trials_per_s / traced.trials_per_s - 1.0
    return {name: metric(v, _unit(name)) for name, v in sorted(values.items())}


def _unit(name: str) -> str:
    if name.endswith("_s") or name.endswith("s_per_iter"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name == "trace.overhead":
        return "fraction"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if Path(softcell.__file__).resolve().parent != ROOT / "src" / "softcell":
        raise SystemExit(f"softcell was imported from {softcell.__file__}, not this checkout")
    workload = WORKLOADS[args.workload]
    base, corpus, reference = prepare(workload, args.seed)
    if args.setup_probe:
        print(f"ready {tracing.clock()!r}", flush=True)
        return 0

    info = machine()
    print("machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"workload {workload.name}, seed {args.seed}: {len(corpus)} trials per pass")

    meter = calibrate.Meter()
    if args.trace:
        # Every trial runs untraced and traced back to back; the pairs give
        # the tracing overhead.
        tracer = tracing.Tracer()
        runs = run_passes([simulate.run_trial, tracer.run_trial], base, workload, corpus,
                          args.seconds, meter)
        untraced, traced = runs
        tracer.rescale(meter.reference)
        metrics = per_layer(tracer, untraced, traced)
        problems = [(tracer.trial_key_of(root), f"{tracer.trial_key_of(root)}: {msg}")
                    for root, problem, solution, certificate in tracer.solutions
                    for msg in checks.solution_problems(problem, solution, certificate)]
        problems += checks.solve_count_problems(
            OUT / f"solve-counts-{workload.name}.json", fingerprint(info),
            tracing.solve_counts_by_trial(tracer))
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{workload.name}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"machine": info, "workload": workload.name,
                                          "seed": args.seed, "spans": tracer.dump()}))
        lines = [f"{len(traced.records)} trials in {traced.count} pass(es), each run untraced "
                 f"then traced; spans written to {trace_file.relative_to(ROOT)}",
                 f"tracing overhead: traced {traced.trials_per_s:.4f} trials/s against "
                 f"untraced {untraced.trials_per_s:.4f} trials/s",
                 "conic solves by outcome: " + json.dumps(tracing.solve_outcomes(tracer.spans))]
    else:
        (untraced,) = runs = run_passes([simulate.run_trial], base, workload, corpus,
                                        args.seconds, meter)
        metrics = end_to_end(untraced, setup_seconds(args))
        problems = []
        tail = p90(untraced.trial_s)
        lines = [f"{len(untraced.records)} trials in {untraced.count} pass(es), "
                 f"{untraced.elapsed:.3f} s at reference speed, {untraced.wall_s:.3f} s wall",
                 f"trial_s_p50 over n={len(untraced.trial_s)} trials; trial_s_p90 "
                 + (f"{tail:.6g} s" if tail is not None
                    else f"not reported (n={len(untraced.trial_s)} < {P90_MIN_SAMPLES})")]

    lines.append(f"machine speed: calibration kernel median {statistics.median(meter.kernel_s()):.6g} s "
                 f"CPU over {len(meter.samples)} samples against {calibrate.REFERENCE_S} s at "
                 f"reference speed; other threads used {meter.other_threads_share:.2%} "
                 f"of the CPU time")
    if meter.other_threads_share > calibrate.OTHER_THREADS:
        problems.append((None, f"threads other than the main one used "
                               f"{meter.other_threads_share:.1%} of the CPU time; "
                               f"the benchmark times the main thread only"))
    records = [r for run in runs for r in run.records]
    lines.append(f"failed_fraction {failed_fraction(records):.6g} fraction (numerical_failure "
                 f"over {len(records)} trials attempted)")
    lines += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    problems += checks.reference_problems(records, reference)
    problems += checks.repeat_problems(records)
    bad_keys = {key for key, _ in problems}
    lines += [f"CHECK FAILED {msg}" for _, msg in problems] or ["output checks passed"]
    print("\n".join(lines))
    print(json.dumps({"correct": not problems, "attempted": len(records),
                      "failed": sum(tracing.trial_key(r.axis_value, r.trial) in bad_keys
                                    for r in records),
                      "metrics": metrics}))
    return 0 if not problems else 1
