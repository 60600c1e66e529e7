"""Spans around calls into softcell's layers, recorded from the benchmark side.

The program is not modified: ``Tracer.run_trial`` rebinds each public name in
the module that calls it, and restores it when the trial ends.  A span is named
``<layer>.<function>``, where the layer is the softcell module the function
belongs to.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import asdict, dataclass

from softcell import conic_solver, coordination, evaluation, rzf, simulate
from softcell.conic_problem import PSD

# Every time the benchmark reports is measured as CPU time of the main thread
# and then scaled to a reference machine speed (calibrate.py).  The trial loop
# runs one BLAS thread, so on an idle machine this CPU time equals wall time;
# on a shared host it leaves out the time the process waits for a CPU, behind
# another process or while the hypervisor runs another guest (steal).  The
# process-wide clock would count other threads too, but while the calibration
# timer is armed it only advances at scheduler ticks; calibrate.Meter checks
# instead that no other thread did work.
clock = time.thread_time

# (module whose global is rebound, attribute, span name).  simulate.run_trial
# itself is wrapped at the benchmark's call site.
TARGETS = (
    (simulate, "realize_scenario", "scenario.realize_scenario"),
    (simulate, "solve_optimal", "coordination.solve_optimal"),
    (simulate, "classify_assignment", "coordination.classify_assignment"),
    (simulate, "rzf_solve", "rzf.rzf_solve"),
    (coordination, "build_relaxation", "coordination.build_relaxation"),
    (coordination, "repair_rank", "coordination.repair_rank"),
    (coordination, "evaluate", "evaluation.evaluate"),
    (coordination, "check_power_constraints", "power.check_power_constraints"),
    (evaluation, "check_power_constraints", "power.check_power_constraints"),
    (conic_solver, "solve", "conic_solver.solve"),
    (rzf, "rzf_directions", "rzf.rzf_directions"),
    (rzf, "allocate_power", "rzf.allocate_power"),
)
RUN_TRIAL = "simulate.run_trial"
SOLVE = "conic_solver.solve"

# A conic solve is attributed to the program it belongs to by its parent span.
SOLVE_KIND = {"coordination.solve_optimal": "relaxation",
              "coordination.repair_rank": "repair",
              "rzf.allocate_power": "lp"}

# Per-layer time metrics: each is the self time of one traced function, per
# trial.  Together they partition the time inside simulate.run_trial.
SELF_TIME_METRICS = {
    "scenario.realize_s": "scenario.realize_scenario",
    "coordination.solve_optimal_self_s": "coordination.solve_optimal",
    "coordination.build_relaxation_s": "coordination.build_relaxation",
    "coordination.repair_rank_s": "coordination.repair_rank",
    "coordination.classify_s": "coordination.classify_assignment",
    "conic_solver.solve_s": SOLVE,
    "rzf.rzf_solve_self_s": "rzf.rzf_solve",
    "rzf.directions_s": "rzf.rzf_directions",
    "rzf.allocate_power_s": "rzf.allocate_power",
    "evaluation.evaluate_s": "evaluation.evaluate",
    "power.check_s": "power.check_power_constraints",
    "simulate.run_trial_self_s": RUN_TRIAL,
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    root: int                       # id of the run_trial span: one per trial
    start: float
    end: float = float("nan")
    attrs: dict | None = None


def solve_counts(problem, solution) -> dict:
    """Sizes and outcome of one conic solve, all of which repeat exactly."""
    m = problem.num_constraints
    n = sum(block.svec_dim for block in problem.blocks)
    return {"rows": m, "coords": n,
            "psd_dims": [block.dim for block in problem.blocks if block.kind == PSD],
            # Computed, not measured: the dense standard-form A is m x n doubles.
            "dense_A_mb": 8.0 * m * n / 1e6,
            "iterations": solution.iterations, "status": solution.status,
            "message": solution.message}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.solutions: list[tuple] = []   # (root span id, problem, solution, certificate)
        self._stack: list[int] = []
        self._targets = [(module, attr, fn, self.wrap(name, fn))
                         for module, attr, name in TARGETS
                         for fn in (getattr(module, attr),)]
        self._run_trial = self.wrap(RUN_TRIAL, simulate.run_trial)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            sid = len(self.spans)
            span = Span(sid, name, parent, self._stack[0] if self._stack else sid,
                        clock())
            self.spans.append(span)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs = {"raised": type(exc).__name__}
                raise
            finally:
                span.end = clock()
                self._stack.pop()
            self._record(span, args, result)
            return result
        return traced

    def _record(self, span: Span, args: tuple, result) -> None:
        if span.name == RUN_TRIAL:
            _, _, value, _, trial = args
            span.attrs = {"key": trial_key(value, trial)}
        elif span.name == SOLVE:
            span.attrs = solve_counts(args[0], result)
        elif span.name == "coordination.solve_optimal":
            self.solutions.append((span.root, args[0], result[0], result[1]))
        elif span.name == "rzf.rzf_solve":
            self.solutions.append((span.root, args[0], result, None))

    def run_trial(self, *args):
        """``simulate.run_trial`` with every layer call traced.

        The wrappers are bound only for the duration of the call, so untraced
        trials in the same process run the program's own functions."""
        for module, attr, _, traced in self._targets:
            setattr(module, attr, traced)
        try:
            return self._run_trial(*args)
        finally:
            for module, attr, original, _ in self._targets:
                setattr(module, attr, original)

    def trial_key_of(self, root: int) -> str:
        return self.spans[root].attrs["key"]

    def rescale(self, to) -> None:
        """Map every span's clock readings through ``to`` (an array function)."""
        starts, ends = to([s.start for s in self.spans]), to([s.end for s in self.spans])
        for span, start, end in zip(self.spans, starts.tolist(), ends.tolist()):
            span.start, span.end = start, end

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def trial_key(value, trial: int) -> str:
    return f"{float(value)!r}/{trial}"


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span run one after another in this single-threaded
    program, so their durations never overlap and simply add.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def _returned_solve(span: Span) -> bool:
    return span.name == SOLVE and "iterations" in (span.attrs or {})


def _solve_kind(spans: list[Span], span: Span) -> str | None:
    return SOLVE_KIND.get(spans[span.parent].name) if span.parent is not None else None


def layer_metrics(tracer: Tracer, trials: int, passes: int) -> dict:
    """Per-layer metrics: times per trial, counts per pass over the corpus."""
    spans = tracer.spans
    own = self_times(spans)
    by_name: dict[str, float] = {}
    for s, t in zip(spans, own):
        by_name[s.name] = by_name.get(s.name, 0.0) + t
    metrics = {name: by_name.get(fn, 0.0) / trials for name, fn in SELF_TIME_METRICS.items()}

    solves = [(s, t) for s, t in zip(spans, own) if _returned_solve(s)]
    kind_time = {kind: 0.0 for kind in SOLVE_KIND.values()}
    for s, t in solves:
        kind = _solve_kind(spans, s)
        if kind:
            kind_time[kind] += t
    for kind, t in kind_time.items():
        metrics[f"conic_solver.solve_{kind}_s"] = t / trials
    iters = [s.attrs["iterations"] for s, _ in solves]
    metrics.update({
        "conic_solver.solves": len(solves) / passes,
        "coordination.repair_solves":
            sum(1 for s, _ in solves if _solve_kind(spans, s) == "repair") / passes,
        "conic_solver.iters_p50": float(statistics.median(iters)) if iters else 0.0,
        "conic_solver.iters_max": float(max(iters, default=0)),
        "conic_solver.s_per_iter": sum(t for _, t in solves) / sum(iters) if iters else 0.0,
        "conic_solver.reduced_precision_exits":
            sum(1 for s, _ in solves if s.attrs["message"].startswith("reduced precision")) / passes,
        "conic_solver.failed_solves":
            sum(1 for s, _ in solves if s.attrs["status"] == conic_solver.NUMERICAL_FAILURE) / passes,
        "conic_solver.rows": float(max((s.attrs["rows"] for s, _ in solves), default=0)),
        "conic_solver.coords": float(max((s.attrs["coords"] for s, _ in solves), default=0)),
        "conic_solver.dense_A_mb": max((s.attrs["dense_A_mb"] for s, _ in solves), default=0.0),
        "rzf.exchanged_scalars": sum(sum(solution.exchanged_scalars.values())
                                     for _, _, solution, certificate in tracer.solutions
                                     if certificate is None) / passes,
        "trace.layer_sum_s": sum(own) / trials,
    })
    return metrics


def solve_outcomes(spans: list[Span]) -> dict:
    """Number of conic solves per (status, exit message)."""
    out: dict[str, int] = {}
    for s in spans:
        if _returned_solve(s):
            label = s.attrs["status"] + (f" ({s.attrs['message']})" if s.attrs["message"] else "")
            out[label] = out.get(label, 0) + 1
    return out


def solve_counts_by_trial(tracer: Tracer) -> dict:
    """Trial key -> the ordered per-solve counts of every traced run of it.

    A trial traced in several passes contributes one list per pass."""
    per_root: dict[int, list] = {}
    for s in tracer.spans:
        if s.name == RUN_TRIAL:
            per_root.setdefault(s.id, [])
        elif _returned_solve(s):
            per_root[s.root].append(s.attrs)
    out: dict[str, list] = {}
    for root, counts in per_root.items():
        out.setdefault(tracer.trial_key_of(root), []).append(counts)
    return out
