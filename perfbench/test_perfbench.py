"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import run

run.pin_threads()
run.use_checkout_sources()

import pytest  # noqa: E402
from softcell.simulate import TrialRecord  # noqa: E402

import bench  # noqa: E402
import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402


def record(status="optimal", total_mw=40.0, trial=3, value=1.0):
    return TrialRecord(value, "optimal", trial, status, total_mw - 30.0, 30.0, total_mw,
                       0.0, 0, 0, 0, 0, status != "optimal", 12.5, 0)


REFERENCE = {"1.0/3": {"status": "optimal", "total_mw": 40.0},
             "1.0/9": {"status": "numerical_failure", "total_mw": None},
             "3.0/5": {"status": "infeasible", "total_mw": None}}


def test_p90_needs_ten_samples_beyond_it():
    assert bench.p90([1.0] * 99) is None
    samples = [float(i) for i in range(100)]
    assert bench.p90(samples) == pytest.approx(89.1)


def test_self_time_subtracts_direct_children_only():
    spans = [Span(0, "simulate.run_trial", None, 0, 0.0, 10.0),
             Span(1, "coordination.solve_optimal", 0, 0, 1.0, 4.0),
             Span(2, "conic_solver.solve", 1, 0, 2.0, 3.5),
             Span(3, "evaluation.evaluate", 0, 0, 5.0, 9.0),
             Span(4, "power.check_power_constraints", 3, 0, 6.0, 6.5)]
    own = tracing.self_times(spans)
    assert own == pytest.approx([3.0, 1.5, 1.5, 3.5, 0.5])
    # Self times partition the root span.
    assert sum(own) == pytest.approx(10.0)


def test_tracer_records_parents_and_roots():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("power.check_power_constraints", lambda: None)
    middle = tracer.wrap("evaluation.evaluate", lambda: leaf())
    trial = tracer.wrap("simulate.run_trial", lambda *a: (middle(), leaf()))
    trial(None, "qos", 1.0, "optimal", 3)
    trial(None, "qos", 2.0, "optimal", 4)
    assert [(s.name, s.parent, s.root) for s in tracer.spans] == [
        ("simulate.run_trial", None, 0), ("evaluation.evaluate", 0, 0),
        ("power.check_power_constraints", 1, 0), ("power.check_power_constraints", 0, 0),
        ("simulate.run_trial", None, 4), ("evaluation.evaluate", 4, 4),
        ("power.check_power_constraints", 5, 4), ("power.check_power_constraints", 4, 4)]
    assert tracer.trial_key_of(4) == "2.0/4"
    assert all(s.end >= s.start for s in tracer.spans)


def test_spans_leave_out_time_spent_waiting():
    import time
    tracer = tracing.Tracer()
    tracer.wrap("simulate.run_trial", lambda *a: time.sleep(0.2))(None, "qos", 1.0, "rzf", 0)
    (span,) = tracer.spans
    assert 0.0 <= span.end - span.start < 0.05


def test_reference_time_drops_kernel_time_and_scales_the_rest(monkeypatch):
    monkeypatch.setattr(calibrate, "SMOOTH", 1)
    meter = calibrate.Meter()
    ref = calibrate.REFERENCE_S
    # Kernel samples over clock [0, 1] at reference speed (factor 1) and over
    # [3, 4] at half of it: the kernel took twice as long, so a CPU second
    # there is half a reference second.
    meter.samples = [(0.0, 1.0, ref), (3.0, 4.0, 2 * ref)]
    assert meter.reference([-1.0, 0.5, 1.0, 2.0, 3.0, 3.5, 4.0, 5.0]).tolist() == \
        pytest.approx([-1.0, 0.0, 0.0, 0.75, 1.5, 1.5, 1.5, 2.0])
    assert meter.durations([0.5, 2.0], [5.0, 3.5]) == pytest.approx([2.0, 0.75])


def test_sampling_interrupts_a_long_stretch(monkeypatch):
    monkeypatch.setattr(calibrate, "BATCH", 1)
    monkeypatch.setattr(calibrate, "INTERVAL_S", 0.05)
    meter = calibrate.Meter()
    with meter.sampling():
        start = tracing.clock()
        while tracing.clock() - start < 0.4:
            pass
        end = tracing.clock()
    inside = [s for s in meter.samples if start < s[0] < end]
    assert len(meter.samples) == len(inside) + 2 and len(inside) >= 3
    # Samples never overlap a reading, and their time is not program time.
    (spent,) = meter.durations([start], [end])
    factors = meter.factors()
    assert spent < (end - start - sum(e - s for s, e, _ in inside)) * max(factors) * 1.01
    assert spent > (end - start - sum(e - s for s, e, _ in inside)) * min(factors) * 0.99


def test_sampling_measures_work_of_other_threads(monkeypatch):
    import threading
    monkeypatch.setattr(calibrate, "BATCH", 1)

    def spin():
        start = tracing.clock()
        while tracing.clock() - start < 0.2:
            pass

    meter = calibrate.Meter()
    with meter.sampling():
        spin()
    assert meter.other_threads_share < calibrate.OTHER_THREADS
    with meter.sampling():
        other = threading.Thread(target=spin)
        other.start()
        spin()
        other.join()
    assert meter.other_threads_share > 0.5


def test_traced_trial_covers_the_layers_and_restores_the_program():
    from softcell import conic_solver, simulate
    from softcell.cli import desk_config
    before = (conic_solver.solve, simulate.realize_scenario)
    tracer = tracing.Tracer()
    traced = tracer.run_trial(desk_config(seed=202), "qos", 2.0, "rzf", 0)
    assert (conic_solver.solve, simulate.realize_scenario) == before
    untraced = simulate.run_trial(desk_config(seed=202), "qos", 2.0, "rzf", 0)
    assert checks.repeat_problems([traced, untraced]) == []
    assert {s.name for s in tracer.spans} == {
        "simulate.run_trial", "scenario.realize_scenario", "rzf.rzf_solve",
        "rzf.rzf_directions", "rzf.allocate_power", "conic_solver.solve",
        "evaluation.evaluate", "power.check_power_constraints"}
    # Self times partition the trial span.
    assert sum(tracing.self_times(tracer.spans)) == pytest.approx(
        tracer.spans[0].end - tracer.spans[0].start)


def test_reference_accepts_matching_and_improved_trials():
    records = [record(total_mw=40.0 * (1 + 5e-7)),
               record("optimal", 41.0, trial=9),          # numerical_failure fixed
               record("infeasible", float("nan"), trial=5, value=3.0)]
    assert checks.reference_problems(records, REFERENCE) == []


def test_reference_rejects_perturbed_objective():
    problems = checks.reference_problems([record(total_mw=40.0 * (1 + 1e-5))], REFERENCE)
    assert [key for key, _ in problems] == ["1.0/3"]


@pytest.mark.parametrize("rec", [record("numerical_failure", float("nan")),
                                 record("optimal", 40.0, trial=5, value=3.0)])
def test_reference_rejects_flipped_certified_status(rec):
    problems = checks.reference_problems([rec], REFERENCE)
    assert len(problems) == 1 and "certified status" in problems[0][1]


def test_reference_rejects_unknown_trial():
    assert checks.reference_problems([record(trial=7)], REFERENCE)


def test_repeated_trials_must_agree():
    same = [record(), record()]
    assert checks.repeat_problems(same) == []
    assert checks.repeat_problems([record(), record(total_mw=40.000001)])


def test_solve_counts_must_repeat_across_runs(tmp_path):
    path = tmp_path / "counts.json"
    counts = [{"rows": 26, "iterations": 17, "status": "optimal", "message": ""}]
    assert checks.solve_count_problems(path, "code", {"1.0/3": [counts, counts]}) == []
    assert checks.solve_count_problems(path, "code", {"1.0/3": [counts]}) == []
    changed = [dict(counts[0], iterations=18)]
    assert checks.solve_count_problems(path, "code", {"1.0/3": [changed]})
    # Other code may take other iteration counts.
    assert checks.solve_count_problems(path, "other code", {"1.0/3": [changed]}) == []
