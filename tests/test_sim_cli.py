"""Monte Carlo harness and CLI: records, aggregation, determinism, flags."""

import json
import subprocess
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from softcell.cli import _parse_values, desk_config, full_paper_config, main
from softcell.exceptions import InvalidInputError
from softcell.power import circuit_power
from softcell.scenario import ScenarioConfig
from softcell.simulate import (CSV_HEADER, SUMMARY_HEADER, SweepSpec,
                               TrialRecord, aggregate, records_csv, run_sweep,
                               run_trial, summary_csv)


def tiny_config(seed=5, **overrides):
    base = dict(cell_radius=0.5, num_users_uniform=2, sca_positions=(),
                users_per_sca=0, n_bs=4, n_sca=0, qos_targets=(1.0, 1.0),
                seed=seed)
    base.update(overrides)
    return ScenarioConfig(**base)


def spec_for(base, axis="n_bs", values=(2, 4), trials=1, algorithms=("optimal",)):
    return SweepSpec(axis=axis, values=values, trials=trials,
                     algorithms=algorithms, base=base)


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------

def test_sweep_spec_validation():
    base = tiny_config()
    with pytest.raises(InvalidInputError):
        spec_for(base, axis="rain")
    with pytest.raises(InvalidInputError):
        spec_for(base, values=())
    with pytest.raises(InvalidInputError):
        spec_for(base, values=(4, 2))
    with pytest.raises(InvalidInputError):
        spec_for(base, values=(2, 2))
    with pytest.raises(InvalidInputError):
        spec_for(base, trials=0)
    with pytest.raises(InvalidInputError):
        spec_for(base, algorithms=("optimal", "genie"))
    with pytest.raises(InvalidInputError):
        spec_for(base, algorithms=())
    # int() would truncate 8.5 to 8 antennas while the record kept 8.5.
    with pytest.raises(InvalidInputError, match="n_bs values must be integers"):
        spec_for(base, values=(8.5,))
    with pytest.raises(InvalidInputError, match="n_sca values must be integers"):
        spec_for(base, axis="n_sca", values=(0, 1.5))
    assert spec_for(base, values=(8.0,)).values == (8.0,)
    assert spec_for(base, axis="qos", values=(0.5, 2.5)).values == (0.5, 2.5)


# ---------------------------------------------------------------------------
# Single trials
# ---------------------------------------------------------------------------

def test_zero_targets_cost_exactly_the_static_power():
    base = tiny_config(qos_targets=(0.0, 0.0))
    rec = run_trial(base, "n_bs", 4, "optimal", trial=0)
    assert rec.status == "optimal"
    assert rec.p_dynamic_mw == 0.0
    assert rec.total_mw == rec.p_static_mw
    assert rec.p_static_mw == circuit_power(base.hardware, (4,))
    assert not rec.infeasible


def test_bs_only_trials_drop_the_small_cells():
    base = desk_config(seed=1)
    rec = run_trial(base, "n_bs", 16, "bs_only", trial=0)
    assert rec.status == "optimal"
    assert rec.n_single_sca == 0
    assert rec.n_multiflow == 0
    assert rec.p_static_mw == circuit_power(base.hardware, (16,) + (0,) * base.num_sca)


def test_heuristic_is_never_cheaper_on_the_same_trial():
    base = desk_config(seed=3)
    for trial in range(3):
        opt = run_trial(base, "n_sca", 2, "optimal", trial=trial)
        rzf = run_trial(base, "n_sca", 2, "rzf", trial=trial)
        assert opt.status == "optimal"
        if rzf.infeasible:
            assert rzf.status == "rzf_infeasible"
            continue
        assert rzf.total_mw >= opt.total_mw * (1.0 - 1e-6)
        assert rzf.exchanged_scalars < opt.exchanged_scalars


def test_infeasible_trials_carry_nan_power_and_the_flag():
    # One antenna cannot satisfy two users at a high common target.
    base = tiny_config(qos_targets=(6.0, 6.0))
    rec = run_trial(base, "n_bs", 1, "optimal", trial=0)
    assert rec.status == "infeasible"
    assert rec.infeasible
    assert np.isnan(rec.total_mw)
    assert np.isnan(rec.total_dbm)


# ---------------------------------------------------------------------------
# CSV schemas
# ---------------------------------------------------------------------------

def test_record_csv_schema_and_zeroed_wall_clock():
    base = tiny_config()
    rec = run_trial(base, "n_bs", 4, "optimal", trial=0)
    assert rec.wall_ms > 0.0
    text = records_csv([rec])
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert len(fields) == len(CSV_HEADER.split(","))
    assert fields[0] == "4"
    assert fields[1] == "optimal"
    assert fields[12] == "0"
    float(fields[4]), float(fields[7])


def test_summary_csv_schema():
    base = tiny_config()
    spec = spec_for(base, values=(4,), trials=2)
    records, rows = run_sweep(spec)
    text = summary_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == SUMMARY_HEADER
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[1] == "optimal"
    assert fields[2] == "2"


def test_aggregate_averages_only_feasible_trials():
    def rec(trial, dbm, infeasible=False, multi=0):
        return TrialRecord(8, "optimal", trial, "infeasible" if infeasible else "optimal",
                           1.0, 0.5, 1.5, dbm, multi, 1, 0, 0, infeasible, 3.0, 10)

    base = tiny_config()
    spec = spec_for(base, values=(8,), trials=3)
    rows = aggregate([rec(0, 10.0), rec(1, 14.0, multi=1), rec(2, float("nan"), infeasible=True)], spec)
    assert len(rows) == 1
    row = rows[0]
    assert row["n_trials"] == 3
    assert row["n_feasible"] == 2
    assert row["feasible_fraction"] == pytest.approx(2.0 / 3.0)
    assert row["mean_total_dbm"] == pytest.approx(12.0)
    assert row["std_total_dbm"] == pytest.approx(np.std([10.0, 14.0], ddof=1))
    assert row["multiflow_fraction"] == pytest.approx(1 / (2 * base.num_users))
    with pytest.raises(InvalidInputError):
        aggregate([], spec)


def test_aggregate_of_identical_records_has_zero_spread():
    base = tiny_config()
    spec = spec_for(base, values=(8,), trials=2)
    same = [TrialRecord(8, "optimal", t, "optimal", 1.0, 0.5, 1.5, 1.76, 0, 2, 0, 0,
                        False, 1.0, 4) for t in range(2)]
    row = aggregate(same, spec)[0]
    assert row["std_total_dbm"] == 0.0
    assert row["mean_total_dbm"] == pytest.approx(1.76)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def test_sweep_records_are_ordered_and_reproducible():
    base = tiny_config()
    spec = spec_for(base, values=(2, 4), trials=2)
    records_a, _ = run_sweep(spec)
    records_b, _ = run_sweep(spec)
    keys = [(r.axis_value, r.algorithm, r.trial) for r in records_a]
    assert keys == sorted(keys, key=lambda k: (k[0], k[1], k[2]))
    # wall_ms varies between runs; everything else must not.
    text_a, text_b = records_csv(records_a), records_csv(records_b)
    assert text_a == text_b


def test_worker_count_does_not_change_the_output():
    base = tiny_config()
    spec = spec_for(base, values=(2, 4), trials=2, algorithms=("optimal", "rzf"))
    rec1, sum1 = run_sweep(spec, workers=1)
    rec2, sum2 = run_sweep(spec, workers=2)
    assert records_csv(rec1) == records_csv(rec2)
    assert summary_csv(sum1) == summary_csv(sum2)
    with pytest.raises(InvalidInputError):
        run_sweep(spec, workers=0)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_value_parsing_follows_the_axis_type():
    assert _parse_values("n_bs", "8,16,24") == (8, 16, 24)
    assert _parse_values("qos", "1.0,2.5") == (1.0, 2.5)
    assert _parse_values("n_sca", "0,,2") == (0, 2)


def test_config_and_paper_setup_are_mutually_exclusive(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text("{}")
    with pytest.raises(SystemExit) as exc:
        main(["--sweep", "n_sca", "--values", "0,1",
              "--config", str(cfg), "--full-paper-setup"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: softcell-sim")
    assert "argument --full-paper-setup: not allowed with argument --config" in err


@pytest.mark.parametrize("argv,message", [
    (["--sweep", "n_bs", "--values", "8.5"], "n_bs values must be integers, got '8.5'"),
    (["--sweep", "qos", "--values", "1", "--workers", "0"], "workers must be >= 1"),
], ids=["fractional_n_bs", "zero_workers"])
def test_cli_reports_bad_arguments_without_a_traceback(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--trials", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: softcell-sim")
    assert f"softcell-sim: error: {message}" in err


def test_cli_runs_a_sweep_from_a_config_file(tmp_path, capsys):
    data = {"cell_radius": 0.5, "num_users_uniform": 2, "sca_positions": [],
            "users_per_sca": 0, "n_bs": 4, "n_sca": 0, "qos_targets": 1.0,
            "seed": 5}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(data))
    code = main(["--config", str(cfg), "--sweep", "n_bs", "--values", "2,4",
                 "--trials", "1", "--algorithms", "optimal"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith(CSV_HEADER + "\n")
    assert SUMMARY_HEADER in out
    body = [l for l in out.strip().split("\n")
            if l and not l.startswith(("axis_value,algorithm,trial", "axis_value,algorithm,n_trials"))]
    assert {l.split(",")[0] for l in body} == {"2", "4"}


def test_cli_runs_the_full_paper_setup(tmp_path):
    out = tmp_path / "paper.csv"
    assert main(["--full-paper-setup", "--sweep", "qos", "--values", "2", "--trials", "1",
                 "--algorithms", "rzf", "--out", str(out)]) == 0
    assert out.read_text() == records_csv([run_trial(full_paper_config(), "qos", 2.0, "rzf", 0)])


def test_cli_takes_per_user_targets_from_a_config_file(tmp_path, capsys):
    data = {"cell_radius": 0.5, "num_users_uniform": 2, "sca_positions": [],
            "users_per_sca": 0, "n_bs": 4, "n_sca": 0, "qos_targets": [1.0, 2.5],
            "seed": 5}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(data))
    assert main(["--config", str(cfg), "--sweep", "n_bs", "--values", "4",
                 "--trials", "1", "--algorithms", "optimal"]) == 0
    record = run_trial(tiny_config(qos_targets=(1.0, 2.5)), "n_bs", 4, "optimal", 0)
    assert record.status == "optimal"
    assert capsys.readouterr().out.startswith(records_csv([record]))


def test_cli_writes_files_and_honours_the_seed(tmp_path):
    data = {"cell_radius": 0.5, "num_users_uniform": 2, "sca_positions": [],
            "users_per_sca": 0, "n_bs": 4, "n_sca": 0, "qos_targets": 1.0,
            "seed": 5}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(data))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    out_c = tmp_path / "c.csv"
    args = ["--config", str(cfg), "--sweep", "n_bs", "--values", "4",
            "--trials", "2", "--algorithms", "optimal"]
    assert main(args + ["--seed", "9", "--out", str(out_a)]) == 0
    assert main(args + ["--seed", "9", "--out", str(out_b)]) == 0
    assert main(args + ["--seed", "10", "--out", str(out_c)]) == 0
    assert out_a.read_text() == out_b.read_text()
    assert out_a.read_text() != out_c.read_text()
    summary = (tmp_path / "a.csv.summary.csv").read_text()
    assert summary.startswith(SUMMARY_HEADER)


def test_cli_creates_missing_output_directories(tmp_path):
    data = {"cell_radius": 0.5, "num_users_uniform": 2, "sca_positions": [],
            "users_per_sca": 0, "n_bs": 4, "n_sca": 0, "qos_targets": 1.0,
            "seed": 5}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "nested" / "dir" / "run.csv"
    code = main(["--config", str(cfg), "--sweep", "n_bs", "--values", "4",
                 "--trials", "1", "--algorithms", "optimal", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith(CSV_HEADER)
    assert (tmp_path / "nested" / "dir" / "run.csv.summary.csv").exists()


def test_a_zero_cap_small_cell_runs_through_both_solvers_and_the_cli(tmp_path):
    # Desk seed 202 with small cell 1's cap at 0: rzf leaves the cell out of
    # its directions, the exact solver holds its cap at 0 (8.149 mW against
    # rzf's 12.55 mW), and a sweep over the same config exits 0 with the
    # records of run_trial.
    base = desk_config(seed=202)
    caps = list(base.hardware.per_antenna_limit)
    caps[1] = 0.0
    cfg = replace(base, hardware=replace(base.hardware, per_antenna_limit=tuple(caps)))
    records = [run_trial(cfg, "qos", 1.0, algorithm, 0) for algorithm in ("optimal", "rzf")]
    assert [r.status for r in records] == ["optimal", "optimal"]
    path, out = tmp_path / "zero_cap.json", tmp_path / "zero_cap.csv"
    path.write_text(json.dumps(asdict(cfg)))
    assert main(["--config", str(path), "--sweep", "qos", "--values", "1", "--trials", "1",
                 "--algorithms", "optimal,rzf", "--out", str(out)]) == 0
    assert out.read_text() == records_csv(records)


def test_a_zero_power_sweep_reads_minus_infinity_dbm(tmp_path):
    # QoS 0 with every eta 0 costs exactly 0 mW: the records read -inf dBm,
    # and the summary a mean of -inf with no spread, with no RuntimeWarning.
    base = tiny_config(qos_targets=(0.0, 0.0))
    cfg = replace(base, hardware=replace(base.hardware, eta=(0.0,) * len(base.hardware.eta)))
    path, out = tmp_path / "zero_power.json", tmp_path / "zero_power.csv"
    path.write_text(json.dumps(asdict(cfg)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", str(path), "--sweep", "qos", "--values", "0", "--trials", "2",
                     "--algorithms", "optimal,rzf", "--out", str(out)]) == 0
    records = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(records) == 4
    assert all(float(r[6]) == 0.0 and r[7] == "-inf" for r in records)
    summary = [line.split(",") for line in Path(f"{out}.summary.csv").read_text().splitlines()[1:]]
    assert [(r[3], r[5], r[6]) for r in summary] == [("2", "-inf", "0.0")] * 2


def test_topology_script_writes_records_and_summaries(tmp_path):
    script = Path(__file__).resolve().parent.parent / "scripts" / "sweep_topology.py"
    out = tmp_path / "topology"
    subprocess.run([sys.executable, str(script), "--trials", "1", "--n-bs", "4,8",
                    "--n-sca", "0,1", "--out", str(out)], check=True, capture_output=True,
                   timeout=300)
    for n_bs in (4, 8):
        assert (out / f"records_nbs{n_bs}.csv").read_text().startswith(CSV_HEADER + "\n")
        assert (out / f"summary_nbs{n_bs}.csv").read_text().startswith(SUMMARY_HEADER + "\n")
    assert len(list(out.iterdir())) == 4


def test_builtin_scenarios_have_the_documented_shape():
    desk = desk_config()
    assert desk.num_users == 6
    assert desk.n_bs == 16 and desk.n_sca == 2
    assert desk.num_sca == 2
    paper = full_paper_config()
    assert paper.num_users == 10
    assert paper.n_bs == 100 and paper.n_sca == 1
    assert paper.num_sca == 4
    for pos in paper.sca_positions:
        assert np.hypot(*pos) == pytest.approx(0.3, rel=1e-12)
