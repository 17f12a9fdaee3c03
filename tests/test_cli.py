import csv
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import rankagg
from rankagg import cli
from rankagg.cli import main
from rankagg.dataio import write_dataset
from rankagg.oracle import MAX_EXHAUSTIVE_N
from rankagg.synthgen import gen_conflicting_pair


def _stable_bytes(path):
    """CSV cells minus the wall-clock column, which reruns cannot repeat."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if name != "runtime_ms"]
    return [[row[i] for i in keep] for row in rows]


@pytest.fixture
def dataset_csv(tmp_path):
    data = gen_conflicting_pair(80, 3)
    path = tmp_path / "train.csv"
    write_dataset(path, data.instances, data.labels)
    return path


def test_flag_errors_exit_2(tmp_path):
    assert main(["no-such-command"]) == 2
    assert main(["skew-sweep"]) == 2  # --out missing
    assert main(["skew-sweep", "--out", str(tmp_path / "o.csv"), "--bogus"]) == 2


def test_rho_and_pi2_are_mutually_exclusive(tmp_path):
    out = tmp_path / "o.csv"
    code = main(
        ["skew-sweep", "--out", str(out), "--rho", "0.0", "--pi2", "0.6", "--n", "50"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "flags, named",
    [(["--tau", "0", "--pi2", "0.7"], "--tau 0")]
    + [(["--pi2", bad], f"--pi2 {bad}") for bad in ("1.5", "0", "-0.2", "nan")],
)
def test_unreachable_sweep_targets_exit_2_before_generating(tmp_path, monkeypatch, capsys, flags, named):
    def no_data(*args, **kwargs):
        raise AssertionError("generated data")

    monkeypatch.setattr(cli, "gen_sigmoid_pair", no_data)
    out = tmp_path / "o.csv"
    assert main(["skew-sweep", "--out", str(out), "--n", "2000", "--no-plot", *flags]) == 2
    assert capsys.readouterr().err.startswith(named + ":")
    assert not out.exists()


def test_sweep_target_outside_the_rho_bracket_exits_3(tmp_path, capsys):
    out = tmp_path / "o.csv"
    code = main(["skew-sweep", "--out", str(out), "--tau", "0.01", "--pi2", "0.7", "--n", "2000", "--no-plot"])
    assert code == 3
    err = capsys.readouterr().err
    assert "0.7" in err and "tau=0.01" in err
    assert not out.exists()


def test_skew_sweep_reruns_byte_identical(tmp_path):
    args = [
        "skew-sweep",
        "--out", str(tmp_path / "a.csv"),
        "--tau", "2.0",
        "--pi2", "0.5,0.7",
        "--n", "400",
        "--seed", "5",
        "--no-plot",
    ]
    assert main(args) == 0
    first = _stable_bytes(tmp_path / "a.csv")
    args[2] = str(tmp_path / "b.csv")
    assert main(args) == 0
    assert first == _stable_bytes(tmp_path / "b.csv")


def test_no_plot_skips_svg_without_touching_csv(tmp_path):
    base = ["skew-sweep", "--tau", "2.0", "--pi2", "0.6", "--n", "200", "--seed", "1"]
    assert main(base + ["--out", str(tmp_path / "p.csv")]) == 0
    assert (tmp_path / "p.svg").exists()
    assert main(base + ["--out", str(tmp_path / "q.csv"), "--no-plot"]) == 0
    assert not (tmp_path / "q.svg").exists()
    assert _stable_bytes(tmp_path / "p.csv") == _stable_bytes(tmp_path / "q.csv")


def test_config_file_fills_defaults_and_flags_win(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text("# sweep settings\nn=200\ntau=2.0\npi2=0.6\n")
    out1 = tmp_path / "c1.csv"
    assert main(
        ["skew-sweep", "--out", str(out1), "--config", str(config), "--no-plot"]
    ) == 0
    rows = out1.read_text().splitlines()
    assert len(rows) == 3  # header + 2 methods at one sweep point
    # a flag overrides the config value
    out2 = tmp_path / "c2.csv"
    assert main(
        [
            "skew-sweep", "--out", str(out2), "--config", str(config),
            "--pi2", "0.5,0.6", "--no-plot",
        ]
    ) == 0
    assert len(out2.read_text().splitlines()) == 5


def test_unknown_config_key_exits_3(tmp_path, capsys):
    config = tmp_path / "typo.cfg"
    config.write_text("n=200\ntua=5\n")
    out = tmp_path / "o.csv"
    assert main(["skew-sweep", "--out", str(out), "--config", str(config), "--no-plot"]) == 3
    assert "tua" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_config_exits_3(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("this is not key value\n")
    assert main(
        ["skew-sweep", "--out", str(tmp_path / "o.csv"), "--config", str(config)]
    ) == 3


def test_train_runs_on_a_dataset(dataset_csv, tmp_path):
    out = tmp_path / "train_out.csv"
    code = main(
        [
            "train",
            "--data", str(dataset_csv),
            "--out", str(out),
            "--objective", "labelagg:absdiff",
            "--epochs", "5",
            "--trials", "2",
            "--no-plot",
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("experiment,trial,objective,auc_label1,auc_label2")
    assert len(lines) == 1 + 2 + 2  # header, trials, mean and stderr rows
    assert any(line.split(",")[1] == "mean" for line in lines[1:])


def test_train_objective_parsing_errors_exit_2_or_3(dataset_csv, tmp_path):
    out = str(tmp_path / "o.csv")
    assert main(
        ["train", "--data", str(dataset_csv), "--out", out, "--objective", "nope"]
    ) == 3
    assert main(
        ["train", "--data", str(tmp_path / "missing.csv"), "--out", out]
    ) == 3


def test_train_rejects_bad_label_columns(dataset_csv, tmp_path):
    assert main(
        [
            "train", "--data", str(dataset_csv), "--out", str(tmp_path / "o.csv"),
            "--labels", "y0,y7",
        ]
    ) == 3


def test_train_rejects_nan_features(tmp_path):
    data = tmp_path / "nan.csv"
    data.write_text("f0,f1,y0,y1\n0.5,nan,1,0\n0.1,0.2,0,1\n")
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "o.csv")]) == 3


def test_train_with_resampling_and_perlabel_objective(dataset_csv, tmp_path):
    out = tmp_path / "r.csv"
    code = main(
        [
            "train",
            "--data", str(dataset_csv),
            "--out", str(out),
            "--objective", "label1",
            "--resample-pi", "0:0.8",
            "--epochs", "5",
            "--no-plot",
        ]
    )
    assert code == 0
    assert len(out.read_text().splitlines()) == 4


def test_oracle_reports_containments_and_writes_scatter(tmp_path, capsys):
    out = tmp_path / "oracle.csv"
    code = main(
        [
            "oracle", "--out", str(out), "--n", "25", "--seed", "2",
            "--weights-grid", "3", "--no-plot",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines and all(line.startswith(("PASS", "FAIL")) for line in lines)
    assert all(line.startswith("PASS") for line in lines)
    header = out.read_text().splitlines()[0]
    assert header == "auc_label1,auc_label2,hypotheses,on_front"


def test_oracle_budget_exhaustion_exits_4(tmp_path):
    code = main(
        [
            "oracle", "--out", str(tmp_path / "o.csv"), "--n", "25", "--seed", "2",
            "--budget", "10",
        ]
    )
    assert code == 4


def test_bound_sweep_writes_gap_and_bound_columns(tmp_path):
    out = tmp_path / "bound.csv"
    code = main(
        ["bound", "--out", str(out), "--K", "2,4", "--n", "4", "--seed", "0"]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "experiment,K,gap,bound,argument,runtime_ms,seed"
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[2]) <= float(cells[3]) + 1e-12
    assert (tmp_path / "bound.svg").exists()


def test_bound_rejects_oversized_instance_counts(tmp_path):
    assert main(
        ["bound", "--out", str(tmp_path / "o.csv"), "--n", str(MAX_EXHAUSTIVE_N + 1)]
    ) == 4


def test_bound_reaches_hundreds_of_labels(tmp_path):
    out = tmp_path / "bound.csv"
    assert main(["bound", "--out", str(out), "--n", "5", "--K", "2,4,8,16,32,64,128,256", "--no-plot"]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [int(row[1]) for row in rows] == [2, 4, 8, 16, 32, 64, 128, 256]
    assert all(0.0 <= float(row[2]) <= float(row[3]) + 1e-12 for row in rows)


def test_worker_pool_does_not_change_results(dataset_csv, tmp_path, monkeypatch):
    pools = []

    def recording_pool(**kwargs):
        pools.append(kwargs)
        return ThreadPoolExecutor(**kwargs)

    monkeypatch.setattr(cli, "ThreadPoolExecutor", recording_pool)
    # lossagg:1,2 is written quoted, so it also checks the CSV parsing
    for objective in ("labelagg:uniform", "lossagg:1,2"):
        args = [
            "train", "--data", str(dataset_csv), "--objective", objective,
            "--epochs", "5", "--trials", "3", "--resample-pi", "0:0.7", "--no-plot",
        ]
        monkeypatch.delenv("RANKAGG_THREADS", raising=False)
        assert main(args + ["--out", str(tmp_path / "serial.csv")]) == 0
        monkeypatch.setenv("RANKAGG_THREADS", "4")
        assert main(args + ["--out", str(tmp_path / "pooled.csv")]) == 0
        serial = _stable_bytes(tmp_path / "serial.csv")
        assert serial == _stable_bytes(tmp_path / "pooled.csv")
        assert serial[1][2] == objective
    assert pools == [{"max_workers": 4}] * 2


def test_sweep_and_bound_start_no_worker_pool(tmp_path, monkeypatch):
    def no_pool(**kwargs):
        raise AssertionError("started a worker pool")

    monkeypatch.setattr(cli, "ThreadPoolExecutor", no_pool)
    monkeypatch.setenv("RANKAGG_THREADS", "4")
    sweep = ["skew-sweep", "--tau", "2.0", "--pi2", "0.5,0.6,0.7", "--n", "300", "--no-plot"]
    assert main(sweep + ["--out", str(tmp_path / "sweep.csv")]) == 0
    assert main(["bound", "--K", "2,4,8", "--n", "4", "--no-plot", "--out", str(tmp_path / "bound.csv")]) == 0


def _scipy_modules_after(statements):
    """scipy modules loaded once a fresh interpreter has run the statements."""
    src = str(Path(rankagg.__file__).resolve().parent.parent)
    code = f"import sys; {statements}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_scipy_stats_and_optimize_unloaded():
    # a fresh interpreter, since this one already holds scipy
    assert _scipy_modules_after("import rankagg.cli") == "[]"


def test_train_run_loads_no_scipy(dataset_csv, tmp_path):
    out = tmp_path / "o.csv"
    argv = ["train", "--data", str(dataset_csv), "--out", str(out), "--epochs", "3", "--resample-pi", "0:0.7", "--no-plot"]
    assert _scipy_modules_after(f"from rankagg.cli import main; assert main({argv!r}) == 0") == "[]"
    assert len(out.read_text().splitlines()) == 4


def test_sweep_run_loads_no_scipy(tmp_path):
    out = tmp_path / "o.csv"
    argv = ["skew-sweep", "--out", str(out), "--n", "300", "--pi2", "0.5,0.9", "--no-plot"]
    assert _scipy_modules_after(f"from rankagg.cli import main; assert main({argv!r}) == 0") == "[]"
    assert len(out.read_text().splitlines()) == 1 + 2 * 2 * 2  # header, 2 taus x 2 targets x 2 methods
