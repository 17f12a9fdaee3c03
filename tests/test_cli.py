import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import rankagg
from rankagg import CostMatrix, LabelAgg, Sum, TrainConfig, auc_report, cli, train
from rankagg.cli import main
from rankagg.dataio import read_dataset, write_dataset
from rankagg.oracle import MAX_EXHAUSTIVE_N
from rankagg.synthgen import gen_conflicting_pair, resample_to_skew


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


_SWEEP_NEEDS = {"tau": "finite scales tau > 0", "pi2": "targets 0 < pi2 < 1"}


@pytest.mark.parametrize(
    "flags, named",
    [(["--tau", "0", "--pi2", "0.7"], "--tau 0")]
    + [(["--pi2", bad], f"--pi2 {bad}") for bad in ("1.5", "0", "-0.2", "nan")]
    + [(["--rho", "0", "--tau", "inf"], "--tau inf"), (["--rho", "0", "--tau=-2"], "--tau -2")]
    + [(["--rho", "0,1", "--tau", "2,nan"], "--tau nan")],
)
def test_unreachable_sweep_targets_exit_2_before_generating(tmp_path, monkeypatch, capsys, flags, named):
    def no_data(*args, **kwargs):
        raise AssertionError("generated data")

    monkeypatch.setattr(cli, "sigmoid_sweep", no_data)
    out = tmp_path / "o.csv"
    assert main(["skew-sweep", "--out", str(out), "--n", "2000", "--no-plot", *flags]) == 2
    # argparse names the flag and its whole text, then what the option's parse expected
    flag = named.split(" ")[0]
    tokens = " ".join(flags).replace("=", " ").split(" ")
    text = tokens[tokens.index(flag) + 1]
    line = capsys.readouterr().err.splitlines()[-1]
    assert line == f"rankagg skew-sweep: error: argument {flag}: invalid value {text!r}: expected {_SWEEP_NEEDS[flag[2:]]}"
    assert not out.exists()


@pytest.mark.parametrize(
    "lines, named",
    [("tau=inf", "tau=inf"), ("pi2=1.5", "pi2=1.5"), ("tau=2,nan", "tau=nan"), ("rho=0\ntau=-2", "tau=-2")],
)
def test_unreachable_sweep_targets_in_config_exit_3_before_generating(tmp_path, monkeypatch, capsys, lines, named):
    def no_data(*args, **kwargs):
        raise AssertionError("generated data")

    monkeypatch.setattr(cli, "sigmoid_sweep", no_data)
    config = tmp_path / "bad.cfg"
    config.write_text(lines + "\n")
    out = tmp_path / "o.csv"
    assert main(["skew-sweep", "--out", str(out), "--n", "2000", "--no-plot", "--config", str(config)]) == 3
    # _merge names the file and the whole bad line, then what the option's parse expected
    key = named.split("=")[0]
    bad = lines.splitlines()[-1]
    assert capsys.readouterr().err == f"error: {config}: {bad}: expected {_SWEEP_NEEDS[key]}\n"
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


def test_skew_sweep_looks_its_scorers_up_at_each_point(tmp_path, monkeypatch):
    # each point reads the scorers from the module, so a wrapper put there
    # (a test's counter, or a tracer's span) sees every call
    calls = {"labelagg": 0, "lossagg": 0}

    def counting(method, build_scorer):
        def wrapper(eta):
            calls[method] += 1
            return build_scorer(eta)

        return wrapper

    monkeypatch.setattr(cli, "label_agg_bayes_scorer_sum", counting("labelagg", cli.label_agg_bayes_scorer_sum))
    monkeypatch.setattr(cli, "loss_agg_bayes_scorer", counting("lossagg", cli.loss_agg_bayes_scorer))
    assert main(["skew-sweep", "--out", str(tmp_path / "s.csv"), "--n", "2000", "--pi2", "0.5,0.9", "--no-plot"]) == 0
    assert calls == {"labelagg": 4, "lossagg": 4}  # 2 default taus x 2 targets


def test_skew_sweep_holds_one_point_at_a_time(tmp_path):
    # The run keeps its draws (32 bytes per instance), builds one point at a
    # time (eta 16, its one-byte labels 2), scores it and reports its AUCs.
    # A second live point, a standing eta1, int64 labels, or a copy of eta,
    # labels or scores on the way into a frozen type, pushes the traced peak
    # past this bound.
    n = 50_000
    out = str(tmp_path / "s.csv")
    # a small run first, so that one-time imports and caches stay out of the peak
    assert main(["skew-sweep", "--n", "2000", "--no-plot", "--out", out]) == 0
    tracemalloc.start()
    try:
        assert main(["skew-sweep", "--n", str(n), "--no-plot", "--out", out]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n < 85.0


def test_no_plot_skips_svg_without_touching_csv(tmp_path):
    base = ["skew-sweep", "--tau", "2.0", "--pi2", "0.6", "--n", "200", "--seed", "1"]
    assert main(base + ["--out", str(tmp_path / "p.csv")]) == 0
    assert (tmp_path / "p.svg").exists()
    assert main(base + ["--out", str(tmp_path / "q.csv"), "--no-plot"]) == 0
    assert not (tmp_path / "q.svg").exists()
    assert _stable_bytes(tmp_path / "p.csv") == _stable_bytes(tmp_path / "q.csv")


@pytest.mark.parametrize(
    "command, flags",
    [
        ("skew-sweep", ["--tau", "2.0", "--pi2", "0.6", "--n", "200"]),
        ("oracle", ["--n", "25", "--seed", "2", "--weights-grid", "3"]),
        ("bound", ["--K", "2,4", "--n", "4"]),
    ],
)
def test_plot_out_moves_the_svg_and_nothing_else(command, flags, tmp_path):
    assert main([command, "--out", str(tmp_path / "a.csv"), *flags]) == 0
    chart = tmp_path / "charts" / "chart.svg"
    chart.parent.mkdir()
    assert main([command, "--out", str(tmp_path / "b.csv"), "--plot-out", str(chart), *flags]) == 0
    assert not (tmp_path / "b.svg").exists()
    assert chart.read_bytes() == (tmp_path / "a.svg").read_bytes()
    assert _stable_bytes(tmp_path / "b.csv") == _stable_bytes(tmp_path / "a.csv")


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


# train takes no surrogate key: logistic is its only pairwise surrogate
@pytest.mark.parametrize(
    "command, lines, key",
    [("skew-sweep", "n=200\ntua=5\n", "tua"), ("train", "surrogate=logistic\n", "surrogate")],
    ids=["skew-sweep", "train"],
)
def test_unknown_config_key_exits_3(command, lines, key, dataset_csv, tmp_path, capsys):
    config = tmp_path / "typo.cfg"
    config.write_text(lines)
    out = tmp_path / "o.csv"
    data = ["--data", str(dataset_csv)] if command == "train" else []
    assert main([command, "--out", str(out), "--config", str(config), "--no-plot", *data]) == 3
    assert key in capsys.readouterr().err
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


def test_trace_out_writes_one_line_per_trial_and_epoch_and_leaves_the_csv_alone(dataset_csv, tmp_path):
    args = ["train", "--data", str(dataset_csv), "--epochs", "4", "--trials", "3", "--resample-pi", "0:0.7", "--no-plot"]
    assert main(args + ["--out", str(tmp_path / "plain.csv")]) == 0
    trace = tmp_path / "trace.jsonl"
    assert main(args + ["--out", str(tmp_path / "traced.csv"), "--trace-out", str(trace)]) == 0
    assert not (tmp_path / "plain.jsonl").exists()
    assert _stable_bytes(tmp_path / "traced.csv") == _stable_bytes(tmp_path / "plain.csv")
    lines = [json.loads(line) for line in trace.read_text().splitlines()]
    assert [(line["trial"], line["epoch"]) for line in lines] == [(t, e) for t in range(3) for e in range(4)]
    assert all(list(line) == ["trial", "epoch", "loss", "train_auc"] for line in lines)
    assert all(len(line["train_auc"]) == 2 and all(0.0 <= a <= 1.0 for a in line["train_auc"]) for line in lines)
    # each trial's last line carries the CSV's final_loss
    with open(tmp_path / "plain.csv", newline="") as fh:
        final = [float(row["final_loss"]) for row in csv.DictReader(fh) if row["trial"].isdigit()]
    assert [line["loss"] for line in lines if line["epoch"] == 3] == final


def test_train_objective_parsing_errors_exit_2_or_3(dataset_csv, tmp_path, capsys):
    out = str(tmp_path / "o.csv")
    # the grammar is checked before the data is read; the weight count needs the data's K
    assert main(
        ["train", "--data", str(dataset_csv), "--out", out, "--objective", "nope"]
    ) == 2
    assert "argument --objective: invalid value 'nope': unknown objective 'nope'" in capsys.readouterr().err
    assert main(
        ["train", "--data", str(dataset_csv), "--out", out, "--objective", "lossagg:1,2,3"]
    ) == 3
    assert "3 weights for 2 labels" in capsys.readouterr().err
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


def test_train_evaluates_each_trial_on_the_unresampled_rows(dataset_csv, tmp_path):
    out = tmp_path / "r.csv"
    args = ["--objective", "labelagg:absdiff", "--epochs", "6", "--lr", "0.05", "--seed", "5"]
    assert main(["train", "--data", str(dataset_csv), "--out", str(out), "--resample-pi", "0:0.7",
                 "--trials", "2", "--no-plot", *args]) == 0
    with open(out, newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if row["trial"].isdigit()]
    assert [row["trial"] for row in rows] == ["0", "1"]
    instances, labels = read_dataset(dataset_csv)
    for trial, row in enumerate(rows):
        seed = 5 + trial
        config = TrainConfig(
            objective=LabelAgg(Sum(), CostMatrix.absdiff(3)), lr=0.05, epochs=6, seed=seed
        )
        scorer, _ = train(*resample_to_skew(instances, labels, 0, 0.7, seed), config, per_epoch=False)
        report = auc_report(scorer.scores(instances), labels)
        want = [*report.per_label.tolist(), report.diff, report.min]
        got = [row[name] for name in ("auc_label1", "auc_label2", "diff_auc", "min_auc")]
        assert got == [repr(v) for v in want]


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


def test_oracle_certifies_grids_above_a_trillion_hypotheses(tmp_path, capsys):
    # 26 disagreeing rows: 3^26 hypotheses in 10,098 occupancy classes
    out = tmp_path / "oracle.csv"
    assert main(["oracle", "--out", str(out), "--n", "100", "--seed", "2", "--no-plot"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 9 and all(line.startswith("PASS") for line in lines)
    rows = list(csv.reader(out.read_text().splitlines()))
    assert sum(int(row[2]) for row in rows[1:]) == 3**26


def test_oracle_hypothesis_counts_stay_exact_past_int64(tmp_path):
    # 51 disagreeing rows: 3^51 > 2^63 hypotheses
    out = tmp_path / "oracle.csv"
    assert main(["oracle", "--out", str(out), "--n", "200", "--seed", "2", "--no-plot"]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert sum(int(row[2]) for row in rows[1:]) == 3**51 > 2**63


def test_oracle_frontier_endpoints_must_be_single_hypotheses(tmp_path, capsys, monkeypatch):
    # a one-class maximizer set is one hypothesis only if its multiplicity is 1
    real = cli.maximizer_sets

    def doubled(*args, **kwargs):
        sets = real(*args, **kwargs)
        sets.scan.multiplicity[:] = 2
        return sets

    monkeypatch.setattr(cli, "maximizer_sets", doubled)
    assert main(["oracle", "--out", str(tmp_path / "o.csv"), "--n", "25", "--seed", "2", "--no-plot"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL frontier endpoint matches the label-1-heavy maximizer",
        "FAIL frontier endpoint matches the label-2-heavy maximizer",
    ]


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


def test_train_trials_rerun_byte_identical(dataset_csv, tmp_path):
    # lossagg:1,2 is written quoted, so it also checks the CSV parsing
    for objective in ("labelagg:uniform", "lossagg:1,2"):
        args = [
            "train", "--data", str(dataset_csv), "--objective", objective,
            "--epochs", "5", "--trials", "3", "--resample-pi", "0:0.7", "--no-plot",
        ]
        assert main(args + ["--out", str(tmp_path / "a.csv")]) == 0
        assert main(args + ["--out", str(tmp_path / "b.csv")]) == 0
        first = _stable_bytes(tmp_path / "a.csv")
        assert first == _stable_bytes(tmp_path / "b.csv")
        assert [row[1] for row in first[1:]] == ["0", "1", "2", "mean", "stderr"]
        assert all(row[2] == objective for row in first[1:])


# the options whose values "11", "12", ... would not parse, with a non-default value that does
_VALID_TEXTS = {"pi2": "0.35", "labels": "y1,y0", "objective": "lossagg:1,3", "model": "mlp:4,3",
                "resample_pi": "1:0.3", "c": "0.35"}


@pytest.mark.parametrize("command", sorted(cli._OPTIONS))
def test_every_option_resolves_the_same_from_flag_and_config(command, tmp_path, monkeypatch):
    resolved, sources = [], []

    def record(args):
        resolved.append({k: v for k, v in vars(args).items() if k not in ("config", "fn", "sources")})
        sources.append(args.sources)
        return ["experiment"], [], None

    monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), record)
    # a distinct value per option catches crossed keys; "11", "12", ... parse under every
    # numeric option type but the rates and margin, and differ from every default
    values = {key: str(11 + i) for i, key in enumerate(cli._OPTIONS[command])}
    values.update({key: text for key, text in _VALID_TEXTS.items() if key in values})
    base = [command, "--out", str(tmp_path / "o.csv"), "--no-plot"]
    if command == "train":
        base += ["--data", str(tmp_path / "d.csv")]
    flags = [tok for key, text in values.items() for tok in ("--" + key.replace("_", "-"), text)]
    assert main(base + flags) == 0
    for spell in (lambda key: key, lambda key: key.replace("_", "-")):
        config = tmp_path / "run.cfg"
        config.write_text("".join(f"{spell(key)}={text}\n" for key, text in values.items()))
        assert main(base + ["--config", str(config)]) == 0
    assert len(resolved) == 3 and resolved[0] == resolved[1] == resolved[2]
    assert [set(run.values()) for run in sources] == [{"flag"}, {"config"}, {"config"}]
    assert all(run.keys() == cli._OPTIONS[command].keys() for run in sources)
    for key, (parse, default, _) in cli._OPTIONS[command].items():
        assert resolved[0][key] == parse(values[key]) != default


# one value per (subcommand, option) that the option's parse rejects before any data exists;
# an option missing here fails its case below
_BAD_VALUES = {
    "skew-sweep": {"seed": "-1", "tau": "0", "rho": "nan", "pi2": "1.5", "n": "0"},
    "train": {"seed": "-1", "labels": "y0,x1", "objective": "bogus", "model": "cnn", "epochs": "0", "lr": "nan",
              "resample_pi": "0:1.5", "trials": "0", "pair_budget": "0"},
    "oracle": {"seed": "-1", "n": "1", "P": "1", "weights_grid": "0", "budget": "0"},
    "bound": {"seed": "-1", "K": "2,0", "n": "0", "c": "0.6"},
}


@pytest.mark.parametrize("command, key", [(command, key) for command in sorted(cli._OPTIONS) for key in cli._OPTIONS[command]])
def test_a_bad_option_value_exits_2_as_a_flag_and_3_in_a_config_file(command, key, tmp_path, monkeypatch, capsys):
    def reached(*args, **kwargs):
        raise AssertionError("read or generated data")

    monkeypatch.setattr(cli.dataio, "read_dataset", reached)
    for generator in ("sigmoid_sweep", "gen_gaussian_bilevel", "resample_to_skew"):
        monkeypatch.setattr(cli, generator, reached)
    monkeypatch.setattr(cli, "evaluate_bound", reached)  # bound draws its tables inline
    text = _BAD_VALUES[command][key]
    out = tmp_path / "o.csv"
    base = [command, "--out", str(out), "--no-plot"]
    if command == "train":
        base += ["--data", str(tmp_path / "d.csv")]
    flag = "--" + key.replace("_", "-")
    assert main(base + [f"{flag}={text}"]) == 2
    assert f"error: argument {flag}: invalid value {text!r}: " in capsys.readouterr().err
    config = tmp_path / "bad.cfg"
    config.write_text(f"{key}={text}\n")
    assert main(base + ["--config", str(config)]) == 3
    assert capsys.readouterr().err.startswith(f"error: {config}: {key}={text}: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags, code",
    [
        ("train", ["--trials", "0"], 2),
        ("oracle", ["--weights-grid", "0"], 2),
        ("oracle", ["--weights-grid", "-3"], 2),
        ("train", ["--model", "mlp:0"], 2),
        ("train", ["--resample-pi", "5:0.8"], 3),
        ("train", ["--resample-pi=-1:0.8"], 2),
        ("train", ["--model", "mlp:"], 2),
        ("bound", ["--K", ","], 2),
        ("skew-sweep", ["--pi2", ""], 2),
        ("skew-sweep", ["--tau", ""], 2),
        ("skew-sweep", ["--rho", " , "], 2),
        ("train", ["--labels", "y0", "--objective", "label2"], 3),
    ],
)
def test_bad_counts_and_label_indices_exit_with_codes(command, flags, code, dataset_csv, tmp_path):
    out = tmp_path / "o.csv"
    data = ["--data", str(dataset_csv)] if command == "train" else []
    assert main([command, "--out", str(out), "--no-plot", *data, *flags]) == code
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flags",
    [
        ("bound", ["--c", "nan"]),
        ("bound", ["--c", "0.6"]),
        ("bound", ["--c=-0.1"]),
        ("bound", ["--c", "inf"]),
        ("train", ["--lr", "nan"]),
        ("train", ["--lr", "inf"]),
        ("train", ["--lr=-0.5"]),
    ],
)
def test_bad_margin_and_learning_rate_flags_exit_2(command, flags, dataset_csv, tmp_path, capsys):
    out = tmp_path / "o.csv"
    data = ["--data", str(dataset_csv)] if command == "train" else []
    assert main([command, "--out", str(out), "--no-plot", *data, *flags]) == 2
    assert f"argument {flags[0].split('=')[0]}: invalid" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, line, named",
    [
        ("bound", "c=nan", "expected a margin c in [0, 0.5]"),
        ("bound", "c=0.6", "expected a margin c in [0, 0.5]"),
        ("train", "lr=nan", "expected a finite learning rate"),
        ("train", "lr=-inf", "expected a finite learning rate"),
        ("bound", "K=,", "expected a nonempty comma list"),
        ("skew-sweep", "pi2=", "expected a nonempty comma list"),
        ("skew-sweep", "tau=", "expected a nonempty comma list"),
        ("skew-sweep", "rho=,", "expected a nonempty comma list"),
    ],
)
def test_bad_margin_and_learning_rate_in_config_exit_3(command, line, named, dataset_csv, tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text(line + "\n")
    out = tmp_path / "o.csv"
    data = ["--data", str(dataset_csv)] if command == "train" else []
    assert main([command, "--out", str(out), "--config", str(config), *data]) == 3
    assert f"error: {config}: {line}: {named}" in capsys.readouterr().err
    assert not out.exists()


def test_margin_accepts_its_closed_interval(tmp_path):
    for c in ("0", "0.5"):
        out = tmp_path / f"c{c}.csv"
        assert main(["bound", "--out", str(out), "--n", "4", "--K", "2", "--c", c, "--no-plot"]) == 0
        assert len(out.read_text().splitlines()) == 2


@pytest.mark.parametrize("command, line", [("train", "trials=0"), ("oracle", "weights-grid=-3")])
def test_count_below_one_in_config_exits_3(command, line, dataset_csv, tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text(line + "\n")
    out = tmp_path / "o.csv"
    data = ["--data", str(dataset_csv)] if command == "train" else []
    assert main([command, "--out", str(out), "--config", str(config), *data]) == 3
    assert "at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, line, named", [("bound", "n=abc", "n=abc"), ("train", "pair-budget=many", "pair-budget=many")])
def test_bad_config_value_names_its_key(command, line, named, dataset_csv, tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("seed=4\n" + line + "\n")
    out = tmp_path / "o.csv"
    data = ["--data", str(dataset_csv)] if command == "train" else []
    assert main([command, "--out", str(out), "--config", str(config), *data]) == 3
    assert f"error: {config}: {named}: invalid literal" in capsys.readouterr().err
    assert not out.exists()


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


def test_runs_with_scipy_blocked(dataset_csv, tmp_path):
    # a None entry in sys.modules makes every scipy import raise, as on a numpy-only install
    runs = [
        ["skew-sweep", "--n", "300", "--pi2", "0.5,0.9"],
        ["train", "--data", str(dataset_csv), "--epochs", "3"],
        ["oracle", "--n", "25", "--seed", "2", "--weights-grid", "2"],
        ["bound", "--n", "4", "--K", "2,4"],
    ]
    argvs = [[command, "--out", str(tmp_path / f"{command}.csv"), *rest] for command, *rest in runs]
    statements = (
        "sys.modules['scipy'] = None; import numpy as np; import rankagg; "
        "from rankagg import CostMatrix, multipartite_bayes_scorer; from rankagg.cli import main; "
        "assert all(np.isfinite(multipartite_bayes_scorer(np.full((3, L), 1.0 / L), CostMatrix.absdiff(L)).scores()).all() for L in (4, 5)); "
        f"assert [main(argv) for argv in {argvs!r}] == [0, 0, 0, 0]; "
        "del sys.modules['scipy']"
    )
    assert _scipy_modules_after(statements) == "[]"
    assert all((tmp_path / f"{command}.csv").exists() for command, *_ in runs)
