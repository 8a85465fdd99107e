import json
from pathlib import Path

import numpy as np
import pytest

from trajpmbm.cli import main
from trajpmbm.density import load_density, validate
from trajpmbm.metrics import read_metric_csv
from trajpmbm.scenario import read_measurement_log, read_trajectory_sets


@pytest.fixture
def config_path(tmp_path):
    cfg = {
        "K": 8,
        "sigma_v": 0.5,
        "sigma_r": 1.0,
        "ps": 0.98,
        "pd": 0.95,
        "mu_fa": 1.0,
        "region": {"xmin": -60.0, "xmax": 60.0, "ymin": -60.0, "ymax": 60.0},
        "birth": [
            {
                "weight": 0.2,
                "mean": [0.0, 0.0, 0.0, 0.0],
                "cov": np.diag([100.0, 100.0, 4.0, 4.0]).tolist(),
            }
        ],
        "seed": 11,
        "truth_mode": {"scripted": {"births": [0, 1], "deaths": [7, 5]}},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_full_pipeline(tmp_path, config_path, capsys):
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(config_path), "--out", str(sim)]) == 0
    log = read_measurement_log(sim / "measurements.jsonl")
    assert len(log) == 8
    truth_sets = read_trajectory_sets(sim / "truth.jsonl")
    assert len(truth_sets[-1]) == 2

    trk = tmp_path / "trk"
    dump = tmp_path / "post.json"
    assert (
        main(
            [
                "track",
                "--scenario",
                str(config_path),
                "--measurements",
                str(sim / "measurements.jsonl"),
                "--mode",
                "all",
                "--seq-backend",
                "lscan",
                "--L",
                "2",
                "--M",
                "50",
                "--out",
                str(trk),
                "--dump-posterior",
                str(dump),
            ]
        )
        == 0
    )
    est = read_trajectory_sets(trk / "estimates.jsonl")
    assert len(est) == 8

    out_csv = tmp_path / "metrics.csv"
    assert (
        main(
            [
                "evaluate",
                "--est",
                str(trk / "estimates.jsonl"),
                "--truth",
                str(sim / "truth.jsonl"),
                "--metric",
                "ospa2",
                "-c",
                "20",
                "--out",
                str(out_csv),
            ]
        )
        == 0
    )
    rows = read_metric_csv(out_csv)
    assert len(rows) == 8
    assert all(0.0 <= r.total <= 20.0 for r in rows)

    density = load_density(json.loads(dump.read_text()))
    validate(density)
    marg = tmp_path / "marg.json"
    assert (
        main(
            [
                "marginalize",
                "--dump",
                str(dump),
                "--alpha",
                "0",
                "--gamma",
                "7",
                "--eta",
                "7",
                "--zeta",
                "7",
                "--out",
                str(marg),
            ]
        )
        == 0
    )
    reduced = load_density(json.loads(marg.read_text()))
    for t in reduced.tracks:
        for h in t.hypotheses:
            if h.r > 0:
                assert all(c.e == 7 for c in h.density.components)


def test_track_rejects_a_budget_below_one(tmp_path, config_path):
    sim = tmp_path / "sim"
    main(["simulate", "--config", str(config_path), "--out", str(sim)])
    args = ["track", "--scenario", str(config_path), "--measurements", str(sim / "measurements.jsonl")]
    with pytest.raises(ValueError, match="below 1"):
        main(args + ["--M", "0", "--out", str(tmp_path / "trk")])


def test_simulate_is_deterministic(tmp_path, config_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--config", str(config_path), "--out", str(a)])
    main(["simulate", "--config", str(config_path), "--out", str(b)])
    assert (a / "measurements.jsonl").read_text() == (b / "measurements.jsonl").read_text()
    assert (a / "truth.jsonl").read_text() == (b / "truth.jsonl").read_text()


def test_evaluate_prints_csv(tmp_path, config_path, capsys):
    sim = tmp_path / "sim"
    main(["simulate", "--config", str(config_path), "--out", str(sim)])
    trk = tmp_path / "trk"
    main(
        [
            "track",
            "--scenario",
            str(config_path),
            "--measurements",
            str(sim / "measurements.jsonl"),
            "--out",
            str(trk),
        ]
    )
    capsys.readouterr()
    main(
        [
            "evaluate",
            "--est",
            str(trk / "estimates.jsonl"),
            "--truth",
            str(sim / "truth.jsonl"),
            "--metric",
            "gospa",
            "-c",
            "20",
        ]
    )
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "k,loc,miss,false,card,total"
    assert len(out.splitlines()) == 9


def test_mc_writes_aggregate(tmp_path, config_path, capsys):
    out_csv = tmp_path / "mc.csv"
    assert (
        main(
            [
                "mc",
                "--config",
                str(config_path),
                "--runs",
                "2",
                "--seq-backend",
                "info",
                "-c",
                "20",
                "--out",
                str(out_csv),
            ]
        )
        == 0
    )
    rows = read_metric_csv(out_csv)
    assert len(rows) == 8
