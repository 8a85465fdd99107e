import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trajpmbm.cli import main
from trajpmbm.density import dump_density, load_density, validate
from trajpmbm.gaussseq import InfoSeq
from trajpmbm.marginal import AliveQuery, marginalize_pmbm
from trajpmbm.scenario import read_measurement_log, read_trajectory_sets


def metric_rows(path) -> list:
    with open(path) as fh:
        return list(csv.DictReader(fh))


def pmbm(*args) -> subprocess.CompletedProcess:
    """The ``pmbm`` command in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    cmd = [sys.executable, "-m", "trajpmbm.cli", *args]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)


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
    rows = metric_rows(out_csv)
    assert len(rows) == 8
    assert all(0.0 <= float(r["total"]) <= 20.0 for r in rows)

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


def test_info_posterior_dump_round_trips_through_marginalize(tmp_path, config_path):
    sim, dump = tmp_path / "sim", tmp_path / "post.json"
    main(["simulate", "--config", str(config_path), "--out", str(sim)])
    track = ["track", "--scenario", str(config_path), "--measurements", str(sim / "measurements.jsonl")]
    assert main(track + ["--seq-backend", "info", "--out", str(tmp_path / "trk"), "--dump-posterior", str(dump)]) == 0
    text = dump.read_text()
    density = load_density(json.loads(text))
    assert json.dumps(dump_density(density)) == text
    seqs = [c.seq for t in density.tracks for h in t.hypotheses if h.density is not None for c in h.density.components]
    assert seqs and all(isinstance(s, InfoSeq) for s in seqs)
    for alpha in (7, 0):  # the current set, then the full history of the trajectories alive at 7
        marg = tmp_path / f"marg{alpha}.json"
        window = ["--alpha", str(alpha), "--gamma", "7", "--eta", "7", "--zeta", "7"]
        assert main(["marginalize", "--dump", str(dump), *window, "--out", str(marg)]) == 0
        want = marginalize_pmbm(density, AliveQuery(alpha, 7, 7, 7))
        assert marg.read_text() == json.dumps(dump_density(want))
        assert json.dumps(dump_density(load_density(json.loads(marg.read_text())))) == marg.read_text()


def test_track_rejects_a_budget_below_one(tmp_path, config_path):
    sim = tmp_path / "sim"
    main(["simulate", "--config", str(config_path), "--out", str(sim)])
    args = ["track", "--scenario", str(config_path), "--measurements", str(sim / "measurements.jsonl")]
    for bad in (["--M", "0"], ["--L", "0"]):
        with pytest.raises(ValueError, match="below 1"):
            main(args + bad + ["--out", str(tmp_path / "trk")])


def test_malformed_dump_is_one_error_line_not_a_traceback(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    args = ["marginalize", "--dump", str(bad), "--alpha", "0", "--gamma", "0", "--eta", "0", "--zeta", "0"]
    out = pmbm(*args, "--out", str(tmp_path / "out.json"))
    assert out.returncode != 0 and "Traceback" not in out.stderr
    assert out.stderr.startswith("error: malformed density dump") and out.stderr.count("\n") == 1
    assert not (tmp_path / "out.json").exists()


RECORD = '{"k": 0, "trajectories": []}\n'


@pytest.mark.parametrize(
    "command,text,truth,names",
    [
        ("simulate", '{"K": 5}', None, "region"),
        ("track", '{"k": 0}\n', None, "scan"),
        ("evaluate", RECORD + '{"k": 2, "trajectories": []}\n', None, "step 1"),
        ("evaluate", '{"k": 0, "trajectories": [{"beta": 0, "states": [[0.0, 0.0, 0.0, 0.0]]}]}\n', None, "epsilon"),
        ("track", None, None, "No such file"),
        ("evaluate", "", None, "0 and 0"),
        ("evaluate", RECORD, RECORD + '{"k": 1, "trajectories": []}\n', "1 and 2"),
        ("track", '{"k": 0, "scan": [[1.0, 2.0], [3.0]]}\n', None, "scan 0: measurement 1 has 1 coordinates"),
        ("track", "", None, "holds no scan"),
    ],
    ids=[
        "config-without-region",
        "record-without-scan",
        "gap-in-k",
        "trajectory-without-epsilon",
        "missing-file",
        "empty-logs",
        "logs-of-unequal-length",
        "measurement-of-wrong-dimension",
        "empty-measurement-log",
    ],
)
def test_malformed_input_is_one_error_line_not_a_traceback(tmp_path, config_path, command, text, truth, names):
    """``text`` is the input file (None: it does not exist); ``truth`` is
    the truth log of ``evaluate`` when it differs from that file."""
    bad = tmp_path / "bad.json"
    if text is not None:
        bad.write_text(text)
    other = bad
    if truth is not None:
        other = tmp_path / "truth.json"
        other.write_text(truth)
    out_dir = str(tmp_path / "out")
    args = {
        "simulate": ["--config", str(bad), "--out", out_dir],
        "track": ["--scenario", str(config_path), "--measurements", str(bad), "--out", out_dir],
        "evaluate": ["--est", str(bad), "--truth", str(other)],
    }[command]
    out = pmbm(command, *args)
    assert out.returncode == 1 and "Traceback" not in out.stderr
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1 and names in out.stderr


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
    rows = metric_rows(out_csv)
    assert len(rows) == 8
