import json

import pytest

from noisyquery import CSV_COLUMNS
from noisyquery.cli import EXIT_GATE_FAILED, EXIT_INVALID, EXIT_OK, main


def test_threshold_subcommand_runs(capsys):
    code = main(
        ["threshold", "--n", "50", "--k", "3", "--p", "0.25", "--delta", "0.2", "--trials", "20", "--seed", "1"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "threshold:" in out
    assert "error_rate=" in out


def test_counting_writes_csv(tmp_path, capsys):
    out_file = tmp_path / "report.csv"
    code = main(
        [
            "counting",
            "--n", "40", "--p", "0.2", "--delta", "0.1", "--ones", "4",
            "--trials", "15", "--seed", "2", "--out", str(out_file),
        ]
    )
    assert code == EXIT_OK
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    assert lines[1].startswith("counting,40,4,")


def test_walk_laws_writes_json(tmp_path):
    out_file = tmp_path / "laws.json"
    code = main(
        [
            "walk-laws", "--p", "0.25", "--x-max", "3", "--trials", "2000",
            "--seed", "3", "--out", str(out_file), "--format", "json",
        ]
    )
    assert code == EXIT_OK
    payload = json.loads(out_file.read_text())
    assert [row["k"] for row in payload] == [1, 2, 3]
    assert all(tuple(row.keys()) == CSV_COLUMNS for row in payload)


def test_validation_error_exit_code(capsys):
    code = main(
        ["threshold", "--n", "50", "--k", "3", "--p", "0.25", "--delta", "1.5", "--trials", "5", "--seed", "1"]
    )
    assert code == EXIT_INVALID
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["connectivity", "st-connectivity"])
def test_infeasible_balance_exit_code(kind, capsys):
    code = main([kind, "--n", "3", "--beta", "0.49", "--p", "0.2", "--delta", "0.1", "--trials", "1"])
    assert code == EXIT_INVALID
    assert "balanced edge" in capsys.readouterr().err


def test_assert_gate_passes(capsys):
    code = main(
        [
            "influence", "--n", "5", "--q", "0.3", "--trials", "10",
            "--seed", "4", "--assert",
        ]
    )
    assert code == EXIT_OK


def test_assert_gate_failure_exit_code(capsys):
    # with a handful of walks the 2% mean-passage gate is essentially
    # impossible to satisfy; probe a few seeds to pin a failing one
    for seed in range(20):
        code = main(
            ["walk-laws", "--p", "0.25", "--x-max", "2", "--trials", "40", "--seed", str(seed), "--assert"]
        )
        if code == EXIT_GATE_FAILED:
            assert "GATE FAIL" in capsys.readouterr().err
            return
        capsys.readouterr()
    pytest.fail("no failing seed found for the gate check")


def test_connectivity_subcommand(capsys):
    code = main(
        ["connectivity", "--n", "12", "--p", "0.2", "--delta", "0.2", "--trials", "10", "--seed", "5"]
    )
    assert code == EXIT_OK


def test_st_connectivity_subcommand(capsys):
    code = main(
        ["st-connectivity", "--n", "12", "--p", "0.2", "--delta", "0.2", "--trials", "10", "--seed", "6"]
    )
    assert code == EXIT_OK


def test_counting2_asymptotic_presample_flag(capsys):
    code = main(
        [
            "counting2", "--n", "30", "--p", "0.1", "--delta", "0.1", "--ones", "27",
            "--trials", "5", "--seed", "7", "--asymptotic-presample",
        ]
    )
    assert code == EXIT_OK


def test_ust_stats_subcommand(tmp_path, capsys):
    out_file = tmp_path / "scaling.csv"
    code = main(
        [
            "ust-stats", "--n-grid", "16,32,64", "--samples", "20",
            "--seed", "8", "--out", str(out_file),
        ]
    )
    assert code == EXIT_OK
    lines = out_file.read_text().strip().split("\n")
    assert lines[0].startswith("beta,n,samples,")
    assert len(lines) == 4
    assert "slopes:" in capsys.readouterr().out


def test_ust_stats_json(tmp_path):
    out_file = tmp_path / "scaling.json"
    code = main(
        [
            "ust-stats", "--n-grid", "16,32", "--samples", "10",
            "--seed", "9", "--out", str(out_file), "--format", "json",
        ]
    )
    assert code == EXIT_OK
    payload = json.loads(out_file.read_text())
    assert payload["beta"] == "1/3"
    assert len(payload["rows"]) == 2
    assert "slopes" in payload


def test_cli_rejects_unknown_command():
    with pytest.raises(SystemExit) as excinfo:
        main(["sort-things"])
    assert excinfo.value.code == 2
