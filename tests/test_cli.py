import argparse
import hashlib
import json
from pathlib import Path

import pytest

from noisyquery import CSV_COLUMNS
from noisyquery.cli import EXIT_GATE_FAILED, EXIT_INVALID, EXIT_OK, build_parser, main
from noisyquery.harness import KINDS


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


def test_validation_error_exit_code(tmp_path, capsys):
    missing_dir = tmp_path / "nope"
    for argv in (
        ["threshold", "--n", "50", "--k", "3", "--p", "0.25", "--delta", "1.5", "--trials", "5", "--seed", "1"],
        ["connectivity", "--n", "5", "--p", "0.2", "--delta", "0.1", "--beta", "0", "--trials", "2"],
        ["st-connectivity", "--n", "5", "--p", "0.2", "--delta", "0.1", "--beta", "0", "--trials", "2"],
        ["ust-stats", "--n-grid", "16"],
        # --out into a missing directory fails before any trial runs
        ["counting", "--n", "10", "--p", "0.2", "--delta", "0.1", "--ones", "2", "--trials", "3",
         "--out", str(missing_dir / "x.csv")],
        ["ust-stats", "--n-grid", "16,32", "--samples", "2", "--out", str(missing_dir / "x.csv")],
        # --out naming an existing directory fails the same way
        ["counting", "--n", "10", "--p", "0.2", "--delta", "0.1", "--ones", "2", "--trials", "3",
         "--out", str(tmp_path)],
        ["ust-stats", "--n-grid", "16,32", "--samples", "2", "--out", str(tmp_path)],
    ):
        assert main(argv) == EXIT_INVALID, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1, captured.err
    assert not missing_dir.exists()


@pytest.mark.parametrize("kind", ["connectivity", "st-connectivity"])
def test_infeasible_balance_exit_code(kind, capsys):
    code = main([kind, "--n", "3", "--beta", "0.49", "--p", "0.2", "--delta", "0.1", "--trials", "1"])
    assert code == EXIT_INVALID
    assert "balanced edge" in capsys.readouterr().err


@pytest.mark.parametrize("delta", ["1e-307", "1e-308", "1e-320", "5e-324"])
@pytest.mark.parametrize(
    "kind,flags",
    [
        ("threshold", ["--k", "2"]),
        ("counting", ["--ones", "2"]),
        ("counting2", ["--ones", "2"]),
        ("connectivity", []),
        ("st-connectivity", []),
    ],
)
def test_tiny_delta_runs(kind, flags, delta, capsys):
    # every delta in (0, 1) is valid, subnormals too: barriers come from
    # log count - log delta, so no count/delta overflows to infinity
    code = main([kind, "--n", "5", "--p", "0.2", "--delta", delta, "--trials", "2", *flags])
    assert code == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err


def test_tiny_delta_comparator_is_finite(tmp_path, capsys):
    # 2 * 1.5 / 1e-308 overflows a double; the comparator takes
    # log(c) - log(delta) there, so the row is strict JSON
    out_file = tmp_path / "row.json"
    argv = ["counting", "--n", "5", "--p", "0.2", "--delta", "1e-308", "--ones", "2", "--trials", "2"]
    assert main([*argv, "--format", "json", "--out", str(out_file)]) == EXIT_OK
    assert "theory=inf" not in capsys.readouterr().out

    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    (row,) = json.loads(out_file.read_text(), parse_constant=refuse)
    assert 0 < row["theory_queries"] < float("inf")


def test_subnormal_p_keeps_its_comparator(capsys):
    # (1 - p)/p overflows at p = 1e-310, but log((1 - p)/p) does not
    code = main(["threshold", "--n", "5", "--k", "2", "--p", "1e-310", "--delta", "0.1", "--trials", "2"])
    assert code == EXIT_OK
    assert "theory=" in capsys.readouterr().out


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


def test_subcommands_are_the_registry_kinds():
    # every kind gets its subcommand from the registry; ust-stats is the one
    # command that is not a kind, and README's CLI block shows each of them
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(KINDS) | {"ust-stats"}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    shown = [line.split()[1] for line in block.splitlines() if line.startswith("noisyquery ")]
    assert sorted(shown) == sorted(commands.choices)


def test_cli_rejects_unknown_command():
    with pytest.raises(SystemExit) as excinfo:
        main(["sort-things"])
    assert excinfo.value.code == 2


# sha256 of the --out file of each subcommand in both formats; a refactor
# of the CLI or the harness that keeps every realisation keeps these
OUT_ARGS = {
    "threshold": ["--n", "80", "--k", "4", "--p", "0.25", "--delta", "0.1", "--trials", "12", "--seed", "21"],
    "counting": ["--n", "40", "--p", "0.2", "--delta", "0.1", "--ones", "4", "--trials", "10", "--seed", "22"],
    "counting2": [
        "--n", "40", "--p", "0.2", "--delta", "0.1", "--ones", "36", "--trials", "10", "--seed", "23",
        "--asymptotic-presample",
    ],
    "connectivity": ["--n", "12", "--p", "0.2", "--delta", "0.2", "--trials", "8", "--seed", "24"],
    "st-connectivity": [
        "--n", "12", "--p", "0.2", "--delta", "0.2", "--beta", "1/5", "--trials", "8", "--seed", "25",
    ],
    "influence": ["--n", "5", "--q", "0.3", "--trials", "10", "--seed", "26"],
    "walk-laws": ["--p", "0.25", "--x-max", "3", "--trials", "2000", "--seed", "27"],
    "ust-stats": ["--n-grid", "16,32,64", "--samples", "10", "--seed", "28"],
}
OUT_GOLDEN = {
    ("threshold", "csv"): "ac49486209ecd0b343f8acda5837f2f8b14d357d5d25ec7bd52a4dc8ff1cd0f3",
    ("threshold", "json"): "a3c1b347b0427f6fa58a6921dd48ce7b99c0b57c6ed3797c6e8e582161f03062",
    ("counting", "csv"): "43715174e9ab5e8096fe13e9f566b0bb77582c7731973db1e6daf4f41f7786d1",
    ("counting", "json"): "2ea7a54c9950df7afe9d76bc7ca353e0e8457e40b7c4e9e8f2dde8ab72432a78",
    ("counting2", "csv"): "48008c9156887a02e262e66c5655e2e0385a35f262f70719f8c4f673a6c22304",
    ("counting2", "json"): "02c2ec840a6b72b3647e882e0b3d10699b49883d551766f673879c89637c2d53",
    ("connectivity", "csv"): "5ebd474ce79336d772e00c8ad7551b0fa95f92eb6c628156d4e1bf307cf5708a",
    ("connectivity", "json"): "98766b05ed62c7aa293236a459092d90deb9b3dd970b2cf1345e30d542e23526",
    ("st-connectivity", "csv"): "a1c95901c7dab5285b96a98b3342344247c950be913c9e8a88ef548c1fe0ca10",
    ("st-connectivity", "json"): "fe6a55bd8810f75c916a0949c320efe96fd5b6ef4ce738b1896467671a597445",
    ("influence", "csv"): "20026151bc474479a41cf4a3609f38ae3ab09014534f73d1618e7ad3370ff696",
    ("influence", "json"): "34686d28f1ae1074e64cb8a75a135cf9ac6780190ba0fb8b1e5085232d514c7a",
    ("walk-laws", "csv"): "be922f723b127c95194cdb73ed37c404cfbfd1f3dba33b26a594d896668d23ec",
    ("walk-laws", "json"): "65c7531f18e03bb477877a483bdfdfb6ce75d00e25042c79197d2a10f004f9ec",
    ("ust-stats", "csv"): "eb707525dd66458ac41df7f5cc32cc0b6f9488a6cc7b3bf439f08afef9b63fef",
    ("ust-stats", "json"): "9c258d7938571fc31fccc77dd724a5b72f9687054ea6f22a3e43e9dfab992b52",
}


@pytest.mark.parametrize("command,fmt", sorted(OUT_GOLDEN))
def test_out_file_golden(command, fmt, tmp_path, capsys):
    out_file = tmp_path / f"out.{fmt}"
    code = main([command, *OUT_ARGS[command], "--out", str(out_file), "--format", fmt])
    assert code == EXIT_OK
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == OUT_GOLDEN[(command, fmt)]
