"""The command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_apps_lists_workloads(capsys):
    assert main(["apps"]) == 0
    out = capsys.readouterr().out
    assert "heartbleed" in out
    assert "canneal" in out


def test_run_gzip_detects(capsys):
    assert main(["run", "gzip", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "A buffer over-write problem is detected at:" in out
    assert "detected: True" in out


def test_run_without_runtime(capsys):
    assert main(["run", "gzip", "--runtime", "none"]) == 0
    assert "silently" in capsys.readouterr().out


def test_run_asan_misses_library_bug(capsys):
    assert main(["run", "libtiff", "--runtime", "asan"]) == 1
    assert "detected: False" in capsys.readouterr().out


def test_run_asan_detects_app_bug(capsys):
    assert main(["run", "gzip", "--runtime", "asan"]) == 0
    out = capsys.readouterr().out
    assert "heap-buffer-overflow" in out


def test_run_no_evidence(capsys):
    assert main(["run", "polymorph", "--runtime", "csod-noevidence"]) == 0


def test_run_rejects_unknown_app():
    with pytest.raises(SystemExit):
        main(["run", "doom"])


def test_table1(capsys):
    assert main(["table", "1"]) == 0
    assert "Table I" in capsys.readouterr().out


def test_table2_small(capsys):
    assert main(["effectiveness", "gzip", "--runs", "3"]) == 0
    out = capsys.readouterr().out
    assert "gzip" in out and "100.0%" in out


def test_table5(capsys):
    assert main(["table", "5"]) == 0
    assert "TOTAL" in capsys.readouterr().out


def test_evidence_persistence_via_cli(tmp_path, capsys):
    path = str(tmp_path / "ev.json")
    # First execution records evidence even if the watchpoint missed.
    main(["run", "memcached", "--seed", "0", "--evidence-file", path])
    capsys.readouterr()
    # Second execution must detect (§V-A2).
    assert main(["run", "memcached", "--seed", "123", "--evidence-file", path]) == 0
    assert "detected: True" in capsys.readouterr().out


def test_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


def test_fleet_campaign_cli(tmp_path, capsys):
    out_dir = tmp_path / "fleet"
    assert (
        main(
            [
                "fleet",
                "--app",
                "libtiff",
                "--executions",
                "4",
                "--workers",
                "1",
                "--out",
                str(out_dir),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Fleet campaign" in out
    assert "95% CI" in out
    assert "dedup=" in out
    assert (out_dir / "aggregate.json").exists()
    assert (out_dir / "telemetry.jsonl").exists()


def test_fleet_share_evidence_writes_store(tmp_path, capsys):
    out_dir = tmp_path / "fleet"
    assert (
        main(
            [
                "fleet",
                "--app",
                "memcached",
                "--executions",
                "6",
                "--workers",
                "1",
                "--share-evidence",
                "--out",
                str(out_dir),
            ]
        )
        == 0
    )
    assert "evidence store" in capsys.readouterr().out
    assert (out_dir / "evidence.json").exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["fleet", "--app", "libtiff", "--executions", "0"], "--executions"),
        (["fleet", "--app", "libtiff", "--workers", "-1"], "--workers"),
        (["fleet", "--app", "libtiff", "--chunk-size", "0"], "--chunk-size"),
        (["fleet", "--app", "libtiff", "--timeout", "0"], "--timeout"),
        (["fleet", "--app", "libtiff", "--timeout", "-2.5"], "--timeout"),
        (["fleet", "--app", "libtiff", "--workers", "0"], "--workers"),
    ],
)
def test_fleet_rejects_bad_values_naming_the_flag(argv, flag, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "repro fleet: error" in err
    assert flag in err  # the message names the offending flag
