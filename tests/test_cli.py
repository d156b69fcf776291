"""Batch driver: configuration, suite selection, emission, exit codes."""

import json

import pytest

from qvir.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    ConfigError,
    RunConfig,
    emit,
    main,
    run,
)
from qvir.report import FAIL, CheckRecord, Report

SMALL = 4


def small_config(**kw):
    base = dict(scenario="q-sl2", window=SMALL, suites=("dirac", "reduce"))
    base.update(kw)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError):
        RunConfig(scenario="liouville", window=4).validate()


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError):
        small_config(suites=("exchange,teleport",)).validate()


def test_suite_unavailable_for_classical():
    with pytest.raises(ConfigError):
        RunConfig(scenario="classical-sl2", window=4, suites=("exchange",)).validate()


def test_bad_window_rejected():
    with pytest.raises(ConfigError):
        RunConfig(window=0).validate()


def test_exchange_window_too_small_rejected():
    # the degree-2/2 psi-phi kernel needs five modes to fit and one to verify
    with pytest.raises(ConfigError, match="window >= 5"):
        RunConfig(scenario="q-sl2", window=4, suites=("exchange",)).validate()
    with pytest.raises(ConfigError, match="window >= 5"):
        RunConfig(scenario="q-sl2", window=4).validate()      # "all" includes it
    RunConfig(scenario="q-sl2", window=5, suites=("exchange",)).validate()
    RunConfig(scenario="q-sl2", window=SMALL, suites=("commutators",)).validate()


def test_main_exchange_window_too_small_exits_2(capsys):
    code = main(["--scenario", "q-sl2", "--window", "4", "--suite", "exchange"])
    assert code == EXIT_CONFIG_ERROR
    assert "window >= 5" in capsys.readouterr().err


def test_suite_resolution_order():
    cfg = RunConfig(scenario="q-sl2", window=4,
                    suites=("reduce", "dirac", "dirac"))
    assert cfg.resolve_suites() == ["dirac", "reduce"]
    assert RunConfig(scenario="classical-sl2", window=4).resolve_suites() == \
        ["dirac", "reduce"]


# ---------------------------------------------------------------------------
# run + emit
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_report():
    return run(small_config())


def test_run_produces_records(small_report):
    assert small_report.scenario == "q-sl2"
    assert small_report.window == SMALL
    assert small_report.checks
    assert small_report.ok()
    assert all(r.seconds >= 0 for r in small_report.checks)


def test_json_round_trip(small_report):
    text = emit(small_report, "json")
    parsed = Report.from_json(text)
    assert parsed.to_dict() == small_report.to_dict()


def test_json_schema_fields(small_report):
    doc = json.loads(emit(small_report, "json"))
    assert set(doc) == {"scenario", "window", "checks"}
    for c in doc["checks"]:
        assert set(c) == {"id", "paper_eq", "status", "mode", "engine_value",
                          "expected_value", "seconds"}


def test_markdown_mirror(small_report):
    text = emit(small_report, "markdown")
    assert "| id | tag | status |" in text
    for c in small_report.checks:
        assert c.id in text


def test_empty_report_serializes():
    rep = Report("q-sl2", 4)
    doc = json.loads(emit(rep, "json"))
    assert doc["checks"] == []
    parsed = Report.from_json(emit(rep, "json"))
    assert parsed.to_dict() == rep.to_dict()


def test_failing_check_serializes_both_values():
    rep = Report("q-sl2", 4)
    rep.checks.append(CheckRecord("x", "ope1", FAIL, 3, "s^2", "s^-2"))
    doc = json.loads(emit(rep, "json"))
    assert doc["checks"][0]["engine_value"] == "s^2"
    assert doc["checks"][0]["expected_value"] == "s^-2"


def test_check_ids_unique():
    rep = run(RunConfig(scenario="q-sl2", window=5))
    ids = [r.id for r in rep.checks]
    assert len(ids) == 103
    assert len(set(ids)) == len(ids), sorted(i for i in set(ids) if ids.count(i) > 1)
    assert sorted(r.id for r in rep.documented) == \
        ["dirac-inverse-mode0", "reduce-mode0[qdirb]"]


def test_determinism_identical_config():
    a = run(small_config())
    b = run(small_config())
    assert a.strip_durations() == b.strip_durations()
    sa = json.dumps(a.strip_durations(), indent=2)
    sb = json.dumps(b.strip_durations(), indent=2)
    assert sa == sb


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_main_ok(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["--scenario", "classical-sl2", "--window", "4",
                 "--output", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["scenario"] == "classical-sl2"
    err = capsys.readouterr().err
    assert "0 failed" in err


def test_main_config_error(capsys):
    code = main(["--scenario", "classical-sl2", "--suite", "exchange",
                 "--window", "4"])
    assert code == EXIT_CONFIG_ERROR
    assert "error:" in capsys.readouterr().err


def test_main_unknown_scenario_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", "liouville"])
    assert exc.value.code == EXIT_CONFIG_ERROR


def test_main_unwritable_output(tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "report.json"
    code = main(["--scenario", "classical-sl2", "--window", "4",
                 "--output", str(target)])
    assert code == EXIT_CONFIG_ERROR


def test_main_check_failure_exit(monkeypatch, capsys, tmp_path):
    rep = Report("q-sl2", 5)
    rep.checks.append(CheckRecord("broken", "ope1", FAIL, 1, "a", "b"))
    monkeypatch.setattr("qvir.cli.run", lambda cfg: rep)
    code = main(["--window", "5", "--output", str(tmp_path / "r.json")])
    assert code == EXIT_CHECK_FAILED


def test_main_stdout(capsys):
    code = main(["--scenario", "classical-sl2", "--window", "2",
                 "--suite", "dirac", "--format", "markdown"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "Verification report" in out
