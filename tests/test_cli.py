"""Batch driver: configuration, suite selection, emission, exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qvir import cli, dirac
from qvir import vertexcalc as vc
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
from qvir.distcalc import Dist2, ModeWindow
from qvir.qcoeff import S_ZERO, RatFunc, qint, qint_over_qsum
from qvir.report import DOCUMENTED, FAIL, PASS, CheckRecord, Report, _dist_str, compare_dists

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


@pytest.mark.parametrize("window", (1, 2, 3, 4, 5, 6))
def test_every_suite_runs_at_small_windows(tmp_path, window):
    # contractions are reconstructed on the padded contraction window, so no
    # suite has a window floor above 1 and none ends in a traceback
    for scenario, plan in cli.SUITES.items():
        for name in (*plan, "all"):
            out = tmp_path / f"{scenario}-{name}-{window}.json"
            code = main(["--scenario", scenario, "--window", str(window),
                         "--suite", name, "--output", str(out)])
            assert code == EXIT_OK, (scenario, name, window)
            assert json.loads(out.read_text())["checks"]


@pytest.mark.parametrize("h", (0, -2, 4))
def test_weight_exponent_off_two_keeps_ids_unique_and_fails(monkeypatch, tmp_path, h):
    # the reduce suite reads the [qvir] pass off the one q-sl2 chain,
    # reweighted by the exponent it reads at call time; the absorbed closed
    # form holds at exponent 2 only, so any other exponent is a negative
    # control that must fail both [qvir] kernels and leave [qdirb] alone
    monkeypatch.setattr(dirac, "WEIGHT_EXPONENT", h)
    out = tmp_path / "r.json"
    code = main(["--window", "5", "--suite", "reduce", "--output", str(out)])
    assert code == EXIT_CHECK_FAILED
    checks = json.loads(out.read_text())["checks"]
    ids = [c["id"] for c in checks]
    assert len(set(ids)) == len(ids)
    status = {c["id"]: c["status"] for c in checks}
    assert status["reduce-quadratic[qvir]"] == FAIL
    assert status["reduce-central[qvir]"] == FAIL
    assert status["reduce-quadratic[qdirb]"] == PASS


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


def test_passing_comparison_prints_the_expected_value_itself():
    # a pass formats one distribution for both strings; it must read exactly
    # as the expected distribution formatted on its own
    W = ModeWindow(3)
    engine = Dist2.from_func(W.N, lambda n: qint(n) * qint(n) / qint(2 * n) if n else S_ZERO)
    expected = Dist2.from_func(W.N, lambda n: qint_over_qsum(n, 1) if n else S_ZERO)
    rec = compare_dists("x", "qdirb", engine, expected)
    assert rec.status == PASS
    assert rec.expected_value == _dist_str(expected) == rec.engine_value
    assert rec.expected_value.startswith("[-3: ") and "/" in rec.expected_value


def test_check_ids_unique():
    rep = run(RunConfig(scenario="q-sl2", window=5))
    ids = [r.id for r in rep.checks]
    assert len(ids) == 103
    assert len(set(ids)) == len(ids), sorted(i for i in set(ids) if ids.count(i) > 1)
    assert sorted(r.id for r in rep.documented) == \
        ["dirac-inverse-mode0", "reduce-mode0[qdirb]"]


# The ordered check list of a full q-sl2 run at window 5.  A change that
# reorders, renames or drops a check fails here, not first in the benchmark.
GOLDEN_Q5_IDS = (
    # exchange
    "exchange-psi-phi-kernel", "exchange-psi-phi-window", "exchange-psi-e+-kernel",
    "exchange-psi-e+-window", "exchange-psi-e--kernel", "exchange-psi-e--window",
    "exchange-e+-phi-kernel", "exchange-e+-phi-window", "exchange-e--phi-kernel",
    "exchange-e--phi-window", "exchange-e+-e+-kernel", "exchange-e+-e+-window",
    "exchange-e--e--kernel", "exchange-e--e--window", "exchange-psi-psi-kernel",
    "exchange-psi-psi-window", "exchange-phi-phi-kernel", "exchange-phi-phi-window",
    # commutators
    "commutator-constraint-pair", "commutator-constraint-step+",
    "commutator-constraint-step-", "commutator-step-same+", "commutator-step-same-",
    "antisymmetry-constraint-pair", "antisymmetry-step-same+",
    "antisymmetry-step-same-", "antisymmetry-mixed", "ee-ope-prefactor[+]",
    "ee-ope-poles[+]", "ee-ope-residues[+]", "ee-ope-degree-bound[+]",
    "ee-ope-fusion[+]", "ee-ope-region-difference[+]", "ee-ope-prefactor[-]",
    "ee-ope-poles[-]", "ee-ope-residues[-]", "ee-ope-degree-bound[-]",
    "ee-ope-fusion[-]", "ee-ope-region-difference[-]",
    # modes
    "modes-hh-k1", "modes-he+-k1", "modes-h0-e+-k1", "modes-he+-vertex", "modes-he--k1",
    "modes-h0-e--k1", "modes-he--vertex", "modes-ee-k1", "modes-hh-k2", "modes-he+-k2",
    "modes-h0-e+-k2", "modes-he--k2", "modes-h0-e--k2", "modes-ee-k2", "modes-hh-k3",
    "modes-he+-k3", "modes-h0-e+-k3", "modes-he--k3", "modes-h0-e--k3", "modes-ee-k3",
    "serre-mode+", "serre-mode-", "degeneration-chi1,chi1", "degeneration-chi1,E+",
    "degeneration-E+,E+", "degeneration-E-,chi1", "degeneration-E-,E+",
    "degeneration-E-,E-",
    # dirac
    "constraints-idempotent", "dirac-matrix-11", "dirac-matrix-12", "dirac-matrix-21",
    "dirac-matrix-22", "dirac-invertible", "dirac-pairing-identity",
    "dirac-invert-involution", "dirac-inverse-11", "dirac-inverse-12",
    "dirac-inverse-21", "dirac-inverse-22", "dirac-inverse-mode0",
    # reduce
    "reduce-antisymmetry[qdirb]", "affine-map-consistency[qdirb]",
    "reduce-quadratic[qdirb]", "reduce-linear-cancellation[qdirb]",
    "reduce-central[qdirb]", "reduce-mode0[qdirb]", "reduce-rational-sector[qdirb]",
    "reduce-antisymmetry[qvir]", "affine-map-consistency[qvir]",
    "reduce-quadratic[qvir]", "reduce-linear-cancellation[qvir]",
    "reduce-central[qvir]", "reduce-rational-sector[qvir]",
    # limit
    "qvir-quad-kernel-odd", "qvir-central-zero-mode", "qvir-bracket-antisymmetry",
    "qvir-rational-sector", "qvir-weight-relation", "limit-overall-factor",
    "limit-h2-piece-cancellation", "limit-subleading-cancellation", "limit-h4-linear",
    "limit-h4-central",
)


def test_report_golden_ids():
    rep = run(RunConfig(scenario="q-sl2", window=5))
    documented = {"dirac-inverse-mode0", "reduce-mode0[qdirb]"}
    assert [(r.id, r.status) for r in rep.checks] == \
        [(i, DOCUMENTED if i in documented else PASS) for i in GOLDEN_Q5_IDS]


# Full reports without the "seconds" fields.  They are written by
# _report_without_seconds and change only when a report is meant to change.
GOLDEN = Path(__file__).parent / "golden"


def _report_without_seconds(config):
    d = run(config).to_dict()
    for c in d["checks"]:
        del c["seconds"]
    return d


@pytest.mark.parametrize("scenario,window", (("classical-sl2", 8), ("q-sl2", 5)))
def test_report_matches_golden(scenario, window):
    # the full report, every engine and expected string included, is fixed
    golden = json.loads((GOLDEN / f"{scenario}-window{window}.json").read_text())
    assert _report_without_seconds(RunConfig(scenario=scenario, window=window)) == golden


def _golden_digest_matches(window, scenario="q-sl2"):
    want = (GOLDEN / f"{scenario}-window{window}.sha256").read_text().split()[0]
    rep = run(RunConfig(scenario=scenario, window=window))
    text = json.dumps(rep.strip_durations(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest() == want


def test_report_matches_golden_digest_at_window_6():
    # the benchmark's q-full-6 workload: every engine and expected string of
    # its report is pinned
    assert _golden_digest_matches(6)


def test_report_matches_golden_digest_at_window_12():
    # the gcd path reaches degree 48 here, far beyond the window-5 golden; the
    # digest pins every engine and expected string of the full report
    assert _golden_digest_matches(12)


def test_report_matches_golden_digest_at_window_24():
    # degrees reach 216 here, where pseudo-division growth and the removal of
    # integer content matter and window 12 does not reach
    assert _golden_digest_matches(24)


def test_report_matches_golden_digest_classical_at_window_512():
    # 1025 modes of degree-0 coefficients, the benchmark's classical-wide-512
    # workload: every engine and expected string of its report is pinned
    assert _golden_digest_matches(512, scenario="classical-sl2")


def test_limit_records_match_golden():
    golden = json.loads((GOLDEN / "q-sl2-window5.json").read_text())
    limit = _report_without_seconds(RunConfig(scenario="q-sl2", window=5,
                                              suites=("limit",)))["checks"]
    ids = {c["id"] for c in limit}
    assert any(i.startswith("limit-h4") for i in ids)
    assert limit == [c for c in golden["checks"] if c["id"] in ids]


def _count_dirac_stages(monkeypatch, names=("build_dirac_matrix", "invert", "reduce",
                                             "classical_bracket")):
    """Wrap the Dirac-chain stages and the bracket builds (or the dirac
    callables ``names``) wherever dirac or cli binds them."""
    counts = {}
    for name in names:
        fn = getattr(dirac, name)
        counts[name] = 0

        def counted(*args, _fn=fn, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for ns in (dirac, cli):
            for key, value in list(vars(ns).items()):
                if value is fn:
                    monkeypatch.setattr(ns, key, counted)
    return counts


_Q_STAGES = {"build_dirac_matrix": 2, "invert": 3, "reduce": 2, "classical_bracket": 16}


@pytest.mark.parametrize("scenario,window,suites,want", (
    pytest.param("classical-sl2", 8, "all",
                 {"build_dirac_matrix": 1, "invert": 2, "reduce": 1, "classical_bracket": 8},
                 id="classical-sl2-8-want0"),
    pytest.param("q-sl2", 5, "all", _Q_STAGES, id="q-sl2-5-want1"),
    # the dirac suite reads the q chain's matrix and inverse before the reduce
    # suite reduces and drops them, and no later suite reads them again
    pytest.param("q-sl2", 5, "dirac,reduce,limit", _Q_STAGES, id="q-sl2-5-dirac,reduce,limit"),
))
def test_dirac_stage_counts(monkeypatch, scenario, window, suites, want):
    # each scenario's chain (q, classical) builds, inverts and reduces once,
    # the [qvir] pass reweights the q chain's result, and the involution
    # check inverts once more.
    # Each chain builds its 8 on-surface brackets once, and the degeneration
    # check reads the run's q and classical chains instead of building its own
    counts = _count_dirac_stages(monkeypatch)
    rep = run(RunConfig(scenario=scenario, window=window, suites=(suites,)))
    assert rep.ok()
    assert counts == want


def test_classical_products_take_the_integer_path(monkeypatch):
    # every value of the classical chain is a constant, so each product of
    # two nonzero values multiplies two monomials over the unit denominator
    # as integers and none reaches RatFunc.__mul__; the q chain's
    # polynomials and fractions do
    calls = []
    mul = RatFunc.__mul__
    monkeypatch.setattr(RatFunc, "__mul__",
                        lambda f, g, *u: calls.append(1) or mul(f, g, *u))
    assert run(RunConfig(scenario="classical-sl2", window=8)).ok()
    assert calls == []
    assert run(RunConfig(scenario="q-sl2", window=3, suites=("dirac",))).ok()
    assert calls


@pytest.mark.parametrize("scenario,suites,want", (
    ("q-sl2", "all", {"QVirasoroBracket": 1, "split_reduced": 2, "Reduction": 2}),
    ("q-sl2", "reduce,limit", {"QVirasoroBracket": 1, "split_reduced": 2}),
    ("classical-sl2", "all", {"QVirasoroBracket": 0, "split_reduced": 1}),
    # the suites that read neither the closed forms nor a reduced bracket
    # build no chain; only the modes suite reads the classical chain, and the
    # dirac suite reads the q chain's matrix and inverse, not its contents
    ("q-sl2", "exchange", {"QVirasoroBracket": 0, "split_reduced": 0, "Reduction": 0}),
    ("q-sl2", "commutators", {"QVirasoroBracket": 0, "split_reduced": 0, "Reduction": 0}),
    ("q-sl2", "modes", {"QVirasoroBracket": 0, "split_reduced": 0, "Reduction": 2}),
    ("q-sl2", "dirac", {"QVirasoroBracket": 1, "split_reduced": 0, "Reduction": 1}),
))
def test_closed_forms_and_contents_built_once_per_run(monkeypatch, scenario, suites, want):
    # one set of closed forms per q-sl2 run that reads them and none per
    # classical-sl2 run; each chain's reduced bracket is split once, whichever
    # suites read it
    counts = _count_dirac_stages(monkeypatch, names=tuple(want))
    rep = run(RunConfig(scenario=scenario, window=5, suites=(suites,)))
    assert rep.ok()
    assert counts == want


def test_modes_suite_builds_each_degeneration_bracket_once(monkeypatch):
    # the degeneration check reads 6 brackets from each chain and forms no
    # Dirac stage of its own
    counts = _count_dirac_stages(monkeypatch)
    rep = run(RunConfig(window=SMALL, suites=("modes",)))
    assert rep.ok()
    assert counts == {"build_dirac_matrix": 0, "invert": 0, "reduce": 0,
                      "classical_bracket": 12}


# One unit added at mode 0 to two monomials of the q table's (E-, E-) rule:
# the degeneration check sees two mismatching terms and must name the same one
# whatever the string hash seed.
_TWO_TERM_MISMATCH = """
import json
from qvir import dirac
from qvir.cli import RunConfig, run
from qvir.currents import FieldFactor, TermSum
from qvir.distcalc import Dist2

def table(_build=dirac.q_bracket_table):
    t = _build()
    rule = t[("E-", "E-")]
    t[("E-", "E-")] = lambda W: rule(W) + TermSum(
        [((FieldFactor("E-", v),), 0, Dist2.unit0(W.N)) for v in ("z", "w")])
    return t

dirac.q_bracket_table = table
rep = run(RunConfig(window=3, suites=("modes",)))
print(json.dumps([c._asdict() | {"seconds": 0} for c in rep.failed]))
"""


def test_failing_degeneration_record_ignores_the_hash_seed():
    root, env = _probe_env()
    outs = []
    for seed in ("1", "2", "3", "4"):
        proc = subprocess.run([sys.executable, "-c", _TWO_TERM_MISMATCH], cwd=root,
                              env=env | {"PYTHONHASHSEED": seed}, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(json.loads(proc.stdout))
    assert outs[1:] == outs[:-1]
    assert [(c["id"], c["mode"], c["engine_value"], c["expected_value"])
            for c in outs[0]] == [("degeneration-E-,E-", 0, "E-(w): 1", "E-(w): <term absent>")]


def test_each_contraction_reconstructed_once(monkeypatch):
    # a contraction kernel is exact for every mode, so runs at any window
    # build each ordered pair of the four fields exactly once
    monkeypatch.setattr(vc, "_CONTRACTION_MEMO", {})
    calls = []

    def counted(*args, _fn=vc.reconstruct_kernel, **kwargs):
        calls.append(args)
        return _fn(*args, **kwargs)

    monkeypatch.setattr(vc, "reconstruct_kernel", counted)
    fields = ("E+", "E-", "Psi", "Phi")
    for window in (5, 1, 12):
        rep = run(RunConfig(scenario="q-sl2", window=window))
        assert rep.ok()
        assert len(calls) == 16
        assert {(A.name, B.name) for A, B in vc._CONTRACTION_MEMO} == \
            {(a, b) for a in fields for b in fields}


def test_runs_leave_no_state_behind():
    first = run(RunConfig(scenario="q-sl2", window=5))
    run(RunConfig(scenario="classical-sl2", window=16))
    again = run(RunConfig(scenario="q-sl2", window=5))
    assert again.strip_durations() == first.strip_durations()


@pytest.mark.parametrize("scenario,window", (("q-sl2", 5), ("classical-sl2", 8)))
def test_a_run_is_its_single_suite_runs_joined(scenario, window):
    # a subset run builds every shared chain and closed form it reads, and
    # the values it reads do not depend on which other suites ran
    whole = run(RunConfig(scenario=scenario, window=window)).strip_durations()["checks"]
    joined = []
    for suite in cli.SUITES[scenario]:
        config = RunConfig(scenario=scenario, window=window, suites=(suite,))
        joined += run(config).strip_durations()["checks"]
    assert len(whole) == (103 if scenario == "q-sl2" else 14)
    assert joined == whole


def test_shared_values_are_immutable():
    # values held by the contraction memo, a chain, the scenario registry,
    # the closed forms and a run
    W = ModeWindow(3)
    E = vc.standard_fields()["E-"]
    sc = dirac.scenario("q-sl2")
    shared = (
        (vc.contraction_kernel(E, E), "const zdeg kernel"),
        (dirac.Reduction(sc, W).contents, "quad lin_z lin_w cnum"),
        (sc, "key table constraints"),
        (sc.constraints, "symbols exprs on_surface"),
        (dirac.QVirasoroBracket(W).amap, "a2 ab b2"),
        (run(RunConfig(window=3, suites=("dirac",))).checks[0],
         "id paper_eq status mode engine_value expected_value seconds"),
        (RunConfig(), "scenario window suites fmt output"),
    )
    for value, fields in shared:
        for name in fields.split():
            with pytest.raises(AttributeError):
                setattr(value, name, None)


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


def test_main_validates_the_config_once(monkeypatch, tmp_path, capsys):
    # run validates; main maps its ConfigError to exit 2 without a check of its own
    calls = []
    validate = RunConfig.validate
    monkeypatch.setattr(RunConfig, "validate", lambda c: calls.append(c) or validate(c))
    assert main(["--scenario", "classical-sl2", "--window", "2", "--suite", "reduce",
                 "--output", str(tmp_path / "report.json")]) == EXIT_OK
    assert len(calls) == 1
    assert main(["--window", "0"]) == EXIT_CONFIG_ERROR and len(calls) == 2
    assert "error: window must be >= 1" in capsys.readouterr().err


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


def _python_m_qvir(args):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "qvir", *args],
                          env=env, capture_output=True, text=True, timeout=120)


def test_python_m_qvir_runs(tmp_path):
    # the package runs as a module; stderr carries the summary line only
    out = tmp_path / "r.json"
    proc = _python_m_qvir(["--window", "1", "--suite", "dirac", "--output", str(out)])
    assert proc.returncode == EXIT_OK
    assert proc.stderr.splitlines() == [
        "13 checks: 12 passed, 0 failed, 1 documented discrepancies."]
    assert json.loads(out.read_text())["checks"]


@pytest.mark.parametrize("option", (("--order", "6"), ("--weight-exponent", "2"),
                                    ("--weight",), ("--no-weight",)))
def test_removed_options_are_usage_errors(option):
    # the expansion order and the mode weight are constants, not options
    proc = _python_m_qvir(["--window", "1", "--suite", "dirac", *option])
    assert proc.returncode == EXIT_CONFIG_ERROR
    assert proc.stderr.startswith("usage: qvir")
    assert "unrecognized arguments" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def _probe_env():
    """The checkout's root, and an environment that imports qvir from its src/."""
    root = Path(cli.__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return root, env


@pytest.mark.parametrize("workload", ("q-full-6", "classical-wide-512"))
def test_benchmark_probe_setup_contract(workload):
    # the benchmark's set-up samples import the engine modules by name, as
    # the qvir package binds none of their names, and print one float
    root, env = _probe_env()
    proc = subprocess.run(
        [sys.executable, "perfbench/probe.py", "setup", workload],
        cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.split()
    assert len(lines) == 1 and float(lines[0]) > 0


def test_benchmark_probe_trace_contract(tmp_path):
    # the benchmark's traced runs read these fields off perfbench/probe.py, on
    # both workloads' scenarios; the probe's install() raises when a name it
    # wraps is gone, so a rename fails here as well
    root, env = _probe_env()
    traces = []
    for i, args in enumerate((("--window", "2"),
                              ("--scenario", "classical-sl2", "--window", "8"))):
        out = tmp_path / f"t{i}.json"
        proc = subprocess.run(
            [sys.executable, "perfbench/probe.py", "trace", str(out), *args],
            cwd=root, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_OK, proc.stderr
        traces.append(json.loads(out.read_text()))
        assert {"contraction_memo_entries", "qint_hits", "qint_misses"} <= set(traces[-1])
    trace, classical = traces
    assert classical["contraction_memo_entries"] == 0
    assert classical["stats"]["dirac.reduce"][0] > 0
    assert trace["contraction_memo_entries"] == 16
    assert trace["stats"]["vertexcalc.contraction_kernel"][0] > 0
    assert trace["stats"]["vertexcalc.reconstruct_kernel"][0] == 16
    # the Dirac chain and the limit are wrapped by module attribute
    assert trace["stats"]["dirac.reduce"][0] > 0
    assert trace["stats"]["dirac.build_dirac_matrix"][0] > 0
    assert trace["stats"]["qvirasoro.classical_limit_check"][0] > 0
    # the run plan looks every suite up when it calls it, so each call counts
    for name, calls in (("vertexcalc.exchange_suite", 1), ("vertexcalc.verify_ee_ope", 2),
                        ("currents.verify_commutators", 1),
                        ("currents.modes_from_ope.k3", 1), ("dirac.dirac_suite", 1),
                        ("dirac.reduce_suite", 1), ("qvirasoro.antisymmetry_check", 1)):
        assert trace["stats"][name][0] == calls, name
    assert classical["stats"]["qvirasoro.classical_jacobi_check"][0] == 1
    # the h-expansion and the gcd are wrapped by name as well
    assert trace["stats"]["qcoeff.taylor_q1"][0] > 0
    assert "qcoeff.gcd" in trace["stats"]
    # and the field tower's methods by class attribute
    assert trace["stats"]["qcoeff.RatFunc.new"][0] > 0
    assert trace["stats"]["qcoeff.Scalar.mul"][0] > 0
    # the report's emitters, wrapped through the Report class's own __dict__
    assert trace["stats"]["report.emit"][0] > 0


def test_cli_import_loads_no_dataclass_machinery():
    # a cold run pays for every module qvir.cli pulls in; dataclasses alone
    # brings inspect, ast, dis and tokenize
    root, env = _probe_env()
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qvir.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
