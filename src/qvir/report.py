"""Check records and machine/human-readable verification reports."""

from __future__ import annotations

import json
from collections import namedtuple
from time import perf_counter

PASS = "pass"
FAIL = "fail"
DOCUMENTED = "discrepancy-documented"


class CheckRecord(namedtuple("CheckRecord", "id paper_eq status mode engine_value "
                             "expected_value seconds")):
    """Outcome of a single exact check, its fields in JSON key order.  Unless
    given, ``seconds`` is the record's creation time on the perf_counter clock
    until a run replaces it with the record's own time."""

    __slots__ = ()

    def __new__(cls, id, paper_eq, status, mode=None, engine_value="", expected_value="",
                seconds=None):
        return super().__new__(cls, id, paper_eq, status, mode, engine_value, expected_value,
                               perf_counter() if seconds is None else seconds)


def record(check_id: str, paper_eq: str, ok: bool, mode=None,
           engine="", expected="") -> CheckRecord:
    return CheckRecord(check_id, paper_eq, PASS if ok else FAIL, mode, str(engine),
                       str(expected))


def compare_dists(check_id: str, paper_eq: str, engine, expected) -> CheckRecord:
    """Per-mode comparison of two distributions; on failure records the first bad mode.

    A Dist2 stores no zero coefficient, so one comparison of the coefficient
    dicts decides every mode; the window is scanned only on a mismatch.
    """
    if engine == expected:
        # equal canonical values print alike
        text = _dist_str(engine)
        return record(check_id, paper_eq, True, engine=text, expected=text)
    bad = engine.first_mismatch(expected)
    return CheckRecord(check_id, paper_eq, FAIL, bad,
                       str(engine.coeff(bad)), str(expected.coeff(bad)))


def compare_pairs(check_id: str, paper_eq: str, pairs, engine, expected,
                  agree: str) -> CheckRecord:
    """Compare the coefficient dicts ``engine(n, m)`` and ``expected(n, m)``
    over the mode pairs in order; on failure records the first bad pair as
    ``mode`` and both dicts there, in key order.  A pass prints ``agree``."""
    for n, m in pairs:
        got, want = engine(n, m), expected(n, m)
        if got != want:
            got, want = ("; ".join(f"{k}: {v}" for k, v in sorted(d.items())) or "0"
                         for d in (got, want))
            return CheckRecord(check_id, paper_eq, FAIL, [n, m], got, want)
    return record(check_id, paper_eq, True, engine=agree)


def compare_termsums(check_id, paper_eq: str, engine, printed, agree=None) -> CheckRecord:
    """Term-by-term comparison of two TermSums; on failure records the first
    bad term and mode, else a pass printing both sums (or ``agree``)."""
    bad = engine.first_mismatch(printed)
    if bad is None:
        if agree is not None:
            return record(check_id, paper_eq, True, engine=agree)
        return record(check_id, paper_eq, True, engine=str(engine), expected=str(printed))
    key, n = bad
    e = engine.terms.get(key)
    p = printed.terms.get(key)
    ev = str(e.coeff(n)) if e is not None else "<term absent>"
    pv = str(p.coeff(n)) if p is not None else "<term absent>"
    mono = "*".join(str(f) for f in key[0]) or "1"
    return CheckRecord(check_id, paper_eq, FAIL, n, f"{mono}: {ev}", f"{mono}: {pv}")


def _dist_str(D):
    N = D.N
    return "[" + ", ".join(f"{n}: {D.coeff(n)}" for n in range(-N, N + 1)) + "]"


class Report:
    """Full verification report for one configuration."""

    def __init__(self, scenario: str, window: int, checks: list[CheckRecord] | None = None):
        self.scenario = scenario
        self.window = window
        self.checks = [] if checks is None else checks

    def extend(self, records):
        self.checks.extend(records)

    @property
    def failed(self):
        return [r for r in self.checks if r.status == FAIL]

    @property
    def documented(self):
        return [r for r in self.checks if r.status == DOCUMENTED]

    def ok(self):
        return not self.failed

    def to_dict(self):
        return {
            "scenario": self.scenario,
            "window": self.window,
            "checks": [c._asdict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Report":
        d = json.loads(text)
        rep = cls(d["scenario"], d["window"])
        rep.checks = [CheckRecord(**c) for c in d["checks"]]
        return rep

    def to_markdown(self) -> str:
        lines = [
            f"# Verification report: {self.scenario} (window N={self.window})",
            "",
            "| id | tag | status | mode | engine | expected | seconds |",
            "|---|---|---|---|---|---|---|",
        ]
        for c in self.checks:
            mode = "" if c.mode is None else str(c.mode)
            eng = c.engine_value.replace("|", "\\|")
            exp = c.expected_value.replace("|", "\\|")
            if len(eng) > 120:
                eng = eng[:117] + "..."
            if len(exp) > 120:
                exp = exp[:117] + "..."
            lines.append(
                f"| {c.id} | {c.paper_eq} | {c.status} | {mode} | {eng} | {exp} | {c.seconds:.3f} |"
            )
        lines += ["", self.summary(), ""]
        return "\n".join(lines)

    def summary(self) -> str:
        n_fail = len(self.failed)
        n_doc = len(self.documented)
        return (f"{len(self.checks)} checks: {len(self.checks) - n_fail - n_doc} passed, "
                f"{n_fail} failed, {n_doc} documented discrepancies.")

    def strip_durations(self) -> dict:
        d = self.to_dict()
        for c in d["checks"]:
            c["seconds"] = None
        return d
