"""Batch driver: scenario selection, suite execution, report emission.

Exit status: 0 when every check passes (documented discrepancies do not
fail a run), 1 when any check fails, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import namedtuple
from functools import cached_property

from .distcalc import ModeWindow
from .currents import (
    KacMoodyLevel,
    modes_from_ope,
    verify_commutators,
    verify_serre_mode_equivalence,
)
from .dirac import (
    QVirasoroBracket,
    Reduction,
    dirac_suite,
    reduce_suite,
    scenario,
    verify_table_degeneration,
)
from .qvirasoro import (
    ClassicalVirasoro,
    antisymmetry_check,
    classical_jacobi_check,
    classical_limit_check,
)
from .report import Report
from .vertexcalc import exchange_suite, verify_ee_ope

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2

JACOBI_CUTOFF = 6


class Run:
    """One run's window and the values its suites share: each scenario's
    Dirac chain and the q-sl2 closed forms, each built on first use."""

    def __init__(self, W: ModeWindow):
        self.W = W
        self._chains = {}

    def chain(self, key: str) -> Reduction:
        red = self._chains.get(key)
        if red is None:
            red = self._chains[key] = Reduction(scenario(key), self.W)
        return red

    @cached_property
    def closed(self) -> QVirasoroBracket:
        return QVirasoroBracket(self.W)


# The run plan: each scenario's suites in dependency order, each a tuple of
# check groups timed one by one.  A group is a function of the `Run` and looks
# its suite up by module attribute when called, so a rebound name (a tracer's
# or a test's counting wrapper) sees the call.
SUITES = {
    "q-sl2": {
        "exchange": (lambda r: exchange_suite(r.W),),
        "commutators": (lambda r: verify_commutators(r.W),
                        lambda r: verify_ee_ope(r.W, +1),
                        lambda r: verify_ee_ope(r.W, -1)),
        "modes": (*(lambda r, k=k: modes_from_ope(KacMoodyLevel(k), r.W)
                    for k in (1, 2, 3)),
                  lambda r: verify_serre_mode_equivalence(r.W),
                  lambda r: verify_table_degeneration(r.chain("q-sl2"),
                                                      r.chain("classical-sl2"))),
        "dirac": (lambda r: dirac_suite(r.chain("q-sl2"), r.closed),),
        "reduce": (lambda r: reduce_suite(r.chain("q-sl2"), r.closed),),
        "limit": (lambda r: antisymmetry_check(r.closed)
                  + classical_limit_check(r.chain("q-sl2").contents,
                                          r.chain("classical-sl2").contents,
                                          r.closed, r.W),),
    },
    "classical-sl2": {
        "dirac": (lambda r: dirac_suite(r.chain("classical-sl2")),),
        "reduce": (lambda r: reduce_suite(r.chain("classical-sl2")),
                   lambda r: classical_jacobi_check(ClassicalVirasoro.from_reduced(
                       r.chain("classical-sl2").contents), JACOBI_CUTOFF)),
    },
}


class ConfigError(ValueError):
    """Invalid run configuration."""


class RunConfig(namedtuple("RunConfig", "scenario window suites fmt output",
                           defaults=("q-sl2", 12, ("all",), "json", None))):
    """One batch run: scenario, window, suites and output."""

    __slots__ = ()

    def resolve_suites(self):
        plan = SUITES.get(self.scenario)
        if plan is None:
            raise ConfigError(
                f"unknown scenario {self.scenario!r}; known: {sorted(SUITES)}")
        wanted = set()
        for s in self.suites:
            for name in s.split(","):
                name = name.strip()
                if name == "all":
                    wanted.update(plan)
                elif name in plan:
                    wanted.add(name)
                elif name:
                    raise ConfigError(
                        f"suite {name!r} is not available for scenario "
                        f"{self.scenario!r}; available: {list(plan)} or 'all'")
        if not wanted:
            raise ConfigError("no suites selected")
        return [n for n in plan if n in wanted]     # dependency order is fixed

    def validate(self):
        """Raise ConfigError on a bad value; return the resolved suites."""
        if self.window < 1:
            raise ConfigError("window must be >= 1")
        if self.fmt not in ("json", "markdown"):
            raise ConfigError(f"unknown format {self.fmt!r}")
        return self.resolve_suites()


def _timed(group, shared):
    t0 = time.perf_counter()
    records = group(shared)
    seconds = (time.perf_counter() - t0) / max(1, len(records))
    return [r._replace(seconds=seconds) for r in records]


def run(config: RunConfig) -> Report:
    """Run the plan's check groups of the selected suites, in dependency order."""
    suites = config.validate()
    shared = Run(ModeWindow(config.window))
    rep = Report(config.scenario, config.window)
    for name in suites:
        for group in SUITES[config.scenario][name]:
            rep.extend(_timed(group, shared))
    return rep


def emit(report: Report, fmt: str) -> str:
    """Serialize a report as JSON or a markdown table."""
    if fmt == "json":
        return report.to_json()
    if fmt == "markdown":
        return report.to_markdown()
    raise ConfigError(f"unknown format {fmt!r}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qvir",
        description=("Exact verification of the q-deformed Virasoro algebra "
                     "obtained by Dirac reduction of the quantum affine sl(2) "
                     "current algebra at level 1."))
    p.add_argument("--scenario", default="q-sl2", choices=sorted(SUITES),
                   help="which reduction to verify")
    p.add_argument("--window", type=int, default=12, metavar="N",
                   help="mode window: checks run for |n| <= N (default 12)")
    p.add_argument("--suite", action="append", default=None, metavar="NAME",
                   help="suite selection (repeatable or comma-separated): "
                        "exchange, commutators, modes, dirac, reduce, limit, all")
    p.add_argument("--format", dest="fmt", default="json",
                   choices=("json", "markdown"), help="output format")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="write the report here instead of stdout")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(
        scenario=args.scenario,
        window=args.window,
        suites=tuple(args.suite) if args.suite else ("all",),
        fmt=args.fmt,
        output=args.output,
    )
    try:
        report = run(config)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    text = emit(report, config.fmt)
    if config.output:
        try:
            with open(config.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            print(f"error: cannot write {config.output!r}: {err}", file=sys.stderr)
            return EXIT_CONFIG_ERROR
    else:
        sys.stdout.write(text)

    print(report.summary(), file=sys.stderr)
    return EXIT_OK if report.ok() else EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
