"""Batch driver: scenario selection, suite execution, report emission.

Exit status: 0 when every check passes (documented discrepancies do not
fail a run), 1 when any check fails, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import namedtuple

from .distcalc import ModeWindow
from .currents import (
    KacMoodyLevel,
    modes_from_ope,
    verify_commutators,
    verify_serre_mode_equivalence,
)
from .dirac import (
    SCENARIO_KEYS,
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

SUITES = {
    "q-sl2": ("exchange", "commutators", "modes", "dirac", "reduce", "limit"),
    "classical-sl2": ("dirac", "reduce"),
}

JACOBI_CUTOFF = 6


class ConfigError(ValueError):
    """Invalid run configuration."""


class RunConfig(namedtuple("RunConfig", "scenario window suites fmt output",
                           defaults=("q-sl2", 12, ("all",), "json", None))):
    """One batch run: scenario, window, suites and output."""

    __slots__ = ()

    def resolve_suites(self):
        if self.scenario not in SUITES:
            raise ConfigError(
                f"unknown scenario {self.scenario!r}; known: {sorted(SUITES)}")
        available = SUITES[self.scenario]
        wanted = []
        for s in self.suites:
            for name in s.split(","):
                name = name.strip()
                if not name:
                    continue
                if name == "all":
                    wanted.extend(available)
                elif name in available:
                    wanted.append(name)
                else:
                    raise ConfigError(
                        f"suite {name!r} is not available for scenario "
                        f"{self.scenario!r}; available: {list(available)} or 'all'")
        seen = []
        for name in available:        # dependency order is fixed
            if name in wanted and name not in seen:
                seen.append(name)
        if not seen:
            raise ConfigError("no suites selected")
        return seen

    def validate(self):
        """Raise ConfigError on a bad value; return the resolved suites."""
        if self.window < 1:
            raise ConfigError("window must be >= 1")
        if self.fmt not in ("json", "markdown"):
            raise ConfigError(f"unknown format {self.fmt!r}")
        return self.resolve_suites()


def _timed(records_fn):
    t0 = time.perf_counter()
    records = records_fn()
    seconds = (time.perf_counter() - t0) / max(1, len(records))
    return [r._replace(seconds=seconds) for r in records]


def run(config: RunConfig) -> Report:
    """Execute the selected suites in dependency order."""
    suites = config.validate()
    W = ModeWindow(config.window)
    rep = Report(config.scenario, config.window)

    # one Dirac chain per scenario, and on q-sl2 one set of closed forms,
    # shared by the suites that read them and built only for them
    chain = Reduction(scenario(config.scenario), W)
    classical = closed = None
    if config.scenario == "classical-sl2":
        classical = chain
    else:
        if "modes" in suites or "limit" in suites:
            classical = Reduction(scenario("classical-sl2"), W)
        if "dirac" in suites or "reduce" in suites or "limit" in suites:
            closed = QVirasoroBracket(W)

    for name in suites:
        if name == "exchange":
            rep.extend(_timed(lambda: exchange_suite(W)))
        elif name == "commutators":
            rep.extend(_timed(lambda: verify_commutators(W)))
            rep.extend(_timed(lambda: verify_ee_ope(W, +1)))
            rep.extend(_timed(lambda: verify_ee_ope(W, -1)))
        elif name == "modes":
            for k in (1, 2, 3):
                rep.extend(_timed(lambda k=k: modes_from_ope(KacMoodyLevel(k), W)))
            rep.extend(_timed(lambda: verify_serre_mode_equivalence(W)))
            rep.extend(_timed(lambda: verify_table_degeneration(chain, classical)))
        elif name == "dirac":
            rep.extend(_timed(lambda: dirac_suite(chain, closed)))
        elif name == "reduce":
            rep.extend(_timed(lambda: reduce_suite(chain, closed)))
            if config.scenario == "classical-sl2":
                rep.extend(_timed(lambda: _classical_jacobi(chain)))
        elif name == "limit":
            rep.extend(_timed(lambda: _limit_suite(chain, classical, closed)))
    return rep


def _classical_jacobi(chain):
    return classical_jacobi_check(ClassicalVirasoro.from_reduced(chain.contents),
                                  JACOBI_CUTOFF)


def _limit_suite(q_chain, classical_chain, closed):
    out = antisymmetry_check(closed)
    out.extend(classical_limit_check(q_chain.contents, classical_chain.contents,
                                     closed, q_chain.W))
    return out


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
    p.add_argument("--scenario", default="q-sl2", choices=SCENARIO_KEYS,
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
