"""The benchmark's workloads: the qvir CLI arguments of each, and the known verdict.

The known verdicts come from the paper's documented zero-mode discrepancies
and the check counts of each suite selection, never from engine value
strings, so a change of representation does not break the gate.
"""

from __future__ import annotations

from dataclasses import dataclass

Q_DOCUMENTED = frozenset({"dirac-inverse-mode0", "reduce-mode0[qdirb]"})


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple          # the whole input of one qvir run
    checks: int          # expected number of check records
    documented: frozenset  # expected discrepancy-documented ids
    setup: tuple         # scenario(...) calls the CLI makes: (key, weighted)


WORKLOADS = {w.name: w for w in (
    Workload(
        "q-full-6",
        ("--scenario", "q-sl2", "--window", "6"),
        103, Q_DOCUMENTED,
        (("q-sl2", False), ("q-sl2", True), ("classical-sl2", False)),
    ),
    Workload(
        "classical-wide-512",
        ("--scenario", "classical-sl2", "--window", "512"),
        14, frozenset(),
        (("classical-sl2", False),),
    ),
)}
