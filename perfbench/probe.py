"""Child-process side of the benchmark; each mode runs in a fresh interpreter.

    python3 perfbench/probe.py setup WORKLOAD
        Import qvir, build the workload's scenario objects and the standard
        fields, and print the seconds that took.
    python3 perfbench/probe.py trace OUT.json QVIR_ARGS...
        Wrap the public entry points of every qvir module, run qvir.cli.main
        on QVIR_ARGS, write counters, per-layer self times and spans to
        OUT.json, and exit with the CLI's exit status.

qvir must be importable (the caller puts the checkout's src/ on PYTHONPATH).
"""

from __future__ import annotations

import json
import sys
import time

perf = time.perf_counter

LAYERS = ("cli", "report", "vertexcalc", "currents", "distcalc", "dirac",
          "qvirasoro", "qcoeff")


def setup(workload_name: str) -> float:
    from workloads import WORKLOADS
    wl = WORKLOADS[workload_name]
    t0 = perf()
    from qvir.dirac import scenario
    from qvir.vertexcalc import standard_fields
    for key, weighted in wl.setup:
        scenario(key, weighted=weighted)
    standard_fields()
    return perf() - t0


class Tracer:
    """Spans and aggregated counters recorded around wrapped functions.

    Every wrapped call updates ``stats[name] = [calls, inclusive_s, self_s]``
    and the self time of its layer; a call wrapped as a span also appends
    (id, name, start, end, parent id) to ``spans``.  Self time is the call's
    duration minus the part its wrapped children cover.
    """

    def __init__(self):
        self.t0 = perf()
        self.stack = [[0.0, None]]      # frames: [child seconds, span id]
        self.spans = []
        self.stats = {}
        self.layer_self = dict.fromkeys(LAYERS, 0.0)

    def _entry(self, name):
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0, 0.0]
        return entry

    def wrap(self, fn, name, layer, span=True):
        """``name`` is a string, or a function of the call's arguments."""
        stack, spans, layer_self = self.stack, self.spans, self.layer_self
        fixed = None if callable(name) else self._entry(name)
        entry_of = self._entry

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span_id = len(spans) if span else parent[1]
            if span:
                spans.append(None)      # reserve the id; filled on exit
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dt = end - start
                parent[0] += dt
                own = dt - frame[0]
                label, entry = name, fixed
                if fixed is None:
                    label = name(*args, **kwargs)
                    entry = entry_of(label)
                entry[0] += 1
                entry[1] += dt
                entry[2] += own
                layer_self[layer] += own
                if span:
                    spans[span_id] = (span_id, label, start - self.t0,
                                      end - self.t0, parent[1])

        return wrapper


def install(tracer: Tracer):
    """Wrap the entry points in every qvir namespace that binds them."""
    import qvir
    from qvir import cli, currents, dirac, distcalc, qcoeff, qvirasoro, report, vertexcalc

    namespaces = (qvir, cli, currents, dirac, distcalc, qcoeff, qvirasoro, report,
                  vertexcalc)
    functions = [
        (cli, "main", "cli.main"),
        (cli, "run", "cli.run"),
        (vertexcalc, "exchange_suite", "vertexcalc.exchange_suite"),
        (vertexcalc, "verify_ee_ope", "vertexcalc.verify_ee_ope"),
        (vertexcalc, "contraction_kernel", "vertexcalc.contraction_kernel"),
        (vertexcalc, "reconstruct_kernel", "vertexcalc.reconstruct_kernel"),
        (currents, "verify_commutators", "currents.verify_commutators"),
        (currents, "modes_from_ope",
         lambda level, W: f"currents.modes_from_ope.k{level.k}"),
        (currents, "classical_bracket", "currents.classical_bracket"),
        (distcalc, "pair", "distcalc.pair"),
        (distcalc, "region_difference", "distcalc.region_difference"),
        (distcalc, "weight_abs", "distcalc.weight_abs"),
        (dirac, "dirac_suite", "dirac.dirac_suite"),
        (dirac, "reduce_suite", "dirac.reduce_suite"),
        (dirac, "reduce", "dirac.reduce"),
        (dirac, "build_dirac_matrix", "dirac.build_dirac_matrix"),
        (dirac, "invert", "dirac.invert"),
        (qvirasoro, "classical_limit_check", "qvirasoro.classical_limit_check"),
        (qvirasoro, "antisymmetry_check", "qvirasoro.antisymmetry_check"),
        (qvirasoro, "classical_jacobi_check", "qvirasoro.classical_jacobi_check"),
    ]
    # the field tower is called far too often for one span per call
    aggregated = [
        (qcoeff, "_poly_gcd", "qcoeff.gcd"),
        (qcoeff, "taylor_q1", "qcoeff.taylor_q1"),
    ]
    for module, attr, name in functions + aggregated:
        fn = getattr(module, attr)
        layer = module.__name__.rsplit(".", 1)[1]
        wrapped = tracer.wrap(fn, name, layer, span=(module is not qcoeff))
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is fn:
                    setattr(ns, key, wrapped)
    for k in (1, 2, 3):     # the levels the modes suite runs; listed even when not run
        tracer._entry(f"currents.modes_from_ope.k{k}")

    methods = [
        (report.Report, ("to_json", "to_markdown"), "report.emit", "report", True),
        (qcoeff.Scalar, ("__mul__", "__rmul__"), "qcoeff.Scalar.mul", "qcoeff", False),
        (qcoeff.Scalar, ("__add__", "__radd__"), "qcoeff.Scalar.add", "qcoeff", False),
        (qcoeff.Scalar, ("__sub__",), "qcoeff.Scalar.sub", "qcoeff", False),
        (qcoeff.Scalar, ("inverse",), "qcoeff.Scalar.inverse", "qcoeff", False),
        (qcoeff.Scalar, ("__eq__",), "qcoeff.Scalar.eq", "qcoeff", False),
        (qcoeff.RatFunc, ("__init__",), "qcoeff.RatFunc.new", "qcoeff", False),
    ]
    wrapped_methods = {}
    for cls, attrs, name, layer, span in methods:
        for attr in attrs:
            fn = cls.__dict__[attr]
            if fn not in wrapped_methods:     # aliases share one wrapper
                wrapped_methods[fn] = tracer.wrap(fn, name, layer, span)
            setattr(cls, attr, wrapped_methods[fn])


def trace(out_path: str, argv: list) -> int:
    tracer = Tracer()
    install(tracer)
    from qvir import cli, qcoeff, vertexcalc

    status = cli.main(argv)
    info = qcoeff.qint.cache_info()
    result = {
        "exit_status": status,
        "stats": tracer.stats,
        "layer_self_s": tracer.layer_self,
        "contraction_memo_entries": len(vertexcalc._CONTRACTION_MEMO),
        "qint_hits": info.hits,
        "qint_misses": info.misses,
        "spans": tracer.spans,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return status


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        print(repr(setup(sys.argv[2])))
    elif mode == "trace":
        raise SystemExit(trace(sys.argv[2], sys.argv[3:]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
