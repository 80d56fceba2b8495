"""Spans and counters around the public functions of overture's modules.

The program is measured from outside: for one traced pass, every name under
which overture's modules look a traced function up (a module attribute such
as ``verifier.run``, imported by name from ``interp``, or a class attribute
such as ``Pmf.marginal``) is replaced by a wrapper that records a span, and
the originals are put back afterwards.

A span is ``[name, start_ns, end_ns, parent, op]``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``op`` the index of the
operation that made the call.  Spans stay in memory until the pass ends.
A layer's self time is its spans' durations minus the durations of their
direct children; since the run is single-threaded, children nest strictly
inside their parent, so the self times of all spans plus the time outside
every span add up to the pass's wall time exactly.
"""

import functools
import sys
import time

# Span name -> per-layer time metric (a self time, in seconds).
TIME_METRICS = {
    "prelude.expand": "prelude.expand_s",
    "ovt.parse": "ovt.parse_s",
    "ovt.format": "ovt.format_s",
    "lang.validate": "lang.validate_s",
    "dist.deal": "dist.deal_s",
    "engine.fold": "engine.fold_s",
    "engine.project": "engine.project_s",
    "interp.run": "interp.run_s",
    "dist.bd": "dist.bd_s",
    "dist.pmf": "dist.pmf_s",
    "dist.format": "dist.format_s",
    "verifier.check": "verifier.check_s",
    "verifier.adversaries": "verifier.adversaries_s",
    "verifier.adv_inputs": "verifier.adv_inputs_s",
    "verifier.format": "verifier.format_s",
    "datalog.export": "datalog.export_s",
    "datalog.lhm": "datalog.lhm_s",
    "cli.main": "cli.self_s",
}

COUNT_METRICS = (
    "dist.deal_rows", "engine.fold_calls", "engine.fold_rows",
    "engine.project_calls", "engine.project_vars", "interp.runs",
    "dist.support", "verifier.strategies", "verifier.subset_tests",
    "datalog.lhm_calls",
)

CHECKS = ("check_passive_correct", "check_nimo", "check_gradual_release",
          "check_and_gate_tactic", "check_gmw_invariant",
          "check_cheating_detection", "check_integrity")

PMF_METHODS = ("marginal", "conditional", "independent_witness",
               "cond_det_witness", "cond_uni_witness", "cond_sep_witness",
               "with_global_views", "mixed_with")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.op = -1
        self.deal_depth = 0
        self.adv_depth = 0
        self._restore = []

    # --- spans -------------------------------------------------------------

    def open(self, name) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter_ns()
        if self.stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def span(self, name, fn, after=None):
        """Wrapper of fn recording one span per call; after(args, result)
        updates counters."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    def add(self, counter, n):
        self.counts[counter] += n

    # --- installation --------------------------------------------------------

    def install(self):
        """Put wrappers under every name overture looks the traced
        functions up by; uninstall() puts the originals back."""
        from overture import cli, datalog, dist, engine, interp, lang, ovt, prelude, verifier
        from overture.dist import CondTable, Pmf, Preprocessing

        def count(counter):
            return lambda args, result: self.add(counter, 1)

        def fold_done(args, table):
            self.add("engine.fold_calls", 1)
            self.add("engine.fold_rows", table.nrows)

        def project_done(args, result):
            self.add("engine.project_calls", 1)
            nvars = len(args[1])
            if nvars > self.counts["engine.project_vars"]:
                self.counts["engine.project_vars"] = nvars

        def support(args, result):
            if isinstance(result, Pmf):
                self.add("dist.support", len(result.weights))
            elif isinstance(result, CondTable):
                self.add("dist.support", sum(len(r) for r in result.rows.values()))

        def strategies(args, result):
            self.add("verifier.strategies", len(result))

        functions = [
            (prelude.expand, "prelude.expand", None),
            (ovt.parse_protocol, "ovt.parse", None),
            (ovt.format_protocol, "ovt.format", None),
            (lang.validate, "lang.validate", None),
            (engine.fold, "engine.fold", fold_done),
            (engine.project_counts, "engine.project", project_done),
            (interp.run, "interp.run", count("interp.runs")),
            (interp.run_adv, "interp.run", count("interp.runs")),
            (dist.bd, "dist.bd", None),
            (verifier.projected_bd, "dist.bd", None),
            (dist.format_pmf, "dist.format", None),
            (verifier.enumerate_adversaries, "verifier.adversaries", strategies),
            (datalog.to_datalog, "datalog.export", None),
            (datalog.lhm, "datalog.lhm", count("datalog.lhm_calls")),
            (cli.main, "cli.main", None),
        ] + [(getattr(verifier, c), "verifier.check", None) for c in CHECKS]
        wrappers = [(fn, self.span(name, fn, after)) for fn, name, after in functions]
        wrappers.append((verifier.adversarial_inputs,
                         self._adv_inputs(verifier.adversarial_inputs)))
        wrapped = {id(fn): (fn, wrapper) for fn, wrapper in wrappers}
        for mod in [m for name, m in sys.modules.items()
                    if name == "overture" or name.startswith("overture.")]:
            for attr, value in list(vars(mod).items()):
                entry = wrapped.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(mod, attr, entry[1])

        for name in PMF_METHODS:
            self._patch(Pmf, name, self.span("dist.pmf", getattr(Pmf, name), support))
        self._patch(Pmf, "independent", self._independent(Pmf.independent))
        self._patch(verifier.Verdict, "format",
                    self.span("verifier.format", verifier.Verdict.format))
        for cls in _subclasses(Preprocessing):
            for name in ("columns", "memories"):
                if name in vars(cls):
                    self._patch(cls, name, self._deal(name, vars(cls)[name]))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # --- wrappers with their own bookkeeping -----------------------------------

    def _adv_inputs(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.adv_depth += 1
            idx = tracer.open("verifier.adv_inputs")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                tracer.adv_depth -= 1

        return traced

    def _independent(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.adv_depth:
                tracer.add("verifier.subset_tests", 1)
            return fn(*args, **kwargs)

        return traced

    def _deal(self, name, fn):
        """Deal spans; rows count once, where the caller receives them
        (memories() of a columnar deal builds its columns first)."""
        tracer = self

        def enter():
            outer = tracer.deal_depth == 0
            tracer.deal_depth += 1
            return outer, tracer.open("dist.deal")

        def leave(idx):
            tracer.close(idx)
            tracer.deal_depth -= 1

        if name == "columns":
            @functools.wraps(fn)
            def columns(preproc):
                outer, idx = enter()
                try:
                    cols = fn(preproc)
                finally:
                    leave(idx)
                if outer:
                    tracer.add("dist.deal_rows", preproc.count())
                return cols

            return columns

        @functools.wraps(fn)
        def memories(preproc):
            outer, idx = enter()
            try:
                it = iter(fn(preproc))
            finally:
                leave(idx)
            return _traced_iter(tracer, it, outer)

        return memories


def _traced_iter(tracer, it, outer):
    """Each resumption of a deal's memory iterator is one dist.deal span."""
    while True:
        tracer.deal_depth += 1
        idx = tracer.open("dist.deal")
        try:
            item = next(it)
        except StopIteration:
            return
        finally:
            tracer.close(idx)
            tracer.deal_depth -= 1
        if outer:
            tracer.add("dist.deal_rows", 1)
        yield item


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out += _subclasses(sub)
    return out


def self_times(spans, start_ns, end_ns) -> dict:
    """Self time per metric, in ns, plus 'bench.outside_s' for the part of
    [start_ns, end_ns] that no span covers."""
    child = [0] * len(spans)
    top = 0
    for name, s, e, parent, _ in spans:
        if parent < 0:
            top += e - s
        else:
            child[parent] += e - s
    out = dict.fromkeys(TIME_METRICS.values(), 0)
    for (name, s, e, _, _), c in zip(spans, child):
        out[TIME_METRICS[name]] += e - s - c
    out["bench.outside_s"] = (end_ns - start_ns) - top
    return out
