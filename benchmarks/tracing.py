"""Span recording for the traced benchmark run, from outside renege.

The traced child installs two things before it calls renege.cli.main:

- an import hook that records one "<layer>:import" span around the execution
  of each renege module, so a layer's import cost (for estimation, the scipy
  import) is measured apart from its calls;
- wrappers around the public functions of each module that the workloads
  reach, substituted for the originals in every renege module namespace, so
  calls made through ``from .x import f`` names are recorded too.

Spans are kept in memory as ``[name, start, end, parent, info]`` lists and
written out as JSON when the run ends; metrics.layer_metrics reads them.
Everything runs on one thread, which is why the child runs cli.main at
--workers 1: spans recorded in pool workers would be lost.
"""

from __future__ import annotations

import importlib.abc
import importlib.machinery
import inspect
import json
import sys
import time


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.cache_depth = 0     # > 0 while a MarkWindowCache fill is running
        self.last_cert = None    # most recent certificate returned by certified_zero

    def call(self, name: str, fn, args, kwargs, note=None):
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()
        if note is not None:
            rec[4] = note(args, kwargs, out)
        return out

    def wrap(self, name: str, fn, note=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, note)
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def _layer_of(module_name: str) -> str:
    tail = module_name.rpartition(".")[2]
    return "cli" if module_name == "renege" else tail


class _TimedLoader(importlib.abc.Loader):
    def __init__(self, inner, tracer: Tracer, name: str):
        self._inner = inner
        self._tracer = tracer
        self._name = name

    def create_module(self, spec):
        return self._inner.create_module(spec)

    def exec_module(self, module):
        self._tracer.call(self._name, self._inner.exec_module, (module,), {})


class ImportTimer(importlib.abc.MetaPathFinder):
    """Meta-path finder that times the execution of every renege module."""

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname != "renege" and not fullname.startswith("renege."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is not None and spec.loader is not None:
            spec.loader = _TimedLoader(spec.loader, self._tracer, _layer_of(fullname) + ":import")
        return spec


def install(tracer: Tracer) -> None:
    """Wrap the public functions the workloads reach (renege must be imported)."""
    from renege import cli, des, estimation, fifo_begin, fifo_end, marks, recursion

    modules = [m for n, m in list(sys.modules.items())
               if n == "renege" or n.startswith("renege.")]

    def function(module, attr, layer, make_note=None):
        fn = getattr(module, attr, None)
        if fn is None:
            return
        traced = tracer.wrap(f"{layer}:{attr}", fn, make_note(fn) if make_note else None)
        for m in modules:
            for k, v in list(vars(m).items()):
                if v is fn:
                    setattr(m, k, traced)

    def method(cls, attr, layer, note=None, around=None):
        fn = cls.__dict__.get(attr)
        if fn is None:
            return
        if around is not None:
            fn = around(fn)
        setattr(cls, attr, tracer.wrap(f"{layer}:{attr}", fn, note))

    def marks_note(args, kwargs, out):
        return [len(out[0]), 0 if tracer.cache_depth else 1]

    def cache_fill(fn):
        def counted(*args, **kwargs):
            tracer.cache_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.cache_depth -= 1
        return counted

    def cert_note(fn):
        def note(args, kwargs, out):
            if out is None:
                return None
            tracer.last_cert = out
            return [out.depth]
        return note

    def arguments(fn):
        sig = inspect.signature(fn)

        def bind(args, kwargs):
            ba = sig.bind(*args, **kwargs)
            ba.apply_defaults()
            return ba.arguments
        return bind

    def replica_note(fn):
        bind = arguments(fn)

        def note(args, kwargs, out):
            cert = tracer.last_cert
            return [bind(args, kwargs)["epoch"] - cert.epoch, cert.depth]
        return note

    def forward_note(fn):
        bind = arguments(fn)

        def note(args, kwargs, out):
            a = bind(args, kwargs)
            return [a["warmup"] + a["samples"]] if a["mode"] == "approximate" else None
        return note

    def des_note(fn):
        def note(args, kwargs, out):
            records = out[0]
            starts = sum(1 for r in records if r.service_start is not None)
            deadlines = sum(1 for r in records if r.outcome != des.OUTCOME_SERVED)
            return [len(records), len(records) + starts + deadlines]
        return note

    method(marks.MarkSource, "window_arrays", "marks", marks_note)
    for attr in ("mark_at", "shift", "substream"):
        method(marks.MarkSource, attr, "marks")
    function(marks, "source_from_config", "marks")

    function(recursion, "certified_zero", "recursion", cert_note)
    method(recursion.MarkWindowCache, "range", "recursion", around=cache_fill)

    for mod, name, triple, rows, report, loss in (
            (fifo_begin, "fifo_begin", "exact_triple_at", "exact_loss_rows",
             "loss_report_from_rows", "loss_probability_begin"),
            (fifo_end, "fifo_end", "exact_triple_end", "exact_loss_rows_end",
             "loss_report_from_rows_end", "loss_metrics_end")):
        function(mod, triple, name, replica_note)
        function(mod, rows, name)
        function(mod, report, name)
        function(mod, loss, name, forward_note)

    for attr in ("wilson", "binomial_se", "mc_aggregate"):
        function(estimation, attr, "estimation")

    function(des, "simulate", "des", des_note)

    function(cli, "run_scenario", "cli")
    function(cli, "_load_config", "cli.config")
    function(cli, "_parallel_rows", "cli.pool")
    function(cli, "_write_csv", "cli.write")
    function(cli, "_write_summary", "cli.write")
