"""Spans and counts around the package's public calls, for the traced run.

The library is not modified: :func:`instrument` swaps every module-level
reference to a traced function for a wrapper that records a span, and puts
the originals back on exit.  Spans are kept in memory as
``[op, id, parent, name, start_ns, end_ns]`` and written out when the run
ends.  A span's layer is the module part of its name; a layer's self time is
its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import types
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

import bochner_bounds as bb
from bochner_bounds import cli, gridfn

LAYERS = ("cli", "jsonio", "gridfn", "hypotheses", "bounds", "witness")

# (module, function) pairs wrapped wherever the package refers to them
TRACED = (
    ("cli", "main"),
    ("cli", "run"),
    ("jsonio", "dumps"),
    ("gridfn", "gridfunction_from_dict"),
    ("gridfn", "gridfunction_to_dict"),
    ("gridfn", "integrate_vector"),
    ("gridfn", "integrate_norm"),
    ("gridfn", "evaluate_many"),
    ("hypotheses", "hypothesis_from_dict"),
    ("hypotheses", "check"),
    ("bounds", "certify"),
    ("bounds", "bound_report_to_dict"),
    ("witness", "generate"),
    ("witness", "tightness"),
    ("witness", "make_witness"),
)
# spans that are not plain function wrappers
JSON_LOAD = "cli.json_load"  # the json.load inside cli._load_document
GRID_VALIDATE = "gridfn.GridFunction"  # GridFunction.__post_init__
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in TRACED) + (JSON_LOAD, GRID_VALIDATE)

COUNTS = (
    "cli.bytes_in",
    "jsonio.bytes_out",
    "gridfn.nodes",
    "gridfn.quad_points_computed",
    "hypotheses.checked_points",
    "witness.trials",
)


def quad_points(f, rule) -> int:
    """Sample count of one integral, from the rule semantics in the gridfn docs.

    Labelled *computed*: it restates the documented grid, it is not read
    from the library.
    """
    n = f.nodes.size
    if f.interpolation == "constleft":
        return n - 1
    panels = n - 1
    if rule.kind == "composite-simpson":
        h = f.nodes[1:] - f.nodes[:-1]
        uniform = float(abs(h - h[0]).max()) <= 1e-12 * max(1.0, abs(f.nodes[-1] - f.nodes[0]))
        if rule.refinement == 1 and uniform and panels >= 2:
            return n
        m = max(2, rule.refinement + rule.refinement % 2)
    else:
        m = rule.refinement
    return panels * m + 1


def _rule_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("rule", gridfn.DEFAULT_RULE)


def _count_quad(counts, args, kwargs, out):
    counts["gridfn.quad_points_computed"] += quad_points(args[0], _rule_arg(args, kwargs))


def _count_checked(counts, args, kwargs, out):
    counts["hypotheses.checked_points"] += out.checked_points


def _count_trials(counts, args, kwargs, out):
    counts["witness.trials"] += out.trials


def _count_bytes_out(counts, args, kwargs, out):
    counts["jsonio.bytes_out"] += len(out.encode("utf-8"))


def _count_bytes_in(counts, args, kwargs, out):
    counts["cli.bytes_in"] += os.fstat(args[0].fileno()).st_size


def _count_nodes(counts, args, kwargs, out):
    counts["gridfn.nodes"] += args[0].nodes.size


COUNTERS = {
    "gridfn.integrate_vector": _count_quad,
    "gridfn.integrate_norm": _count_quad,
    "hypotheses.check": _count_checked,
    "witness.tightness": _count_trials,
    "jsonio.dumps": _count_bytes_out,
}


class Tracer:
    """In-memory span recorder; records only while an op is open."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.ops = 0
        self._stack: list[int] = []

    @contextmanager
    def op(self):
        """Root span of one timed op; library spans nest under it."""
        rec = [self.ops, len(self.spans), None, "op", perf_counter_ns(), 0]
        self.spans.append(rec)
        self._stack.append(rec[1])
        try:
            yield
        finally:
            rec[5] = perf_counter_ns()
            self._stack.clear()
            self.ops += 1

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            rec = [self.ops, len(spans), stack[-1], name, perf_counter_ns(), 0]
            spans.append(rec)
            stack.append(rec[1])
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[5] = perf_counter_ns()
                stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, out)
            return out

        return traced

    # ------------------------------------------------------------ summary

    def summary(self) -> dict:
        """Per-op means as name -> (value, unit): ``<span>_ms``, counts,
        ``<layer>.self_ms`` and ``trace.op_ms``."""
        ops = max(self.ops, 1)
        total = Counter()
        child = Counter()
        eval_under_vector = 0
        for _, _, parent, name, start, end in self.spans:
            dur = end - start
            total[name] += dur
            if parent is not None:
                child[parent] += dur
                if name == "gridfn.evaluate_many" and self.spans[parent][3] == "gridfn.integrate_vector":
                    eval_under_vector += dur
        self_ns = defaultdict(int)
        for _, sid, _, name, start, end in self.spans:
            self_ns[name.split(".")[0]] += end - start - child[sid]

        def ms(ns):
            return ns / 1e6 / ops, "ms"

        out = {}
        for name in SPAN_NAMES:
            if name == "gridfn.evaluate_many":
                out[f"{name}_ms"] = ms(eval_under_vector)
            else:
                out[f"{name}_ms"] = ms(total[name])
        out["gridfn.quad_grid_ms"] = ms(total["gridfn.integrate_vector"] - eval_under_vector)
        for name in COUNTS:
            out[name] = self.counts[name] / ops, "bytes" if ".bytes_" in name else "count"
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = ms(self_ns[layer])
        out["trace.op_ms"] = ms(total["op"])
        return out

    def write(self, path: Path) -> None:
        keys = ("op", "id", "parent", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def _package_modules() -> list:
    mods = [bb]
    for info in pkgutil.iter_modules(bb.__path__):
        mods.append(importlib.import_module(f"bochner_bounds.{info.name}"))
    return mods


def _json_proxy(tracer: Tracer, real_json):
    """Stand-in for the ``json`` module seen by ``cli``, with a traced ``load``."""
    proxy = types.SimpleNamespace(**{k: v for k, v in vars(real_json).items() if not k.startswith("__")})
    proxy.load = tracer.wrap(JSON_LOAD, real_json.load, _count_bytes_in)
    return proxy


@contextmanager
def instrument(tracer: Tracer):
    """Route the package's public calls through ``tracer`` for the duration."""
    modules = _package_modules()
    undo = []
    for mod_name, fn_name in TRACED:
        orig = getattr(importlib.import_module(f"bochner_bounds.{mod_name}"), fn_name)
        name = f"{mod_name}.{fn_name}"
        wrapper = tracer.wrap(name, orig, COUNTERS.get(name))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    grid_cls = gridfn.GridFunction
    post_init = grid_cls.__post_init__
    undo.append((grid_cls, "__post_init__", post_init))
    grid_cls.__post_init__ = tracer.wrap(GRID_VALIDATE, post_init, _count_nodes)
    undo.append((cli, "json", cli.json))
    cli.json = _json_proxy(tracer, cli.json)
    try:
        yield tracer
    finally:
        for obj, attr, orig in reversed(undo):
            setattr(obj, attr, orig)
