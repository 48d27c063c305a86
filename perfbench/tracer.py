"""Traced runs: spans and counters around the calls into each layer.

Everything is recorded from outside the program.  ``install`` replaces
public functions and methods of ``mhag`` with wrappers, rebinding every
module-level name that refers to the original (``suites``, ``cli``,
``cograded`` and ``quasitri`` import these names directly).  A span keeps
its parent on a stack; a layer's self time is its duration minus the
time of the spans it caused.  Counts and repeat ratios come from the
same wrappers.  Spans stay in memory; ``metrics`` summarises them when
the round ends.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Tuple

# Checks whose wall time is reported on its own.
NAMED_CHECKS = ["coassociativity", "delta-multiplicative", "dcp-associativity",
                "xi-comul-compat", "qt-coproduct-first", "qt-intertwine",
                "pairing-duality"]

# Span name -> whether the repeat ratio of its (grading, arguments) is kept.
FUNCTION_SPANS = {
    ("crossed", "twist_map"): True,
    ("crossed", "b_embed_left"): True,
    ("crossed", "dcp_mul"): True,
    ("cograded", "comul_covered"): True,
    ("cograded", "graded_antipode"): False,
    ("cograded", "crossing_apply"): False,
    ("quasitri", "r_apply"): True,
}

FP_OPERATORS = ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                "__rmul__", "__neg__", "__truediv__", "__rtruediv__",
                "inverse"]

# Metric name -> (unit, better); the order of the per-layer output.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "suites.checks": ("count", "higher"),
    "suites.slowest_check_s": ("s", "lower"),
    **{f"suites.check_s.{a}": ("s", "lower") for a in NAMED_CHECKS},
    **{f"{m}.{f}.{k}": u
       for (m, f), keyed in FUNCTION_SPANS.items()
       for k, u in [("calls", ("count", "lower")), ("self_s", ("s", "lower"))]
       + ([("repeat_ratio", ("ratio", "lower"))] if keyed else [])},
    "quasitri.residuals.self_s": ("s", "lower"),
    "pairing.act.calls": ("count", "lower"),
    "pairing.act.self_s": ("s", "lower"),
    "mha.t_pair.calls": ("count", "lower"),
    "mha.t_pair.self_s": ("s", "lower"),
    "mha.mul.calls": ("count", "lower"),
    "mha.mul.self_s": ("s", "lower"),
    "linear.lincomb_allocs": ("count", "lower"),
    "scalars.fp_ops": ("count", "lower"),
    "groups.aut_derivations": ("count", "lower"),
    "oracle.self_s": ("s", "lower"),
    "sampling.draws": ("count", "lower"),
    "session.decode_s": ("s", "lower"),
    "cli.render_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "wall.run_s": ("s", "lower"),
}

# Per-layer metrics that run.py fills in from the rounds, not the tracer.
FROM_ROUNDS = ("session.decode_s", "trace.overhead_s", "wall.run_s")

# Per-layer metrics that are counts: two traced rounds of one seed must
# agree on them exactly.
EXACT = [m for m in PER_LAYER
         if m.endswith((".calls", ".repeat_ratio", "lincomb_allocs", "fp_ops",
                        "aut_derivations", "draws", "suites.checks"))]


def _arg_key(v):
    terms = getattr(v, "terms", None)
    if isinstance(terms, dict):
        return frozenset(terms.items())
    return v


class Tracer:
    def __init__(self):
        self.stack: List[float] = []     # child time of each open span
        self.spans: Dict[str, List] = {}  # name -> [calls, self_s]
        self.repeats: Dict[str, List[int]] = {}
        self.counts: Dict[str, List[int]] = {}
        self.checks: List[Tuple[str, float]] = []

    # -- wrappers -----------------------------------------------------------
    def span(self, name: str, fn: Callable, keyed: bool = False) -> Callable:
        stat = self.spans.setdefault(name, [0, 0.0])
        stack = self.stack
        clock = time.perf_counter
        seen = set()
        rep = self.repeats.setdefault(name, [0]) if keyed else None

        def wrapper(*args, **kwargs):
            t0 = clock()
            if rep is not None:
                key = (tuple(_arg_key(a) for a in args[1:]),
                       tuple((k, _arg_key(v))
                             for k, v in sorted(kwargs.items())))
                if key in seen:
                    rep[0] += 1
                else:
                    seen.add(key)
            t1 = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                t2 = clock()
                stat[0] += 1
                stat[1] += (t2 - t1) - stack.pop()
                if stack:
                    stack[-1] += t2 - t0   # the key's cost counts nowhere

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def timed_check(self, axiom: str, run: Callable) -> Callable:
        stack = self.stack
        clock = time.perf_counter

        def wrapper():
            t0 = clock()
            stack.append(0.0)
            try:
                return run()
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1] += dt
                self.checks.append((axiom, dt))

        return wrapper

    # -- summary ------------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {"suites.checks": len(self.checks),
                                 "suites.slowest_check_s": max(
                                     (dt for _, dt in self.checks),
                                     default=0.0)}
        for axiom in NAMED_CHECKS:
            out[f"suites.check_s.{axiom}"] = sum(
                (dt for a, dt in self.checks if a == axiom), 0.0)
        for name, (calls, self_s) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            if name in self.repeats:
                out[f"{name}.repeat_ratio"] = (self.repeats[name][0] / calls
                                               if calls else 0.0)
        out["cli.render_s"] = out.pop("cli.render.self_s", 0.0)
        for name, (n,) in self.counts.items():
            out[name] = n
        return {k: out.get(k, 0.0 if unit == "s" else 0)
                for k, (unit, _) in PER_LAYER.items()
                if k not in FROM_ROUNDS}


def _rebind(orig: Callable, new: Callable, modules) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, new)


def install() -> Tracer:
    """Wrap the layers of the ``mhag`` package (importing it loads every
    submodule)."""
    from mhag import cli, groups, linear, mha, oracle, pairing, quasitri
    from mhag import sampling, scalars, suites

    tr = Tracer()
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "mhag" or n.startswith("mhag.")]

    for (mod_name, fn_name), keyed in FUNCTION_SPANS.items():
        orig = getattr(sys.modules[f"mhag.{mod_name}"], fn_name)
        _rebind(orig, tr.span(f"{mod_name}.{fn_name}", orig, keyed), modules)

    for name, fn in list(vars(quasitri).items()):
        if (callable(fn) and name.startswith(("qt_", "w_"))
                and "residual" in name
                and getattr(fn, "__module__", None) == "mhag.quasitri"):
            _rebind(fn, tr.span("quasitri.residuals", fn), modules)
    for name, fn in list(vars(oracle).items()):
        if (callable(fn) and not name.startswith("_")
                and getattr(fn, "__module__", None) == "mhag.oracle"):
            _rebind(fn, tr.span("oracle", fn), modules)
    # Only the cli's own bindings: suites renders counterexamples with the
    # same helpers, which is check work, not output rendering.
    for name in ("_fmt", "_lab", "grading_to_json", "_dump"):
        setattr(cli, name, tr.span("cli.render", getattr(cli, name)))

    pairing.Pairing.act = tr.span("pairing.act", pairing.Pairing.act)
    mha.MhaInstance.t_pair = tr.span("mha.t_pair", mha.MhaInstance.t_pair)
    mha.MhaInstance.mul = tr.span("mha.mul", mha.MhaInstance.mul)

    linear.LinComb.__init__ = tr.counter("linear.lincomb_allocs",
                                         linear.LinComb.__init__)
    for op in FP_OPERATORS:
        setattr(scalars.FpElement, op,
                tr.counter("scalars.fp_ops", getattr(scalars.FpElement, op)))
    for op in ("compose", "inverse"):
        setattr(groups.Automorphism, op,
                tr.counter("groups.aut_derivations",
                           getattr(groups.Automorphism, op)))
    sampling.SplitMix64.next_u64 = tr.counter("sampling.draws",
                                              sampling.SplitMix64.next_u64)

    orig_axioms = suites.suite_axioms

    def suite_axioms(S, suite, *args, **kwargs):
        return [(name, tr.timed_check(name, run))
                for name, run in orig_axioms(S, suite, *args, **kwargs)]

    _rebind(orig_axioms, suite_axioms, modules)
    return tr
