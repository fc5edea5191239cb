"""Self-time tracing of ``fanobase`` from outside the package.

:meth:`Tracer.install` wraps every public function and public method
defined in a ``fanobase`` module, and rebinds the wrapper at every
module attribute that refers to the original (``fanobase.cover.h0`` as
well as ``fanobase.scroll.h0``), so calls made inside the package go
through the wrappers too and nested calls yield self time: a span's
duration minus the time its child spans cover.  Spans are aggregated in
memory per label (``module.function``) as calls, self nanoseconds and
calls that raised.

A few labels also feed computed counters, derived from the arguments and
results the wrapper sees rather than counted inside the kernel:

* ``monomials_visited``: C(h+n-1, n-1) per ``h0``/``monomial_support`` call,
  the size of the exponent set those kernels enumerate at this revision;
* ``support_size`` / ``support_visited``: support elements returned by
  ``monomial_support`` over the monomials it enumerated;
* ``chain_h0_calls`` / ``walks``: ``h0`` calls made by a returning
  ``fixed_component_multiplicity`` after its rigidity check (mu + 2 per walk);
* ``infer_terms``: length of the sequences given to ``infer_ring``.
"""

import functools
import sys
import types
from math import comb
from time import perf_counter_ns

PACKAGE = "fanobase"


def _scroll_size(args):
    s, c = args[0], args[1]
    return comb(c.h + s.rank - 1, s.rank - 1) if c.h >= 0 else 0


def _observe_h0(tracer, args, result, h0_before):
    tracer.counts["monomials_visited"] += _scroll_size(args)


def _observe_support(tracer, args, result, h0_before):
    size = _scroll_size(args)
    tracer.counts["monomials_visited"] += size
    tracer.counts["support_visited"] += size
    tracer.counts["support_size"] += len(result)


def _observe_walk(tracer, args, result, h0_before):
    tracer.counts["walks"] += 1
    tracer.counts["chain_h0_calls"] += tracer.stats["scroll.h0"][0] - h0_before - 1


def _observe_infer(tracer, args, result, h0_before):
    tracer.counts["infer_terms"] += len(args[0])


OBSERVERS = {
    "scroll.h0": _observe_h0,
    "scroll.monomial_support": _observe_support,
    "scroll.fixed_component_multiplicity": _observe_walk,
    "wps.infer_ring": _observe_infer,
}


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def rebind(replacements: dict, undo: list):
    """Point every package module attribute bound to an original function at its replacement.

    ``replacements`` maps ``id(original)`` to ``(original, replacement)``;
    each change is appended to ``undo`` as ``(module, name, original)``.
    """
    for module in package_modules():
        for name, obj in list(vars(module).items()):
            original, replacement = replacements.get(id(obj), (None, None))
            if original is obj:
                undo.append((module, name, obj))
                setattr(module, name, replacement)


def restore(undo: list):
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)
    undo.clear()


class Tracer:
    def __init__(self):
        self.stats = {}  # label -> [calls, self_ns, raised]
        self.counts = {key: 0 for key in (
            "monomials_visited", "support_visited", "support_size",
            "walks", "chain_h0_calls", "infer_terms",
        )}
        self._stack = []  # nanoseconds covered by child spans, one slot per open span
        self._undo = []

    def _wrap(self, label, fn):
        stats = self.stats.setdefault(label, [0, 0, 0])
        h0_stats = self.stats.setdefault("scroll.h0", [0, 0, 0])
        stack = self._stack
        observe = OBSERVERS.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            h0_before = h0_stats[0]
            stack.append(0)
            start = perf_counter_ns()
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                elapsed = perf_counter_ns() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed - children
                stats[2] += raised
            if observe is not None:
                observe(self, args, result, h0_before)
            return result

        return traced

    def install(self):
        """Wrap the package's public callables; :meth:`uninstall` restores them."""
        replacements = {}
        for module in package_modules():
            short = module.__name__.removeprefix(PACKAGE + ".")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    replacements[id(obj)] = (obj, self._wrap(f"{short}.{name}", obj))
                elif isinstance(obj, type):
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") and isinstance(member, types.FunctionType):
                            self._undo.append((obj, attr, member))
                            setattr(obj, attr, self._wrap(f"{short}.{attr}", member))
        rebind(replacements, self._undo)

    def uninstall(self):
        restore(self._undo)

    def snapshot(self) -> dict:
        return {"stats": self.stats, "counts": self.counts}

    def merge(self, snapshot: dict):
        """Add a snapshot taken in another process (a traced CLI run)."""
        for label, values in snapshot["stats"].items():
            mine = self.stats.setdefault(label, [0, 0, 0])
            for j, v in enumerate(values):
                mine[j] += v
        for key, v in snapshot["counts"].items():
            self.counts[key] += v
