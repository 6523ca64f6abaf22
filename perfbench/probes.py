"""Timing wrappers installed from outside ``fairpc``, at the names callers look up.

Nothing inside ``src/fairpc`` is changed: each probe replaces one attribute
of a module or class for the duration of a ``with installed(...)`` block and
puts the original object back afterwards.

A span's *self* time is its duration minus the time its traced children
cover. A probe's own bookkeeping (the optional ``after`` hook) is charged to
the child, so it never inflates a parent's self time.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass
class Span:
    total: float = 0.0   # summed duration of every call, in seconds
    child: float = 0.0   # part of ``total`` covered by traced children
    calls: int = 0


@dataclass
class Tracer:
    """Spans and counters collected by the probes of one process."""

    spans: dict[str, Span] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    _stack: list[list[float]] = field(default_factory=list)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` timed as span ``name``; ``after(tracer, result)`` runs untimed."""
        stack = self._stack
        span = self.spans.setdefault(name, Span())

        def probe(*args, **kwargs):
            covered = [0.0]
            stack.append(covered)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                span.total += t1 - t0
                span.child += covered[0]
                span.calls += 1
            if after is not None:
                after(self, result)
            if stack:
                stack[-1][0] += time.perf_counter() - t0
            return result

        probe.__wrapped__ = fn
        return probe

    def export(self) -> dict:
        return {
            "spans": {k: dataclasses.asdict(v) for k, v in self.spans.items()},
            "counts": dict(self.counts),
        }


# ---- hooks: counts taken from a probed call's result, outside its span ----

def _count_json(tracer: Tracer, text: str) -> None:
    tracer.count("cli.json_bytes", len(text.encode("utf-8")))


def _count_matrix(tracer: Tracer, standardized) -> None:
    matrix = standardized[0].matrix
    nbytes = sum(
        v.nbytes for f in dataclasses.fields(matrix)
        if isinstance(v := getattr(matrix, f.name), np.ndarray)
    )
    tracer.count("matrix.nnz", matrix.nnz)
    tracer.count("matrix.bytes", nbytes)


def _count_clipped(tracer: Tracer, pair) -> None:
    tracer.count("regularization.clipped", int(np.count_nonzero(pair.truncated == 1.0)))
    tracer.count("regularization.evaluated", pair.truncated.size)


def targets(traced: bool) -> list[tuple[object, str, str, Callable | None]]:
    """(owner, attribute, span name, hook) for every probe of one mode.

    Untraced runs probe only the once-per-run calls ``run_cli`` makes; the
    traced run adds the per-iteration functions and both finalizers, in
    every module that imports them.
    """
    from fairpc import cli, covering, packing, regularization, rounds

    out = [
        (cli, "read_matrix_market", "matrix.read", None),
        (cli, "standardize", "problem.standardize", _count_matrix if traced else None),
        (cli, "solve_packing", "solve.packing", None),
        (cli, "solve_covering", "solve.covering", None),
        (cli, "run_distributed", "solve.rounds", None),
        (cli, "emit_json", "cli.emit_json", _count_json if traced else None),
    ]
    if traced:
        kernel = regularization.GradientKernel
        out += [
            (cli, "emit_trace", "cli.emit_trace", None),
            (packing, "step", "packing.step", None),
            (packing.PackingRunRecorder, "record", "packing.record", None),
            (packing, "finalize_packing", "packing.finalize", None),
            (rounds, "finalize_packing", "packing.finalize", None),
            (covering, "step_covering", "covering.step", None),
            (covering, "finalize_covering", "covering.finalize", None),
            (rounds, "finalize_covering", "covering.finalize", None),
            (rounds, "local_update", "rounds.local_update", None),
            (kernel, "evaluate", "regularization.evaluate", _count_clipped),
            (kernel, "loads_of", "regularization.loads_of", None),
            (kernel, "f_r", "regularization.f_r", None),
        ]
    return out


@contextmanager
def installed(tracer: Tracer, traced: bool):
    """Install the probes of one mode and restore every original on exit."""
    probes = targets(traced)
    originals = [vars(owner)[attr] for owner, attr, _, _ in probes]
    try:
        for (owner, attr, name, hook), fn in zip(probes, originals):
            probe = tracer.wrap(name, fn, hook)
            if attr == "emit_json":
                probe = _outermost_only(owner, attr, probe, fn)
            setattr(owner, attr, probe)
        yield tracer
    finally:
        for (owner, attr, _, _), fn in zip(probes, originals):
            setattr(owner, attr, fn)


def _outermost_only(owner, attr: str, probe: Callable, original: Callable) -> Callable:
    """Time only the outermost call of a self-recursive module function.

    ``emit_json`` recurses through its module global once per JSON value;
    the original is put back in place for the duration of the outer call so
    the recursion costs nothing extra.
    """
    def outer(*args, **kwargs):
        setattr(owner, attr, original)
        try:
            return probe(*args, **kwargs)
        finally:
            setattr(owner, attr, outer)

    outer.__wrapped__ = original
    return outer
