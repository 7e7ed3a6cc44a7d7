"""Spans around calls into each layer of ``unidisc``, recorded from outside.

:class:`Tracer` replaces functions at the names through which the library
calls them (``unidisc.engine.classify``, ``scipy.optimize.least_squares``,
...) with wrappers that record a span ``(name, start, end, parent, op)``.
Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its child spans, so the self times of one
operation's spans add up to the duration of its root span.
"""

import time
from collections import Counter

import numpy as np
import scipy.optimize

import unidisc.arc
import unidisc.cli
import unidisc.engine
import unidisc.sequential
import unidisc.verifier

SUCCESS_RESIDUAL = 1e-8  # max residual at which the engine accepts a solve


class Tracer:
    """Span recorder; ``op`` is the id stamped on every span recorded."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = -1
        self._stack = []
        self._saved = []

    def wrap(self, fn, name, before=None, after=None):
        """``fn`` recording a span; ``before`` may rewrite the arguments and
        ``after`` sees the result, both outside the span."""

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op)
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self):
        """Wrap every hooked name; returns the hooks whose name is missing."""
        missing = []
        for owner, attr, name, before, after in self._hooks():
            if not hasattr(owner, attr):
                missing.append(f"{owner.__name__}.{attr}")
                continue
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, before, after))
        return missing

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _hooks(self):
        counts = self.counts

        def count_residuals(args, kwargs):
            fun = args[0]

            def counted(*a, **k):
                counts["residual_evals"] += 1
                return fun(*a, **k)

            return (counted,) + tuple(args[1:]), kwargs

        def solved(args, res):
            counts["solves"] += 1
            counts["jacobian_evals"] += int(res.njev or 0)
            counts["solves_ok"] += int(np.max(np.abs(res.fun)) <= SUCCESS_RESIDUAL)

        def aux_ops(args, scheme):
            counts["aux_ops"] += len(scheme.aux_ops)

        def simulated(args, result):
            counts["runs_simulated"] += len(args[0].runs)

        def verified(args, report):
            counts["runs_simulated"] += 2 * len(args[0].runs)

        engine, cli, verifier = unidisc.engine, unidisc.cli, unidisc.verifier
        return [
            (scipy.optimize, "least_squares", "engine.synthesis",
             count_residuals, solved),
            (engine, "compile_word", "compiler.compile_word", None, None),
            (engine, "find_sequential_scheme", "sequential.scheme", None, aux_ops),
            (engine, "classify", "locality.classify", None, None),
            (unidisc.sequential, "unitary_eig", "core.unitary_eig", None, None),
            (unidisc.arc, "unitary_eig", "core.unitary_eig", None, None),
            (engine, "verify", "verifier.verify", None, verified),
            (cli, "verify", "verifier.verify", None, verified),
            (engine, "simulate", "verifier.simulate", None, simulated),
            (verifier, "simulate", "verifier.simulate", None, simulated),
            (cli, "load_protocol", "io.load", None, None),
            (cli, "load_operator", "io.load", None, None),
        ]

    def self_times_ns(self):
        """Summed self time and number of spans, per span name."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns, calls = Counter(), Counter()
        for k, (name, start, end, _, _) in enumerate(self.spans):
            self_ns[name] += end - start - child[k]
            calls[name] += 1
        return self_ns, calls

    def layer_metrics(self, n_ops):
        """Per-operation layer metrics from the recorded spans and counts."""
        self_ns, calls = self.self_times_ns()
        counts = self.counts

        def ms(name):
            return self_ns[name] / 1e6 / n_ops

        return {
            "engine.synthesis_ms": (ms("engine.synthesis"), "ms"),
            "engine.synthesis_solves": (counts["solves"] / n_ops, "count"),
            "engine.residual_evals": (counts["residual_evals"] / n_ops, "count"),
            "engine.jacobian_evals": (counts["jacobian_evals"] / n_ops, "count"),
            "engine.solve_success_ratio": (
                counts["solves_ok"] / counts["solves"] if counts["solves"] else 0.0,
                "ratio"),
            "engine.self_ms": (ms("engine.build_protocol"), "ms"),
            "compiler.compile_ms": (ms("compiler.compile_word"), "ms"),
            "compiler.compile_calls": (calls["compiler.compile_word"] / n_ops, "count"),
            "locality.classify_ms": (ms("locality.classify"), "ms"),
            "sequential.scheme_ms": (ms("sequential.scheme"), "ms"),
            "sequential.aux_ops": (counts["aux_ops"] / n_ops, "count"),
            "core.unitary_eig_ms": (ms("core.unitary_eig"), "ms"),
            "core.unitary_eig_calls": (calls["core.unitary_eig"] / n_ops, "count"),
            "verifier.verify_ms": (ms("verifier.verify"), "ms"),
            "verifier.simulate_ms": (ms("verifier.simulate"), "ms"),
            "verifier.runs_simulated": (counts["runs_simulated"] / n_ops, "count"),
            "io.load_ms": (ms("io.load"), "ms"),
            "cli.self_ms": (ms("cli.main"), "ms"),
        }
