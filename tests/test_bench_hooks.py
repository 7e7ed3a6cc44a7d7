"""The benchmark's tracer must find every call site it hooks.

``bench/tracing.py`` wraps library functions by name; a renamed function
would silently drop its layer from the traced benchmark record.  The same
hooks pin how many eigendecompositions a sequential case-IA build makes,
and spies pin the decompositions of each closed-form case of the
benchmark's list.
"""

import importlib.util
import os
from collections import Counter

import numpy as np
import pytest

import unidisc.arc
import unidisc.engine
import unidisc.sequential
import unidisc.verifier
from unidisc.core import UnitaryOperator, random_unitary

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
TRACING = os.path.join(BENCH, "tracing.py")
# builds no longer compute the case-III label, so the engine no longer
# imports the ``compile_word`` of the first hook; it reads a build's
# measurement plan and certificate off one pass of the verifier's private
# halves, so it no longer imports the ``verify`` and ``simulate`` the other
# two wrap, and closed-form verifier time shows up under ``engine.self_ms``
# in a traced run
REMOVED_HOOKS = ["unidisc.engine.compile_word", "unidisc.engine.verify",
                 "unidisc.engine.simulate"]


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer_class():
    return _bench_module("tracing").Tracer


def test_tracer_installs_every_hook():
    original = unidisc.verifier.simulate
    tracer = _tracer_class()()
    try:
        assert tracer.install() == REMOVED_HOOKS
        assert unidisc.verifier.simulate is not original
    finally:
        tracer.uninstall()
    assert unidisc.verifier.simulate is original


@pytest.mark.parametrize("box_uses", [2, 32])
def test_case_ia_build_records_two_eigendecompositions(box_uses):
    # one of A = U^dag V, shared by the run count and the arc order, and one
    # of the final W: none per aux step
    a, b = random_unitary(2, 5).matrix, random_unitary(2, 6).matrix
    arc = np.pi / (box_uses - 0.5)
    w = np.diag([1.0, np.exp(1j * arc)])
    u = UnitaryOperator(np.kron(a, b), (2, 2))
    v = UnitaryOperator(np.kron(a @ w, b), (2, 2))
    tracer = _tracer_class()()
    try:
        assert tracer.install() == REMOVED_HOOKS
        proto = unidisc.engine.build_protocol(u, v)
    finally:
        tracer.uninstall()
    assert proto.case_label == "IA"
    assert len(proto.runs) == box_uses
    eigs = [span for span in tracer.spans if span[0] == "core.unitary_eig"]
    assert len(eigs) == 2


# (unitary_eig, np.linalg.svd) calls per build of each closed-form case, as
# they were while the one-use IC input had a builder of its own and every
# scheme made U^dag exactly unitary, aux ops or not
EARLIER_CALLS = {"IA": (2, 11), "IA-one-use": (1, 10), "IB": (0, 9),
                 "IC-forward": (1, 9), "IC-wrap": (3, 10)}


def test_closed_form_builds_make_no_more_decompositions(monkeypatch):
    # one list of the closed-form workload: the same eigendecompositions
    # per case, and no more SVDs
    calls = Counter()

    def counting(fn, key):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    for module in (unidisc.arc, unidisc.sequential):
        monkeypatch.setattr(module, "unitary_eig", counting(module.unitary_eig, "eig"))
    monkeypatch.setattr(np.linalg, "svd", counting(np.linalg.svd, "svd"))
    seen = set()
    for pair in _bench_module("workloads").closed_form_pairs(1):
        calls.clear()
        dims = (pair.d, pair.d)
        proto = unidisc.engine.build_protocol(UnitaryOperator(pair.u, dims),
                                              UnitaryOperator(pair.v, dims))
        kind = proto.case_label
        if kind == "IA" and proto.box_uses == 1:
            kind = "IA-one-use"
        elif kind == "IC":
            kind = "IC-forward" if proto.notes.startswith("one forward run") else "IC-wrap"
        eig, svd = EARLIER_CALLS[kind]
        assert calls["eig"] == eig and calls["svd"] <= svd, (kind, dict(calls))
        seen.add(kind)
    assert seen == set(EARLIER_CALLS)
