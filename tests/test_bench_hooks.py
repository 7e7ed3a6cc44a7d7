"""The benchmark's tracer must find every call site it hooks.

``bench/tracing.py`` wraps library functions by name; a renamed function
would silently drop its layer from the traced benchmark record.  The same
hooks pin how many eigendecompositions a sequential case-IA build makes.
"""

import importlib.util
import os

import numpy as np
import pytest

import unidisc.engine
import unidisc.verifier
from unidisc.core import UnitaryOperator, random_unitary

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")
# the engine reads a build's measurement plan and certificate off one pass of
# the verifier's private halves, so it no longer imports the ``verify`` and
# ``simulate`` these two hooks wrap; closed-form verifier time shows up under
# ``engine.self_ms`` in a traced run
REMOVED_HOOKS = ["unidisc.engine.verify", "unidisc.engine.simulate"]


def _tracer_class():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


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
