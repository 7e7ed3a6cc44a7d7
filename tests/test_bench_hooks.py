"""The benchmark's tracer must find every call site it hooks.

``bench/tracing.py`` wraps library functions by name; a renamed function
would silently drop its layer from the traced benchmark record.
"""

import importlib.util
import os

import unidisc.verifier

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py")


def _tracer_class():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_installs_every_hook():
    original = unidisc.verifier.simulate
    tracer = _tracer_class()()
    try:
        assert tracer.install() == []
        assert unidisc.verifier.simulate is not original
    finally:
        tracer.uninstall()
    assert unidisc.verifier.simulate is original
