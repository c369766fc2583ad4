"""The benchmark's tracer must find every target it wraps and leave psf as it was.

``perfbench/tracing.py`` names library functions by module and
attribute; a renamed or deleted target would crash every benchmark run,
so these checks load the tracer as it is and resolve its targets.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

# every psf module the benchmark loads, so the tracer finds their bindings
import psf
import psf.buildscript
import psf.cli
import psf.corpus
import psf.identities

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("psf_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _psf_globals():
    """Every binding a tracer may touch: psf module globals and class attributes."""
    out = {}
    for key, module in list(sys.modules.items()):
        if key == "psf" or key.startswith("psf."):
            for name, value in vars(module).items():
                out[key, name] = value
                if isinstance(value, type) and value.__module__ == key:
                    for attr, member in vars(value).items():
                        out[key, f"{name}.{attr}"] = member
    return out


def test_every_target_resolves():
    tracing = _tracing()
    for name, module_name, attr in tracing.TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(module, cls_name)), name
        else:
            assert callable(getattr(module, attr, None)), name


def test_install_then_uninstall_restores_every_binding():
    tracing = _tracing()
    before = _psf_globals()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert psf.buildscript.random_admissible is not before["psf.buildscript",
                                                                 "random_admissible"]
    finally:
        tracer.uninstall()
    after = _psf_globals()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
