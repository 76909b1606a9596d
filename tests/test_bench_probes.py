"""The bench's layer tracer patches kbcat functions by name from outside
the package; a probe whose target no longer resolves is skipped and its
per-layer metrics read as missing. Check here that every target still
resolves, so renaming a probed function fails a test instead."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


def _load_layertrace():
    spec = importlib.util.spec_from_file_location("bench_layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


layertrace = _load_layertrace()


@pytest.mark.parametrize(
    "target", sorted({t for probe in layertrace.PROBES for t in probe.targets})
)
def test_probe_target_resolves(target):
    owner, attr, fn = layertrace._resolve(target)
    assert callable(fn) and getattr(owner, attr) is fn
