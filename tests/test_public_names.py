"""Every exported name resolves, and so does every function the benchmark times.

bench/layers.py wraps spincg functions by module and name, so a route moved
or renamed without it would otherwise break only the benchmark's tracing.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import spincg

LAYERS_FILE = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def test_exported_and_benchmark_layer_names_resolve():
    missing = [f"spincg.{name}" for name in spincg.__all__ if not hasattr(spincg, name)]
    spec = importlib.util.spec_from_file_location("_bench_layers", LAYERS_FILE)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.LAYERS
    for _, _, _, module_name, names in layers.LAYERS:
        module = importlib.import_module(f"spincg.{module_name}")
        for name in module.__all__ if names is None else names:
            if not hasattr(module, name):
                missing.append(f"spincg.{module_name}.{name}")
    assert missing == []
