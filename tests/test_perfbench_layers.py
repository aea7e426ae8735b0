"""Every target of the per-layer benchmark probe names a live entry point.

``perfbench/layers.py`` wraps program entry points by name — class methods,
module functions and ``ARRAY_COLORING_STACK_KERNELS`` entries — to time each
layer of the routing pipeline.  A renamed or deleted entry point would
otherwise surface only when the benchmark runs; these tests resolve every
target the way ``LayerProbe._patch`` looks it up, and check that installing
and removing the probe leaves every entry point as it was.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from repro.obs import Tracer

LAYERS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = load_layers()
TARGETS = [
    (module_name, qualname)
    for targets in LAYERS.LAYERS.values()
    for module_name, qualname in targets
]


def lookup(module_name: str, qualname: str):
    """The object ``LayerProbe._patch`` wraps for one target."""
    module = importlib.import_module(module_name)
    if "[" in qualname:
        table, key = qualname[:-1].split("[")
        return getattr(module, table)[key]
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        return vars(getattr(module, cls_name))[attr]
    return getattr(module, qualname)


@pytest.mark.parametrize(
    "module_name,qualname", TARGETS, ids=[f"{m}:{q}" for m, q in TARGETS]
)
def test_probe_target_resolves(module_name, qualname):
    target = lookup(module_name, qualname)
    assert callable(target) or isinstance(target, property), (module_name, qualname)


def test_probe_install_and_uninstall_restore_every_target():
    before = [lookup(*target) for target in TARGETS]
    with LAYERS.LayerProbe(Tracer()):
        wrapped = [lookup(*target) for target in TARGETS]
    assert all(a is not b for a, b in zip(before, wrapped))
    assert all(a is lookup(*target) for a, target in zip(before, TARGETS))
