"""The benchmark's tracer (bench/tracing.py) wraps circfun names where the
library looks them up: a module function at every module that binds it, a
method in its class's own dictionary.  A refactor that drops or moves one of
them must fail here, not only in a traced benchmark round."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import circfun as cf
from circfun.testkit import random_circulant, random_regular_poly

TRACING_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
TARGETS = [(layer, owner, attr) for layer, targets in tracing.LAYERS.items() for owner, attr in targets]


@pytest.mark.parametrize(
    "layer, owner, attr", TARGETS, ids=[f"{layer}:{owner.__name__}.{attr}" for layer, owner, attr in TARGETS]
)
def test_every_traced_name_resolves_in_its_owner(layer, owner, attr):
    assert callable(vars(owner).get(attr)), f"{layer}: {owner.__name__} has no own {attr}"


def test_installed_tracer_records_and_restores():
    # A rational evaluates channel-wise below FFT_THRESHOLD as at it.
    rng = np.random.default_rng(7)
    for d in (8, 64):
        f = cf.RationalFunction(random_regular_poly(rng, d, 2), random_regular_poly(rng, d, 1))
        z = random_circulant(rng, d)
        before = {(owner, attr): vars(owner)[attr] for _, owner, attr in TARGETS}
        tracer = tracing.Tracer()
        with tracer.installed():
            f.evaluate_with_report(z)
        assert {(owner, attr): vars(owner)[attr] for _, owner, attr in TARGETS} == before
        names = {span.name for span in tracer.spans}
        assert {"functions.evaluate", "spectral.spectrum", "spectral.from_spectrum"} <= names
