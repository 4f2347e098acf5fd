"""Shared fixtures: a small rendered benchmark reused across test modules.

Rendering is the slow part of the suite, so the corpus is session-scoped and
everything downstream (samples, folds, models) derives from it.

Hypothesis runs without its example database, and its other on-disk cache
(constants harvested from the source) goes to a temporary directory removed
at exit, so the suite writes no ``.hypothesis/`` into the checkout.
Generation stays random and every test keeps its own ``max_examples``.
"""

import atexit
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings

from earshot.dataset import extract_samples, load_manifest
from earshot.features import PipelineConfig
from earshot.synth import make_benchmark

settings.register_profile("earshot", database=None)
settings.load_profile("earshot")
if "HYPOTHESIS_STORAGE_DIRECTORY" not in os.environ:
    _storage = tempfile.mkdtemp(prefix="earshot-hypothesis-")
    atexit.register(shutil.rmtree, _storage, ignore_errors=True)
    os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = _storage


@pytest.fixture(scope="session")
def default_config():
    return PipelineConfig()


@pytest.fixture(scope="session")
def bench_dir(tmp_path_factory):
    """Manifest path of a 4-per-class type-A corpus (12 recordings)."""
    out = tmp_path_factory.mktemp("bench_a")
    return make_benchmark(out, per_class=4, env_type="A", seed=202)


@pytest.fixture(scope="session")
def bench_manifest(bench_dir):
    return load_manifest(bench_dir)


@pytest.fixture(scope="session")
def bench_samples(bench_manifest, default_config):
    """All labeled samples of the benchmark, keyed by recording id."""
    out = {}
    for entry in bench_manifest:
        out[entry.recording_id] = extract_samples(entry, default_config)
    return out


@pytest.fixture(scope="session")
def bench_flat(bench_samples):
    return [s for group in bench_samples.values() for s in group]


@pytest.fixture(scope="session")
def bench_b_dir(tmp_path_factory):
    """A smaller corpus of the open-junction variant, for transfer tests."""
    out = tmp_path_factory.mktemp("bench_b")
    return make_benchmark(out, per_class=2, env_type="B", seed=203)


@pytest.fixture(scope="session")
def bench_b_flat(bench_b_dir, default_config):
    """All labeled samples of the open-junction corpus."""
    return [s for e in load_manifest(bench_b_dir) for s in extract_samples(e, default_config)]


@pytest.fixture(scope="session")
def bench_model(bench_flat):
    from earshot.classifier import train
    from earshot.features import augment_training_set

    return train(augment_training_set(bench_flat), lam=1.0, seed=0)


def rng_matrix(rng, config):
    """A random but valid feature matrix (non-negative energies)."""
    return rng.uniform(0.0, 1.0, size=(config.segments, config.bins))
