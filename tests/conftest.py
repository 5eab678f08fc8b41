"""Shared fixtures and Hypothesis profiles for the test suite."""

from __future__ import annotations

import importlib.util
import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from repro.bits.rng import RngStream, make_rng
from repro.core.timing import TimingModel
from repro.sim.reader import Reader
from repro.tags.population import TagPopulation

#: The frozen per-slot object Reader, the live Reader's differential
#: oracle.  It lives with the other frozen references under benchmarks/
#: and is loaded by path, never imported from src/.
REFERENCE_READER = (
    Path(__file__).resolve().parents[1] / "benchmarks" / "_reference_reader.py"
)
#: The frozen slot-by-slot tree protocols (BT, ABS, QT, AQS), the live
#: protocols' differential oracle, loaded the same way.
REFERENCE_PROTOCOLS = REFERENCE_READER.with_name("_reference_protocols.py")
#: The frozen Monte-Carlo kernels, ``repro.sim.batch``'s differential oracle.
REFERENCE_BATCH = REFERENCE_READER.with_name("_reference_batch.py")

# "ci" replays a fixed example sequence (derandomize) so CI failures are
# reproducible and never flake on a fresh random draw; "dev" keeps the
# random exploration but drops the per-example deadline, which trips on
# loaded laptops.  Select with HYPOTHESIS_PROFILE=ci|dev (default: the
# built-in profile).
settings.register_profile("ci", derandomize=True, deadline=None)
settings.register_profile("dev", deadline=None)
_profile = os.environ.get("HYPOTHESIS_PROFILE")
if _profile:
    settings.load_profile(_profile)


@pytest.fixture
def rng() -> RngStream:
    """A deterministic root random stream."""
    return make_rng(12345)


@pytest.fixture
def timing() -> TimingModel:
    """The paper's timing constants (τ=1, l_id=64, l_crc=32)."""
    return TimingModel()


@pytest.fixture
def make_population(rng):
    """Factory for small reproducible populations."""

    def _make(size: int, id_bits: int = 64, layout: str = "uniform"):
        return TagPopulation(size, id_bits=id_bits, rng=rng.child(), layout=layout)

    return _make


def load_module(path: Path):
    """Run the file at ``path`` as a module named after its stem.

    The module is registered in ``sys.modules`` before it runs: a
    dataclass under ``from __future__ import annotations`` looks its
    module up there while its class body is built.
    """
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def load_reference_reader():
    return load_module(REFERENCE_READER)


@pytest.fixture(scope="session")
def reference_reader():
    """``benchmarks/_reference_reader.py``, loaded by path."""
    return load_reference_reader()


@pytest.fixture(scope="session")
def reference_protocols():
    """``benchmarks/_reference_protocols.py``, loaded by path."""
    return load_module(REFERENCE_PROTOCOLS)


def tier_reader_factory(reference):
    """``make(tier, *reader_args, **reader_kwargs)``: a Reader of one tier.

    ``"object"`` is the frozen object Reader, ``"packed"`` the live Reader
    with every protocol's frame partition withheld (so it runs slot by
    slot) and ``"batched"`` the live Reader as is.
    """

    def make(tier, *args, **kwargs):
        if tier == "object":
            return reference.Reader(*args, **kwargs)
        reader = Reader(*args, **kwargs)
        if tier == "packed":
            run = reader.run_inventory

            def per_slot(tags, protocol, *run_args, **run_kwargs):
                protocol.frame_partition = lambda: None
                return run(tags, protocol, *run_args, **run_kwargs)

            reader.run_inventory = per_slot
        return reader

    return make


@pytest.fixture(scope="session")
def tier_reader(reference_reader):
    """See :func:`tier_reader_factory`."""
    return tier_reader_factory(reference_reader)
