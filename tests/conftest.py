"""Shared fixtures for the test suite."""

import importlib.util
import pathlib

import pytest

from repro.experiments.common import make_testbed
from repro.sim import Simulator


@pytest.fixture
def sim():
    """A fresh deterministic simulator."""
    return Simulator(seed=1234)


@pytest.fixture(scope="session")
def testbed():
    """One shared Section-4.1 testbed for read-only measurements.

    Session-scoped: building servers is cheap but not free, and most
    workload tests only sample paths without mutating shared state.
    """
    return make_testbed(seed=77)


@pytest.fixture(scope="session")
def experiment_results():
    """Quick-mode results of the full experiment suite, run once."""
    from repro.experiments import run_all

    return run_all(seed=0, quick=True)


@pytest.fixture(scope="session")
def load_script():
    """Loader importing ``scripts/<name>.py`` as a fresh module."""
    scripts = pathlib.Path(__file__).parent.parent / "scripts"

    def load(name: str):
        spec = importlib.util.spec_from_file_location(
            name, scripts / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    return load
