"""Shared pytest configuration."""

import enum
import platform

import numpy as np
import pytest

from qss_sim.protocol import ScenarioConfig, _Run


def pytest_report_header(config):
    # The golden digests pin seeded numpy Generator streams, which numpy
    # does not promise to keep across releases; they were captured on
    # numpy 2.4.6.
    return f"python {platform.python_version()}, numpy {np.__version__}"


def pytest_make_parametrize_id(config, val, argname):
    # The protocol's symbols are IntEnums, which pytest would otherwise
    # label by their integer code; name them as ``PauliOp.X`` instead.
    if isinstance(val, enum.Enum):
        return f"{type(val).__name__}.{val.name}"
    return None


@pytest.fixture
def unit_run():
    """Build a run for calling one check phase by itself:
    ``unit_run(register, n_positions, samples=None, rng_dealer=None,
    eve=None, **config)`` gives a `_Run` over the test's own register
    (and dealer stream and eavesdropper, when given) whose surviving
    positions are ``0..n_positions-1`` and whose plan is the one row
    ``("hop", "unit", "unit", samples)``, `samples` defaulting to
    `n_positions`.  The test sets the run's ``dealer`` and ``partner``
    photons, and reads each check's report from ``run.checks``."""

    def make(register, n_positions, samples=None, rng_dealer=None, eve=None, **config):
        run = _Run(ScenarioConfig(**config), "original")
        run.row = ("hop", "unit", "unit", n_positions if samples is None else samples)
        run.rows = iter(())
        run.register = register
        run.positions = np.arange(n_positions)
        if rng_dealer is not None:
            run.rng_dealer = rng_dealer
        run.eve = eve
        return run

    return make
