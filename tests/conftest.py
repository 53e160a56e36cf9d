"""Shared pytest configuration."""

import enum
import platform

import numpy as np


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
