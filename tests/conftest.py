"""Shared pytest configuration."""

import platform

import numpy as np


def pytest_report_header(config):
    # The golden digests pin seeded numpy Generator streams, which numpy
    # does not promise to keep across releases; they were captured on
    # numpy 2.4.6.
    return f"python {platform.python_version()}, numpy {np.__version__}"
