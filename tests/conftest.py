"""Test-session setup: the report header names the BLAS kernel the suite
runs on, since the byte-identity digests hold for one kernel only."""
import ctypes
import glob
import os

import numpy as np
import pytest


def _blas_core() -> str:
    """The core name numpy's bundled OpenBLAS chose at load time (it chooses
    one per CPU; `OPENBLAS_CORETYPE` overrides the choice), or 'unknown'."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def pytest_report_header(config):
    return f"blas core: {_blas_core()}"


@pytest.fixture(scope="session")
def blas_core():
    return _blas_core()
