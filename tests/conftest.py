import os
from pathlib import Path

import pytest

import adiclab


@pytest.fixture
def child_env():
    """Environment for a `python -m adiclab.cli` child process: pytest's
    pythonpath setting does not reach children, so PYTHONPATH names the
    source directory of the imported adiclab."""
    src = str(Path(adiclab.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": src}
