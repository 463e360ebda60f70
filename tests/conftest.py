"""Shared fixtures."""

import os
from pathlib import Path

import pytest

import substrum


@pytest.fixture(scope="session")
def child_env():
    """Environment for test subprocesses.

    PYTHONPATH starts with the absolute directory that holds the substrum
    package this session imported, followed by any existing entries, so a
    child finds the same package whatever its cwd and wherever pytest was
    started (a relative ``PYTHONPATH=src`` resolves only from the repo root).
    """
    src = str(Path(substrum.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, rest]) if rest else src)
