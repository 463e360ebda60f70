"""Shared fixtures."""

import os
import sys
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


def _count_calls(functions, run):
    """{name: number of calls} of the given functions while run() executes."""
    counted = {fn.__code__: fn.__name__ for fn in functions}
    calls = {fn.__name__: 0 for fn in functions}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in counted:
            calls[counted[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


@pytest.fixture
def count_calls():
    """count_calls(functions, run): {name: number of calls} of the given
    functions while run() executes."""
    return _count_calls
