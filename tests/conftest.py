import os

import numpy as np
import pytest

import bolab
from bolab.grid import Grid


@pytest.fixture(autouse=True, scope="session")
def child_pythonpath():
    """The interpreters that tests start import the bolab that the tests import."""
    src = os.path.dirname(os.path.dirname(bolab.__file__))
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.getenv("PYTHONPATH")])))
        yield


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def grid_small():
    return Grid(256, 16 * np.pi)


@pytest.fixture
def grid_medium():
    return Grid(512, 16 * np.pi)


class FFTCalls(list):
    """The length of each recorded transform call, in order, with ``out``: whether
    each call, in the same order, passed an ``out`` array to write into."""

    def __init__(self):
        super().__init__()
        self.out = []

    def clear(self):
        super().clear()
        self.out.clear()


@pytest.fixture
def fft_lengths(monkeypatch):
    """The length of every np.fft.fft, ifft, rfft and irfft call made in the test:
    the length of the input's last axis, or the ``n`` passed (for irfft, the
    length of its real output); ``fft_lengths.out`` records whether each call
    passed ``out``, so wrote into an array it was given rather than a new one."""
    calls = FFTCalls()
    for name in ("fft", "ifft", "rfft", "irfft"):
        original = getattr(np.fft, name)

        def counted(a, n=None, *args, _original=original, **kwargs):
            calls.append(np.shape(a)[-1] if n is None else n)
            calls.out.append(kwargs.get("out") is not None)
            return _original(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls
