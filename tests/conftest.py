import numpy as np
import pytest

from bolab.grid import Grid


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def grid_small():
    return Grid(256, 16 * np.pi)


@pytest.fixture
def grid_medium():
    return Grid(512, 16 * np.pi)


@pytest.fixture
def fft_lengths(monkeypatch):
    """The length of every np.fft.fft, ifft, rfft and irfft call made in the test:
    the length of the input's last axis, or the ``n`` passed (for irfft, the
    length of its real output)."""
    lengths = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        original = getattr(np.fft, name)

        def counted(a, n=None, *args, _original=original, **kwargs):
            lengths.append(np.shape(a)[-1] if n is None else n)
            return _original(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return lengths
