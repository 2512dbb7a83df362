import warnings

import numpy as np

from bolab import cutoffs
from bolab.cutoffs import smoothstep
from bolab.grid import Grid
from bolab.spectral import lp_values
from oracles import le_deriv, shell_deriv, smoothstep_deriv


def test_smoothstep_endpoints():
    t = np.array([-1.0, 0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0, 2.0])
    s = smoothstep(t)
    assert s[0] == 0.0 and s[1] == 0.0
    assert s[-1] == 1.0 and s[-2] == 1.0
    assert 0.0 < s[3] < 1.0


def test_base_plateaus():
    # chi^+_{<=0} equals one up to 1 and zero beyond 2
    y = np.linspace(-5.0, 1.0, 50)
    assert np.all(cutoffs.le(0, y) == 1.0)
    y = np.linspace(2.0, 10.0, 50)
    assert np.all(cutoffs.le(0, y) == 0.0)
    mid = cutoffs.le(0, np.linspace(1.1, 1.9, 20))
    assert np.all((mid > 0) & (mid < 1))
    assert np.all(np.diff(mid) < 0)  # monotone on the ramp


def test_shell_support_and_peak():
    j = 3.0
    y = np.linspace(0.0, 40.0, 2000)
    s = cutoffs.shell(j, y)
    assert np.all(s[y <= 2.0 ** (j - 1)] == 0.0)
    assert np.all(s[y >= 2.0 ** (j + 1)] == 0.0)
    assert cutoffs.shell(j, np.array([2.0**j]))[0] == 1.0
    # vanishes identically on the negative half-line
    assert np.all(cutoffs.shell(j, np.linspace(-10, 0, 50)) == 0.0)


def test_telescoping_exact():
    y = np.linspace(-4.0, 300.0, 3000)
    a, b = 1.0, 7.0
    total = sum(cutoffs.shell(j, y) for j in range(2, 8))
    target = cutoffs.le(b, y) - cutoffs.le(a, y)
    assert np.max(np.abs(total - target)) < 1e-12


def test_partition_of_unity_pointwise():
    # sum_j chi_j + chi_{<=0} = 1 wherever the shells reach
    y = np.linspace(-200.0, 200.0, 4001)
    total = cutoffs.le_abs(0, y) + sum(cutoffs.shell_abs(j, y) for j in range(1, 9))
    inside = np.abs(y) <= 2.0**8
    assert np.max(np.abs(total[inside] - 1.0)) < 1e-12


def test_very_low_pass_vanishes_well_below_its_band():
    # chi_{<<k} = chi_{<= k - factor * order} is separated from the 2^k band
    y = np.linspace(-3.0, 3.0, 101)
    k, order, factor = 5.0, 2, 3.0
    assert np.all(cutoffs.le_abs(k - factor * order, y)[np.abs(y) >= 2.0 ** (k - 5)] == 0.0)


def test_shell_derivative_matches_finite_difference():
    y = np.linspace(3.0, 17.0, 400)
    h = 1e-6
    fd = (cutoffs.shell(3.0, y + h) - cutoffs.shell(3.0, y - h)) / (2 * h)
    an = shell_deriv(3.0, y)
    assert np.max(np.abs(fd - an)) < 1e-5


def test_fractional_indices():
    # cutoffs are continuous functions of the dyadic index
    y = np.array([3.0])
    vals = [cutoffs.shell(j, y)[0] for j in np.linspace(1.0, 2.0, 11)]
    assert np.all(np.isfinite(vals))
    assert cutoffs.shell(1.5849625007211562, np.array([3.0]))[0] == 1.0  # log2(3)


def test_indices_whose_dyadic_scale_is_normal_keep_the_formula_bit_for_bit():
    for j in (-1022.0, -500.5, 0.0, 3.25, 1023.0):
        y = np.linspace(-1.0, 3.0, 101) * 2.0 ** (j - 1)
        t = 2.0 - y / 2.0**j
        assert np.array_equal(cutoffs.le(j, y), smoothstep(t))
        assert np.array_equal(le_deriv(j, y), -smoothstep_deriv(t) / 2.0**j)


def test_tiny_normal_dyadic_scales_divide_without_overflow():
    # 2^j is normal but y / 2^j overflows for j near -1022 at |y| up to a grid's
    # Nyquist: y is clamped at 2^(j+2), where the family is already constant, so
    # no warning is raised and the values are the limits 0 and 1
    y = np.array([-1e300, -32.0, -1e-300, 0.0, 1e-310, 32.0, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for j in (-1022.0, -1020.5, -1014.0, -1000.0):
            tiny = 2.0 ** j
            assert cutoffs.le(j, 32.0) == 0.0
            assert np.array_equal(cutoffs.le(j, y), [1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
            assert np.array_equal(le_deriv(j, y), np.zeros(7))
            # inside the clamp the formula is kept bit for bit
            inside = np.linspace(-4.0, 4.0, 81) * tiny
            t = 2.0 - inside / tiny
            assert np.array_equal(cutoffs.le(j, inside), smoothstep(t))
            assert np.array_equal(le_deriv(j, inside), -smoothstep_deriv(t) / tiny)
        # where 2^(j+2) overflows the clamp is infinite and changes nothing
        assert np.array_equal(cutoffs.le(1023.5, [1e308, -1e308]),
                              smoothstep(2.0 - np.array([1e308, -1e308]) / 2.0**1023.5))


def test_indices_whose_dyadic_scale_under_or_overflows():
    # below the normal range chi_{<=j} is the indicator of y <= 0, above it one,
    # with derivative zero, and no warning is raised
    y = np.array([-3.0, -1e-300, 0.0, 1e-300, 2.0, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for j in (-1023.0, -1075.0, -4e6):
            assert np.array_equal(cutoffs.le(j, y), [1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
            assert np.array_equal(le_deriv(j, y), np.zeros(6))
            assert cutoffs.le_abs(j, 0.0) == 1.0
        for j in (1024.0, 1100.0, 4e6):
            assert np.array_equal(cutoffs.le(j, y), np.ones(6))
            assert np.array_equal(le_deriv(j, y), np.zeros(6))
            assert np.array_equal(cutoffs.shell(j, y), np.zeros(6))
        # the low-pass multiplier keeps the zero mode at any depth
        grid = Grid(256, 400.0)
        assert lp_values(grid, -4e6, "leq")[128] == lp_values(grid, -400.0, "leq")[128] == 1.0
