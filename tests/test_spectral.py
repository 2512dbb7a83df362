import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from bolab.errors import (
    BandEdgeWarning,
    ConfigError,
    DegenerateShellError,
    InputShapeError,
    MultiplierDomainError,
)
from bolab.grid import ComplexField, Field, Grid
from bolab.solver import soliton
from bolab.spectral import (
    apply_multiplier,
    coeffs_of,
    derivative,
    hilbert,
    lp_partition_bounds,
    lp_project,
    samples_of,
    spatial_cutoff,
    shell_weight,
    spatial_cutoff_values,
    warn_band_edge,
)
from bolab.kernels import fit_decay
from bolab.testing import random_band_limited
from oracles import antiderivative_mean_removed, weighted_shell_sup

# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def test_constant_field_concentrates_on_zero_mode(grid_small):
    f = Field(grid_small, np.ones(grid_small.n_points))
    c = coeffs_of(f.samples, grid_small)
    center = grid_small.n_points // 2
    others = np.delete(np.abs(c), center)
    assert np.max(others) < 1e-12 * abs(c[center])


def test_single_cosine_two_coefficients(grid_small):
    g = grid_small
    f = Field(g, np.cos(2 * np.pi * g.x / g.box_length))
    mags = np.abs(coeffs_of(f.samples, g))
    center = g.n_points // 2
    live = np.sort(np.argsort(mags)[-2:])
    assert list(live) == [center - 1, center + 1]
    assert np.max(np.delete(mags, live)) < 1e-12 * mags[center + 1]


def test_round_trip_identity(grid_medium, rng):
    for _ in range(20):
        f = random_band_limited(grid_medium, rng, 0.9)
        back = samples_of(coeffs_of(f.samples, grid_medium), grid_medium)
        assert np.max(np.abs(back - f.samples)) < 1e-12 * f.sup_norm()


@pytest.mark.parametrize("n", [4, 6, 512, 1000])
def test_half_swap_transforms_match_the_fftshift_path(rng, n):
    # for even n, fftshift and ifftshift are the swap of the two halves
    g = Grid(n, 16 * np.pi)
    scale = g.dx / np.sqrt(2.0 * np.pi)
    for samples in (rng.normal(size=n), rng.normal(size=n) + 1j * rng.normal(size=n)):
        ref = np.fft.fftshift(np.fft.fft(samples)) * scale * g._phase
        assert np.array_equal(coeffs_of(samples, g), ref)
    for coeffs in (rng.normal(size=n), rng.normal(size=n) + 1j * rng.normal(size=n)):
        ref = np.fft.ifft(np.fft.ifftshift(coeffs * g._phase)) * (np.sqrt(2.0 * np.pi) / g.dx)
        assert np.array_equal(samples_of(coeffs, g), ref)


@pytest.mark.parametrize("n_points, box_length, message", [
    (1000.5, 10.0, "n_points must be an even integer >= 4, got 1000.5"),
    (4, float("inf"), "box_length must be positive and finite, got inf"),
    (4, float("nan"), "box_length must be positive and finite, got nan"),
])
def test_grid_rejects_sizes_it_cannot_honour(n_points, box_length, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=message):
            Grid(n_points, box_length)


def test_grid_takes_integral_point_counts():
    assert Grid(4096, 400.0).n_points == 4096
    assert Grid(np.int64(8), 10.0).n_points == 8


def test_parseval(grid_medium, rng):
    for _ in range(20):
        f = random_band_limited(grid_medium, rng, 0.9)
        c = coeffs_of(f.samples, grid_medium)
        spectral_l2 = np.sqrt(grid_medium.dxi * np.sum(np.abs(c) ** 2))
        assert abs(f.l2_norm() - spectral_l2) < 1e-12 * f.l2_norm()


# ---------------------------------------------------------------------------
# multipliers
# ---------------------------------------------------------------------------


def test_multiplier_identity(grid_small, rng):
    f = random_band_limited(grid_small, rng)
    out = apply_multiplier(lambda xi: np.ones_like(xi), f)
    assert np.max(np.abs(out.samples - f.samples)) < 1e-12 * f.sup_norm()


def test_constant_multiplier_is_broadcast(grid_small, rng):
    f = random_band_limited(grid_small, rng)
    out = apply_multiplier(lambda xi: 2.0, f)
    assert np.max(np.abs(out.samples - 2.0 * f.samples)) < 1e-12 * f.sup_norm()


def test_field_of_the_wrong_length_raises(grid_small):
    with pytest.raises(InputShapeError, match=f"expected {grid_small.n_points} samples"):
        Field(grid_small, np.zeros(grid_small.n_points - 1))


def test_multiplier_exact_derivative_of_grid_mode(grid_small):
    g = grid_small
    xi0 = 2 * np.pi / g.box_length
    f = Field(g, np.sin(xi0 * g.x))
    out = apply_multiplier(lambda xi: 1j * xi, f)
    assert np.max(np.abs(out.samples - xi0 * np.cos(xi0 * g.x))) < 1e-12


def test_dispersion_symbol_eigenfunction(grid_small):
    g = grid_small
    xi0 = 2 * np.pi * 5 / g.box_length
    mode = ComplexField(g, np.exp(1j * xi0 * g.x))
    out = apply_multiplier(lambda xi: np.abs(xi) * xi, mode)
    assert np.max(np.abs(out.samples - np.abs(xi0) * xi0 * mode.samples)) < 1e-10


def test_multiplier_composition(grid_small, rng):
    f = random_band_limited(grid_small, rng)
    m1 = lambda xi: 1.0 / (1.0 + xi**2)
    m2 = lambda xi: np.exp(1j * np.tanh(xi))
    once = apply_multiplier(lambda xi: m1(xi) * m2(xi), f)
    twice = apply_multiplier(m1, apply_multiplier(m2, f))
    assert np.max(np.abs(once.samples - twice.samples)) < 1e-12 * f.sup_norm()


def test_multiplier_realness(grid_small, rng):
    f = random_band_limited(grid_small, rng)
    out = apply_multiplier(lambda xi: xi**2 + 1j * xi, f)  # Hermitian symmetry
    assert np.max(np.abs(out.samples.imag)) < 1e-12 * (1.0 + out.sup_norm())


# the multiplier's own 1 / 0 at xi = 0
@pytest.mark.filterwarnings("ignore:divide by zero encountered:RuntimeWarning")
def test_multiplier_domain_error(grid_small, rng):
    f = random_band_limited(grid_small, rng)
    with pytest.raises(MultiplierDomainError):
        apply_multiplier(lambda xi: 1.0 / xi, f)  # infinite at xi = 0


# ---------------------------------------------------------------------------
# Hilbert transform
# ---------------------------------------------------------------------------


def _pv_hilbert_oracle(x0: float) -> float:
    """Principal-value quadrature of (1/pi) pv int f(y)/(x-y) dy for the
    Poisson kernel f = 1/(1+y^2); independent oracle for the multiplier path.

    With the -i*sgn(xi) multiplier convention, H f(x) = (1/pi) pv int
    f(y)/(x - y) dy.
    """
    f = lambda y: 1.0 / (1.0 + y**2)
    def g(u):  # symmetrized integrand, removable at u = 0
        return (f(x0 - u) - f(x0 + u)) / u
    val, _ = quad(g, 1e-12, 60.0, limit=400)
    tail, _ = quad(g, 60.0, np.inf, limit=400)
    return (val + tail) / np.pi


def test_hilbert_poisson_kernel_closed_form():
    g = Grid(4096, 400.0)
    f = Field(g, 1.0 / (1.0 + g.x**2))
    hf = hilbert(f)
    target = g.x / (1.0 + g.x**2)
    # whole-box budget max(1e-6, O(1/L)); the kink-at-zero lattice error grows
    # linearly in |x|, reaching 2/L where the periodic conjugate vanishes at
    # the box edge
    err = np.max(np.abs(hf.samples - target))
    assert err < 2.5 / g.box_length
    # spot-check the convention against principal-value quadrature
    i0 = np.argmin(np.abs(g.x - 1.0))
    oracle = _pv_hilbert_oracle(float(g.x[i0]))
    assert abs(oracle - target[i0]) < 1e-6
    assert abs(hf.samples[i0] - oracle) < 1e-4


def test_hilbert_squared_is_minus_identity(grid_medium, rng):
    for _ in range(10):
        f = random_band_limited(grid_medium, rng, 0.9)
        hh = hilbert(hilbert(f))
        assert np.max(np.abs(hh.samples + f.samples)) < 1e-12 * f.sup_norm()


def test_hilbert_of_soliton_shell_slope():
    g = Grid(4096, 400.0)
    s = soliton(1.0, 0.0, g)
    hs = hilbert(s)
    sups = weighted_shell_sup(hs, [3.0, 3.5, 4.0, 4.5, 5.0, 5.5])
    pairs = [(j, max(v["+"], v["-"])) for j, v in sups.items()]
    fit = fit_decay(pairs)
    assert abs(fit.slope + 1.0) < 0.15


def test_hilbert_preserves_realness(grid_small, rng):
    f = random_band_limited(grid_small, rng)
    assert isinstance(hilbert(f), Field)


# ---------------------------------------------------------------------------
# Littlewood-Paley projections
# ---------------------------------------------------------------------------


def test_single_mode_passes_plus_annihilated_by_minus(grid_small):
    g = grid_small
    k = 3.0
    m = int(round(2.0**k * g.box_length / (2 * np.pi)))  # xi_m = 2^k exactly
    mode = ComplexField(g, np.exp(1j * g.xi[m + g.n_points // 2] * g.x))
    with pytest.warns(BandEdgeWarning):  # 2^(k+1) is the Nyquist 16
        plus = lp_project(mode, k, "plus")
        minus = lp_project(mode, k, "minus")
    assert np.max(np.abs(plus.samples - mode.samples)) < 1e-12
    assert np.max(np.abs(minus.samples)) < 1e-13


def test_reality_symmetry_of_half_bands(grid_small, rng):
    f = random_band_limited(grid_small, rng)
    plus = lp_project(f, 2.0, "plus")
    minus = lp_project(f, 2.0, "minus")
    assert np.max(np.abs(minus.samples - np.conj(plus.samples))) < 1e-12


def test_partition_of_unity(grid_medium, rng):
    k_min, k_max = lp_partition_bounds(grid_medium)
    for _ in range(5):
        f = random_band_limited(grid_medium, rng, 0.9)
        total = lp_project(f, k_min, "leq").samples.copy()
        with pytest.warns(BandEdgeWarning):
            for k in range(k_min + 1, k_max + 1):
                total += lp_project(f, k, "full").samples
        assert np.max(np.abs(total - f.samples)) < 1e-12 * f.sup_norm()


def test_band_edge_warning(grid_small, rng):
    f = random_band_limited(grid_small, rng)
    with pytest.warns(BandEdgeWarning):
        lp_project(f, np.log2(grid_small.nyquist), "full")


# ---------------------------------------------------------------------------
# spatial cutoffs
# ---------------------------------------------------------------------------


def test_cutoff_on_constant_is_cutoff(grid_small):
    g = grid_small
    one = Field(g, np.ones(g.n_points))
    out = spatial_cutoff(one, 2.0, "+")
    assert np.array_equal(out.samples, spatial_cutoff_values(g, 2.0, "+"))


def test_spatial_telescoping(grid_small):
    g = grid_small
    one = Field(g, np.ones(g.n_points))
    jmax = 3
    # the shells at x and at -x together: chi_j(|x|)
    total = np.asarray(sum(spatial_cutoff(one, float(j), sign).samples
                           for j in range(1, jmax + 1) for sign in "+-"))
    from bolab import cutoffs

    total += cutoffs.le_abs(0, g.x)
    inside = np.abs(g.x) <= 2.0**jmax
    assert np.max(np.abs(total[inside] - 1.0)) < 1e-12


def test_cutoff_support(grid_small, rng):
    f = random_band_limited(grid_small, rng)
    j = 2.0
    out = spatial_cutoff(f, j, "+")
    outside = (grid_small.x < 2.0 ** (j - 1)) | (grid_small.x > 2.0 ** (j + 1))
    assert np.max(np.abs(out.samples[outside])) == 0.0


def test_degenerate_shell_error(grid_small, rng):
    f = random_band_limited(grid_small, rng)
    with pytest.raises(DegenerateShellError):
        spatial_cutoff(f, np.log2(grid_small.box_length), "+")


# ---------------------------------------------------------------------------
# antiderivative
# ---------------------------------------------------------------------------


def test_antiderivative_of_cosine_exact(grid_small):
    g = grid_small
    xi0 = 2 * np.pi / g.box_length
    u = Field(g, np.cos(xi0 * g.x))
    phi, mass = antiderivative_mean_removed(u)
    target = np.sin(xi0 * g.x) / xi0
    assert np.max(np.abs(phi.samples - target)) < 1e-12
    assert abs(mass) < 1e-12


def test_soliton_mass_is_two_pi():
    g = Grid(4096, 400.0)
    u = soliton(1.0, 0.0, g)
    _, mass = antiderivative_mean_removed(u)
    # oracle: quadrature of the closed-form profile over the box
    oracle, _ = quad(lambda x: 2.0 / (1.0 + x**2), -200.0, 200.0, limit=200)
    assert abs(mass - oracle) < 1e-8
    assert abs(mass - 2.0 * np.pi) < 4.0 / g.box_length * 10


def test_antiderivative_derivative_round_trip(grid_medium, rng):
    for _ in range(5):
        u = random_band_limited(grid_medium, rng, 0.8)
        phi, _ = antiderivative_mean_removed(u)
        du = derivative(phi).samples.real
        assert np.max(np.abs(du - (u.samples - np.mean(u.samples)))) < 1e-10 * u.sup_norm()
        assert abs(np.mean(phi.samples)) < 1e-12


# ---------------------------------------------------------------------------
# weighted shell sups
# ---------------------------------------------------------------------------


def test_shell_sups_of_soliton_match_dense_oracle():
    g = Grid(4096, 400.0)
    s = soliton(1.0, 0.0, g)
    shells = [3.0, 4.0, 5.0]
    sups = weighted_shell_sup(s, shells)
    from bolab import cutoffs

    for j in shells:
        dense = np.linspace(2.0 ** (j - 1), 2.0 ** (j + 1), 200001)
        oracle = np.max(cutoffs.shell(j, dense) * 2.0 / (1.0 + dense**2))
        assert abs(sups[j]["+"] - oracle) < 1e-2 * oracle
        # profile-level magnitude: about 2 * 2^{-2j}, within a factor of two
        assert 1.0 <= sups[j]["+"] / (2.0 * 2.0 ** (-2 * j)) <= 2.0


def test_shell_sups_zero_field(grid_small):
    z = Field(grid_small, np.zeros(grid_small.n_points))
    sups = weighted_shell_sup(z, [1.0, 2.0])
    assert all(v["+"] == 0.0 and v["-"] == 0.0 for v in sups.values())


def test_shell_sups_bump_support_case():
    g = Grid(2048, 256.0)
    j0 = 4.0
    f = Field(g, np.exp(-((g.x - 2.0**j0) ** 2)))
    sups = weighted_shell_sup(f, [2.0, 3.0, 4.0, 5.0])
    assert sups[4.0]["+"] > 0.9
    assert sups[2.0]["+"] < 1e-10
    assert all(v["-"] < 1e-10 for v in sups.values())


def test_shell_sups_refuse_a_shell_outside_box(grid_small):
    # a shell past box_length/4 is refused, as spatial_cutoff_values refuses it
    f = Field(grid_small, np.ones(grid_small.n_points))
    assert list(weighted_shell_sup(f, [1.0])) == [1.0]
    with pytest.raises(DegenerateShellError, match="shell 2\\^30.0 exceeds box_length/4"):
        weighted_shell_sup(f, [1.0, 30.0])


def test_shell_that_weighs_no_grid_point_raises():
    g = Grid(512, 200.0)
    s = soliton(1.0, 0.0, g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for j in (-2000.0, -20.0):
            with pytest.raises(DegenerateShellError, match="weighs no grid point"):
                weighted_shell_sup(s, [3.0, j])
            for sign in "+-":
                with pytest.raises(DegenerateShellError, match="weighs no grid point"):
                    shell_weight(g, j, sign)
                with pytest.raises(DegenerateShellError, match="weighs no grid point"):
                    spatial_cutoff_values(g, j, sign)
    # a shell inside the box that falls between two grid points
    coarse = Grid(4, 2048.0)
    with pytest.raises(DegenerateShellError, match="shell 2\\^8 weighs no grid point"):
        spatial_cutoff(Field(coarse, np.ones(4)), 8, "+")


def test_random_band_limited_refuses_a_band_with_no_grid_mode(rng):
    g = Grid(4, 201.0)  # one positive mode, above 0.45 * Nyquist
    with pytest.raises(ConfigError, match="0.45 \\* Nyquist: dxi = 0.0313, Nyquist 0.0625"):
        random_band_limited(g, rng, 0.45)
    assert np.any(random_band_limited(g, rng, 0.9).samples)


def test_shells_whose_dyadic_scale_overflows():
    # 2^1100 overflows a double: the box-size tests decide in log2
    g = Grid(512, 200.0)
    s = soliton(1.0, 0.0, g)
    for shells in ([1100.0], [3.0, 1100.0]):
        with pytest.raises(DegenerateShellError, match="exceeds box_length/4"):
            weighted_shell_sup(s, shells)
    with pytest.raises(DegenerateShellError, match="exceeds box_length/4"):
        spatial_cutoff_values(g, 1100.0, "+")
    with pytest.warns(BandEdgeWarning):
        warn_band_edge(g, 1100.0)


# ---------------------------------------------------------------------------
# pseudolocality of frequency projections (fixed decay order 4)
# ---------------------------------------------------------------------------


def test_pseudolocality_envelope(rng):
    # every scale must be resolved: the inner ramp of the ~j window has width
    # 2^(j-11), so j = 11 keeps it at four grid spacings
    g = Grid(65536, 16384.0)
    j = 11.0
    from bolab import cutoffs

    not_near = 1.0 - (cutoffs.le(j + 10, g.x) - cutoffs.le(j - 11, g.x))  # outside ~2^j
    shell = spatial_cutoff_values(g, j, "+")
    measured = {}
    for k in range(-9, 0):  # j + k in [2, 10]
        worst = 0.0
        for _ in range(3):
            f = random_band_limited(g, rng, 0.45)
            cut = Field(g, not_near * f.samples)
            val = np.max(shell * np.abs(lp_project(cut, float(k), "leq").samples))
            worst = max(worst, val / f.sup_norm())
        measured[j + k] = worst
    pairs = sorted(measured.items())
    fit = fit_decay(pairs)
    # decay at least like <2^(j+k)>^-4 over the sweep (smooth cutoffs beat it,
    # so per-point implied constants fall off at the far end rather than
    # holding steady; the testable statement is that the bound holds with an
    # order-one constant)
    assert fit.slope <= -4.0 + 0.5
    consts = [v * (1.0 + 4.0 ** (jk)) ** 2.0 for jk, v in pairs]
    assert max(consts) <= 10.0
