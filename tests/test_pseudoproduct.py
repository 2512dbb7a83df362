import tracemalloc
import warnings

import numpy as np
import pytest

from bolab import cutoffs
from bolab.cli import NORMAL_FORM_DEFAULTS
from bolab.decay import EXPERIMENT_DEFAULTS
from bolab.errors import BandEdgeWarning, GridMismatchError
from bolab.grid import ComplexField, Field, Grid
from bolab.kernels import fit_decay
from bolab.pseudoproduct import (
    NF_NORMALIZATION,
    SQRT_2PI,
    BandKernel,
    _lattice_conv,
    assemble_B,
    check_dealias_margin,
    nf_generator_terms,
    verify_nf_cancellation,
)
from bolab.solver import soliton
from bolab.spectral import coeffs_of, derivative, lp_project, multiply
from bolab.testing import random_band_limited
from oracles import (BRANCHES, BilinearSymbol, bilinear_apply, half_project, leibnitz_check,
                     nf_branch_symbol, shell_deriv)

ONE = BilinearSymbol(fn=lambda xi, eta: np.ones(np.broadcast(xi, eta).shape))


# ---------------------------------------------------------------------------
# bilinear basics
# ---------------------------------------------------------------------------


def test_unit_symbol_is_pointwise_product(grid_medium, rng):
    f = random_band_limited(grid_medium, rng, 0.25)
    g = random_band_limited(grid_medium, rng, 0.25)
    out = bilinear_apply(ONE, f, g)
    target = SQRT_2PI * f.samples * g.samples
    assert np.max(np.abs(out.samples - target)) < 1e-10 * np.max(np.abs(target))


def test_band_symbol_matches_projection_composition(grid_medium, rng):
    # b(xi, eta) = chi_k(xi) chi_{<<k}(eta) realizes P_k(f * P_{<<k} g)
    k, order, factor = 3.0, 1, 3.0
    sym = BilinearSymbol(
        fn=lambda xi, eta: cutoffs.shell_abs(k, xi) * cutoffs.le_abs(k - factor * order, eta)
    )
    f = random_band_limited(grid_medium, rng, 0.25)
    g = random_band_limited(grid_medium, rng, 0.25)
    out = bilinear_apply(sym, f, g)
    target = SQRT_2PI * lp_project(
        multiply(f, lp_project(g, k - factor * order, "leq")), k, "full"
    ).samples
    assert np.max(np.abs(out.samples - target)) < 1e-10 * max(np.max(np.abs(target)), 1e-9)


def test_zero_inputs(grid_small, rng):
    f = random_band_limited(grid_small, rng, 0.25)
    z = Field(grid_small, np.zeros(grid_small.n_points))
    assert bilinear_apply(ONE, f, z).sup_norm() == 0.0
    assert bilinear_apply(ONE, z, f).sup_norm() == 0.0


def test_grid_mismatch(grid_small, grid_medium, rng):
    f = random_band_limited(grid_small, rng)
    g = random_band_limited(grid_medium, rng)
    with pytest.raises(GridMismatchError):
        bilinear_apply(ONE, f, g)


def test_leibnitz_rule(grid_medium, rng):
    f = random_band_limited(grid_medium, rng, 0.25)
    g = random_band_limited(grid_medium, rng, 0.25)
    scale = f.sup_norm() * g.sup_norm()
    assert leibnitz_check(ONE, f, g) < 1e-10 * scale
    smooth = BilinearSymbol(
        fn=lambda xi, eta: np.exp(-(xi**2) / 4) * np.cos(eta) / (1 + eta**2)
    )
    assert leibnitz_check(smooth, f, g) < 1e-10 * scale
    branch = nf_branch_symbol(2.0, 2, "+++", ll_factor=3.0)
    assert leibnitz_check(branch, f, g) < 1e-10 * scale


def test_scaling_consistency(rng):
    # halving dx at fixed L leaves band-limited pseudoproducts unchanged
    L = 16 * np.pi
    coarse = Grid(256, L)
    fine = Grid(512, L)
    fc = random_band_limited(coarse, rng, 0.25)
    gc = random_band_limited(coarse, rng, 0.25)
    # same fields sampled on the fine grid via exact trigonometric interpolation
    from bolab.spectral import coeffs_of, samples_of

    def upsample(f):
        c = coeffs_of(f.samples, coarse)
        cf = np.zeros(512, dtype=complex)
        cf[128:384] = c
        return Field(fine, samples_of(cf, fine).real * 1.0)

    out_c = bilinear_apply(ONE, fc, gc)
    out_f = bilinear_apply(ONE, upsample(fc), upsample(gc))
    assert np.max(np.abs(out_f.samples[::2] - out_c.samples)) < 1e-10


# ---------------------------------------------------------------------------
# normal-form branch symbols
# ---------------------------------------------------------------------------


def test_invalid_branch_rejected():
    with pytest.raises(ValueError):
        nf_branch_symbol(1.0, 2, "++")


def _ratio_form_ppp(k, order, factor, xi, eta):
    """Independent evaluation of the +++ branch from the single-ratio form
    (valid off the removable lines)."""
    num = (
        cutoffs.shell(k, xi) * xi
        - cutoffs.shell(k, xi - eta) * cutoffs.le_abs(k - factor * order, eta) * (xi - eta)
        - cutoffs.shell(k, eta) * cutoffs.le_abs(k - factor * order, xi - eta) * eta
    )
    return num / (2.0 * (xi - eta) * eta)


def test_ppp_matches_ratio_form():
    k, order, factor = 3.0, 2, 3.0
    sym = nf_branch_symbol(k, order, "+++", ll_factor=factor)
    pts = [(9.0, 2.0), (7.5, 3.3), (10.0, 0.4), (6.0, 5.2), (9.0, 8.7)]
    for xi, eta in pts:
        got = complex(sym(np.array(xi), np.array(eta)))
        want = _ratio_form_ppp(k, order, factor, xi, eta)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))


def test_ppm_pmp_reflection_symmetry():
    k, order = 2.0, 2
    ppm = nf_branch_symbol(k, order, "++-", ll_factor=3.0)
    pmp = nf_branch_symbol(k, order, "+-+", ll_factor=3.0)
    for xi, eta in [(3.0, 4.5), (5.0, 6.0), (2.5, 3.1)]:
        a = complex(pmp(np.array(xi), np.array(eta)))
        b = complex(ppm(np.array(xi), np.array(xi - eta)))
        assert abs(a - b) < 1e-14 * max(1.0, abs(b))


def test_difference_quotient_removable_singularity():
    # near eta = 0 the quotient continues to the derivative value
    k = 2.0
    sym = nf_branch_symbol(k, 2, "++-", ll_factor=3.0)
    xi = 5.0
    near = complex(sym(np.array(xi), np.array(1e-12)))
    expected = 0.5 * float(shell_deriv(k, np.array(xi)))
    assert abs(near - expected) < 1e-6 * max(1.0, abs(expected))
    # and approaches it continuously from lattice-scale offsets
    small = complex(sym(np.array(xi), np.array(1e-5)))
    assert abs(small - expected) < 1e-3 * max(1.0, abs(expected))


# ---------------------------------------------------------------------------
# the cancellation equation, pointwise and as an operator
# ---------------------------------------------------------------------------


def _total_symbol(k, order, factor, xi, eta):
    """b(xi, eta) = sum over branches of indicator * branch value, scaled."""
    total = np.zeros(np.broadcast(np.asarray(xi), np.asarray(eta)).shape, dtype=complex)
    for tag in BRANCHES:
        sym = nf_branch_symbol(k, order, tag, ll_factor=factor)
        e1, e2, e3 = tag
        ind = (
            ((np.sign(xi) == (1 if e1 == "+" else -1)))
            & (np.sign(xi - eta) == (1 if e2 == "+" else -1))
            & (np.sign(eta) == (1 if e3 == "+" else -1))
        )
        total = total + ind * sym(xi, eta)
    return NF_NORMALIZATION * total


def test_symbol_equation_pointwise():
    """The decisive algebraic identity: the symmetrized quadratic generator
    vanishes identically on the frequency lattice.

    2 D(xi,eta) b_sym + (1/sqrt(2pi)) { xi chi_k^+(xi)
        + sym[ chi_<<(xi-eta) chi_k^+(eta) ((xi-eta)_- - eta) ] } = 0
    with D = (xi-eta)_-^2 + eta_-^2 + (xi-eta) eta.
    """
    k, order, factor = 2.0, 2, 3.0
    rng = np.random.default_rng(0)
    xi = rng.uniform(-12, 12, size=400)
    eta = rng.uniform(-12, 12, size=400)
    keep = (np.abs(eta) > 1e-6) & (np.abs(xi - eta) > 1e-6) & (np.abs(xi) > 1e-6)
    xi, eta = xi[keep], eta[keep]

    def neg(z):
        return 0.5 * (np.abs(z) - z)

    def chi_ll(z):
        return cutoffs.le_abs(k - factor * order, z)

    def chikp(z):
        return cutoffs.shell(k, z)

    def product_symbol(x, e):
        return 2.0 * chi_ll(x - e) * chikp(e) * (neg(x - e) - e)

    d = neg(xi - eta) ** 2 + neg(eta) ** 2 + (xi - eta) * eta
    b_sym = 0.5 * (
        _total_symbol(k, order, factor, xi, eta)
        + _total_symbol(k, order, factor, xi, xi - eta)
    )
    prod = (
        xi * chikp(xi)
        + 0.5 * product_symbol(xi, eta)
        + 0.5 * product_symbol(xi, xi - eta)
    )
    resid = 2.0 * d * b_sym + prod / SQRT_2PI
    assert np.max(np.abs(resid)) < 1e-12


def test_cancellation_zero_field(grid_small):
    z = Field(grid_small, np.zeros(grid_small.n_points))
    assert verify_nf_cancellation(z, 2.0, 2) == (0.0, 0.0)


# the band k = 4 reaches the Nyquist 32
@pytest.mark.filterwarnings("ignore::bolab.errors.BandEdgeWarning")
def test_cancellation_random_fields(grid_medium, rng):
    for k in (0.0, 2.0, 4.0):
        for order in (2, 4):
            u = random_band_limited(grid_medium, rng, 0.25)
            resid, scale = verify_nf_cancellation(u, k, order)
            assert resid < 1e-8 * scale


def test_cancellation_single_positive_mode(grid_medium):
    # plateau-centered mode: every generator term vanishes individually
    g = grid_medium
    k = 3.0
    m = int(round(2.0**k * g.box_length / (2 * np.pi)))
    mode = ComplexField(g, np.exp(1j * g.xi[m + g.n_points // 2] * g.x))
    terms = nf_generator_terms(mode, k, 2)
    for name, term in terms.items():
        assert term.sup_norm() < 1e-11, name


def test_assemble_B_output_support(grid_medium, rng):
    k, order, factor = 3.0, 4, 3.0
    f = random_band_limited(grid_medium, rng, 0.25)
    g = random_band_limited(grid_medium, rng, 0.25)
    out = assemble_B(k, order, f, g, ll_factor=factor)
    from bolab.spectral import coeffs_of

    c = coeffs_of(out.samples, grid_medium)
    energy = np.abs(c) ** 2
    window = (grid_medium.xi > 0) & (grid_medium.xi >= 2.0 ** (k - 2)) & (
        grid_medium.xi <= 2.0 ** (k + 2)
    )
    assert energy[~window].sum() < 1e-8 * energy.sum()


def test_assemble_B_equals_symmetrized_kernel(grid_small, rng):
    # the branch assembly realizes the symmetric solution of the quadratic form
    def direct(k, order, factor, u):
        sym = BilinearSymbol(
            fn=lambda xi, eta: 0.5
            * (
                _total_symbol(k, order, factor, xi, eta)
                + _total_symbol(k, order, factor, xi, xi - eta)
            )
        )
        return bilinear_apply(sym, u, u)

    k, order, factor = 2.0, 2, 3.0
    u = random_band_limited(grid_small, rng, 0.25)
    via_branches = assemble_B(k, order, u, u, ll_factor=factor)
    assert np.max(np.abs(via_branches.samples - direct(k, order, factor, u).samples)) < 1e-12
    # ll nonzero on 319 lattice modes, and a full-spectrum input whose
    # products leave the grid range (zero extension, no wrap-around)
    wide = Grid(1024, 2000.0)
    for k, order, factor, u in [
        (0.0, 1, 2.0, random_band_limited(wide, rng, 0.5)),
        (2.0, 2, 3.0, Field(grid_small, rng.normal(size=256))),
    ]:
        oracle = direct(k, order, factor, u)
        via_branches = assemble_B(k, order, u, u, ll_factor=factor)
        assert np.max(np.abs(via_branches.samples - oracle.samples)) < 1e-12 * oracle.sup_norm()


def test_assemble_B_is_symmetric_bit_for_bit(grid_medium, rng):
    # swapping f and g swaps the two half kernels, and their sum commutes
    f = random_band_limited(grid_medium, rng, 0.25)
    g = random_band_limited(grid_medium, rng, 0.25)
    for k, order, factor in [(2.0, 2, 3.0), (3.0, 4, 100.0)]:
        fg = assemble_B(k, order, f, g, factor).samples
        assert np.array_equal(fg, assemble_B(k, order, g, f, factor).samples)
        assert np.max(np.abs(fg)) > 0.0


def test_assemble_B_diagonal_one_half_equals_two_halves(grid_medium, rng):
    # B(u, u) takes one half kernel; a copy of u takes both, and agrees exactly
    u = random_band_limited(grid_medium, rng, 0.25)
    twin = Field(grid_medium, u.samples.copy())
    for k, order, factor in [(2.0, 2, 3.0), (3.0, 4, 100.0)]:
        one = assemble_B(k, order, u, u, factor).samples
        assert np.array_equal(one, assemble_B(k, order, u, twin, factor).samples)
        assert np.max(np.abs(one)) > 0.0


def _new_rows(n):
    return lambda: np.empty((2, 2 * n), dtype=complex)


def _conv(a, b, grid, rows=None):
    """``_lattice_conv`` of a and b under unit masks, which leave them bit for bit."""
    ones = np.ones(grid.n_points)
    return _lattice_conv(ones, a, ones, b, grid, rows or _new_rows(grid.n_points))


@pytest.mark.parametrize("n", [256, 1000, 4096])
def test_lattice_conv_equals_the_2n_convolution_bitwise(rng, n):
    grid = Grid(n, 100.0)
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    b = rng.normal(size=n) + 1j * rng.normal(size=n)
    padded = np.fft.ifft(np.fft.fft(a, 2 * n) * np.fft.fft(b, 2 * n))
    expected = padded[n // 2 : n // 2 + n] * grid.dxi
    assert np.array_equal(_conv(a, b, grid), expected)
    # in held rows left full of other values, which it must overwrite
    held = np.full((2, 2 * n), np.nan, dtype=complex)
    assert np.array_equal(_conv(a, b, grid, lambda: held), expected)
    # the masks multiply the inputs, formed in the workspace
    mask = rng.uniform(size=n)
    padded = np.fft.ifft(np.fft.fft(mask * a, 2 * n) * np.fft.fft(b, 2 * n))
    masked = _lattice_conv(mask, a, np.ones(n), b, grid, _new_rows(n))
    assert np.array_equal(masked, padded[n // 2 : n // 2 + n] * grid.dxi)


def _shipped_kernels():
    """The kernels of every shipped configuration: verify-normal-form's
    defaults (criterion 6's grid and sweep), measure-decay's default gauge,
    and criterion 7's residual."""
    nf = NORMAL_FORM_DEFAULTS
    nf_grid = Grid(nf["n_points"], nf["box_length"])
    yield from (BandKernel(nf_grid, k, order, nf["ll_factor"])
                for k in nf["bands"] for order in nf["orders"])
    gauge = EXPERIMENT_DEFAULTS["gauge"]
    decay_grid = Grid(EXPERIMENT_DEFAULTS["n_points"], EXPERIMENT_DEFAULTS["box_length"])
    yield from (BandKernel(decay_grid, k, gauge["order"], gauge["ll_factor"])
                for k in gauge["bands"])
    yield BandKernel(Grid(8192, 400.0), 1.0, 4, 3.0)


def test_second_paraproduct_runs_on_no_shipped_config_and_at_length_2n_where_it_does(
        fft_lengths, rng):
    kernels = list(_shipped_kernels())
    assert len(kernels) == 13
    assert not any(kernel.ll_resolved for kernel in kernels)
    # chi_{<<k} resolves lattice modes: 3 transforms for each paraproduct,
    # all of length 2n in the kernel's one workspace
    grid = Grid(1024, 2000.0)
    kernel = BandKernel(grid, 1.0, 2, 1.0)
    assert kernel.ll_resolved
    c = coeffs_of(random_band_limited(grid, rng, 0.25).samples, grid)
    fft_lengths.clear()
    kernel.apply(c, c)
    assert fft_lengths == [2048] * 6 and all(fft_lengths.out)
    assert kernel._work.shape == (2, 2048)


def test_cancellation_takes_half_the_2n_transforms(fft_lengths, rng):
    # the second paraproduct of every half kernel is empty when chi_{<<k}
    # resolves only xi = 0: 5 paraproducts of 3 transforms each (30 before)
    grid = Grid(1024, 8.0 * np.pi)
    u = random_band_limited(grid, rng, 0.25)
    fft_lengths.clear()
    verify_nf_cancellation(u, 2.0, 4)
    assert fft_lengths.count(2048) == 15


def test_cancellation_transforms_u_once_and_builds_one_kernel(fft_lengths, rng, monkeypatch):
    # at most 10 grid-length transforms: u and u^2 forward, then one inverse
    # each for u_ll, u_k^+ and the six terms (29 field by field, which
    # transforms u seven times and i d^2u/dx^2 twice), and one BandKernel for
    # the three B_k terms
    built = []
    init = BandKernel.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BandKernel, "__init__", counted)
    grid = Grid(1024, 8.0 * np.pi)
    u = random_band_limited(grid, rng, 0.25)
    fft_lengths.clear()
    verify_nf_cancellation(u, 2.0, 4)
    assert fft_lengths.count(1024) <= 10
    assert fft_lengths.count(2048) == 15
    assert len(built) == 1


def _generator_terms_field_by_field(u, k, order, ll_factor):
    """The six generator terms formed field by field, one projection,
    derivative or ``assemble_B`` per piece: the reference that
    ``nf_generator_terms`` matches to roundoff."""
    grid = u.grid
    check_dealias_margin(u, coeffs_of(np.asarray(u.samples), grid))
    u_ll = lp_project(u, k - ll_factor * order, "leq")
    u_kp = lp_project(u, k, "plus")
    du = derivative(u)
    hpi_ddu = ComplexField(grid, 2j * half_project(derivative(u, 2), "-").samples)
    usq = multiply(u, u)
    return {
        "transport": -1j * lp_project(derivative(usq), k, "plus").samples,
        "gauge_hilbert": 2j * half_project(derivative(u_ll), "-").samples * u_kp.samples,
        "gauge_derivative": 2j * u_ll.samples * derivative(u_kp).samples,
        "b_left": 1j * assemble_B(k, order, hpi_ddu, u, ll_factor).samples,
        "b_right": 1j * assemble_B(k, order, u, hpi_ddu, ll_factor).samples,
        "b_derivative": -2.0 * assemble_B(k, order, du, du, ll_factor).samples,
    }


def _terms_and_warnings(generator, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        terms = generator(*args)
    return terms, [w.category for w in caught]


@pytest.mark.parametrize("n, box, fraction, k, order, factor, band_edge", [
    (512, 16 * np.pi, 0.25, 0.0, 2, 100.0, 0),
    (512, 16 * np.pi, 0.25, 0.0, 4, 100.0, 0),
    (512, 16 * np.pi, 0.25, 2.0, 2, 100.0, 0),
    (512, 16 * np.pi, 0.25, 2.0, 4, 100.0, 0),
    # 2^(k+1) reaches Nyquist: one BandEdgeWarning from each P_k^+, and an
    # AliasingWarning for the spectrum beyond a quarter of Nyquist
    (512, 16 * np.pi, 0.9, 4.0, 2, 100.0, 2),
    # chi_{<<k} resolves lattice modes, so the second paraproduct is not empty
    (1024, 2000.0, 0.25, -2.0, 1, 2.0, 0),
])
def test_generator_terms_match_the_field_by_field_terms(
        rng, n, box, fraction, k, order, factor, band_edge):
    u = random_band_limited(Grid(n, box), rng, fraction)
    reference, expected = _terms_and_warnings(_generator_terms_field_by_field, u, k, order, factor)
    terms, caught = _terms_and_warnings(nf_generator_terms, u, k, order, factor)
    assert terms.keys() == reference.keys()
    scale = max(np.max(np.abs(term)) for term in reference.values())
    for name, ref in reference.items():
        assert np.max(np.abs(terms[name].samples - ref)) <= 1e-13 * scale, name
    assert all(np.max(np.abs(reference[name])) > 0.0
               for name in ("transport", "b_left", "b_right", "b_derivative"))
    assert caught == expected and caught.count(BandEdgeWarning) == band_edge
    assert BandKernel(u.grid, k, order, factor).ll_resolved == (factor < 100.0)


def test_band_kernel_apply_with_the_shared_paraproduct_equals_apply_bitwise(rng):
    # also where chi_{<<k} covers lattice modes (factor 1, order 2), so that
    # the second paraproduct runs
    grid = Grid(1024, 2000.0)
    c = coeffs_of(random_band_limited(grid, rng, 0.25).samples, grid)
    kernels = [BandKernel(grid, k, order, factor)
               for k, order, factor in [(0.0, 4, 100.0), (2.0, 4, 100.0), (1.0, 2, 1.0)]]
    assert [kernel.ll_resolved for kernel in kernels] == [False, False, True]
    shared = kernels[0].paraproduct(c, c)
    # formed in place in the kernel's workspace, it is the lattice convolution of
    # the masked inputs bit for bit, and a second call reuses the workspace
    first = kernels[0]
    masked = (first.plus * c, first.both * c * first.inv2xi)
    assert np.array_equal(shared, _conv(masked[0], masked[1], grid))
    workspace = first._work
    assert np.array_equal(first.paraproduct(c, c), shared) and first._work is workspace
    for kernel in kernels:
        assert np.array_equal(kernel.apply(c, c, shared), kernel.apply(c, c))
    # a paraproduct of u serves only B_k(u, u)
    with pytest.raises(ValueError):
        kernels[0].apply(c, c.copy(), shared)


def test_assemble_B_memory_is_flat():
    # O(n) work arrays only, and nothing kept between calls
    import bolab.pseudoproduct as pp

    grid = Grid(16384, 400.0)
    u = soliton(1.0, 0.0, grid)
    namespace = dict(vars(pp))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assemble_B(3.0, 4, u, u, 3.0)
        peak = tracemalloc.get_traced_memory()[1] - base
        assemble_B(3.0, 4, u, u, 3.0)
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert retained < 2**20
    assert vars(pp).keys() == namespace.keys()
    assert all(vars(pp)[name] is value for name, value in namespace.items())


# ---------------------------------------------------------------------------
# Hoelder and pseudolocality properties
# ---------------------------------------------------------------------------


def test_hoelder_constant_stability(grid_medium, rng):
    # the measured constant is the batch maximum of the sup-norm ratio (an
    # empirical operator-norm estimate); it must agree across independent
    # batches within +-50% (single-pair ratios fluctuate more by nature)
    sym = BilinearSymbol(
        fn=lambda xi, eta: cutoffs.le_abs(2.0, xi) * cutoffs.le_abs(2.0, eta)
    )
    batch_constants = []
    for _ in range(4):
        worst = 0.0
        for _ in range(25):
            f = random_band_limited(grid_medium, rng, 0.25)
            g = random_band_limited(grid_medium, rng, 0.25)
            out = bilinear_apply(sym, f, g)
            worst = max(worst, out.sup_norm() / (f.sup_norm() * g.sup_norm()))
        batch_constants.append(worst)
    assert max(batch_constants) / min(batch_constants) < 3.0


def test_pseudolocality_slope(rng):
    # source separated from the observation window by 2^j, symbol at scale 2^k:
    # sup decays at least like <2^(j+k)>^-2.5 over j+k in [3, 9]
    g = Grid(2048, 256.0)
    obs = np.abs(g.x) <= 1.0
    htar = random_band_limited(g, rng, 0.25)
    measured = []
    for j, k in [(3, 0), (4, 0), (5, 0), (4, 1), (5, 1), (5, 2), (5, 3), (5, 4)]:
        sym = BilinearSymbol(
            fn=lambda xi, eta, k=k: cutoffs.le_abs(k, xi) * cutoffs.le_abs(k, eta),
            xi_support=(-(2.0 ** (k + 1)) - 1, 2.0 ** (k + 1) + 1),
        )
        f = Field(g, np.exp(-(((g.x - 2.0**j) / 0.5) ** 2)))
        out = bilinear_apply(sym, f, htar)
        val = np.max(np.abs(out.samples[obs])) / (f.sup_norm() * htar.sup_norm())
        measured.append((j + k, val))
    best = {}
    for jk, val in measured:
        best[jk] = max(best.get(jk, 0.0), val)
    fit = fit_decay(sorted(best.items()))
    assert fit.slope <= -2.5
