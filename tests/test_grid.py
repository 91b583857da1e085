"""Radial grid, weighted quadrature, and boundary projection."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hamelflow import (BoundarySpectrum, DegenerateFluxError,
                       DivergentTailError, FluxMismatchError, RadialGrid,
                       ReferenceFlow, build_grid, grid as grid_module,
                       integrate_in_all, integrate_out_all, integrate_out_in,
                       project_boundary, synthesize_boundary, zeta_pair)
from hamelflow.grid import _cubic_weights, _scan_forward


def test_grid_construction():
    g = build_grid(1e4, 48)
    assert g.r[0] == 1.0
    assert g.r[-1] == pytest.approx(1e4, rel=1e-14)
    assert g.n_nodes == len(g.r)
    steps = np.diff(np.log(g.r))
    assert np.allclose(steps, g.h, rtol=1e-12)


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        RadialGrid(r_max=0.5, nodes_per_decade=48)
    with pytest.raises(ValueError):
        RadialGrid(r_max=1e4, nodes_per_decade=4)
    with pytest.raises(ValueError, match="gives 4 nodes; need at least 5"):
        RadialGrid(r_max=2.0, nodes_per_decade=8)
    assert RadialGrid(r_max=3.0, nodes_per_decade=8).n_nodes == 5


def observed_order(coarse, fine):
    """Order of convergence per doubling of the nodes per decade."""
    return np.log2(np.asarray(coarse) / np.asarray(fine))


def power_errors(g, cases):
    """Relative sup errors of the out and in integrals of r^q against their
    closed forms, one pair per (q, zeta)."""
    errs = []
    for q, zeta in cases:
        f = g.r ** q
        exact_out = -g.r ** (q + 2.0) / (q + 2.0 - zeta)
        got = integrate_out_all(g, f, zeta)
        exact_in = g.r ** zeta * (g.r ** (q + 2.0 - zeta) - 1.0) \
            / (q + 2.0 - zeta)
        got_in = integrate_in_all(g, f, zeta)
        errs.append((np.max(np.abs(got - exact_out) / np.abs(exact_out)),
                     np.max(np.abs(got_in - exact_in)[1:])
                     / np.abs(exact_in[1:]).max()))
    return np.array(errs)


def test_pure_powers_integrate_exactly(grid):
    # The cubic rule is not exact on powers of r; it converges to them at
    # fourth order, and the tail beyond r_max extrapolates them exactly.
    cases = [(-3.0, 0.0), (-4.0, 0.0), (-3.5, 1.0 + 0.5j), (-5.0, -1.0),
             (-4.2, 0.7 - 0.3j)]
    coarse = power_errors(grid, cases)
    fine = power_errors(build_grid(1e4, 96), cases)
    assert fine.max() < 1e-6                      # 4.1e-7 at 96 nodes/decade
    assert observed_order(coarse, fine).min() >= 3.5


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-6.0, max_value=-3.5),
       st.floats(min_value=-1.0, max_value=1.5),
       st.floats(min_value=-2.0, max_value=2.0))
def test_random_powers_integrate_exactly(q, zr, zi):
    assume(q + 1.0 - zr <= -1.25)
    zeta = zr + 1j * zi

    def err(npd):
        g = build_grid(1e3, npd)
        got = integrate_out_all(g, g.r ** q, zeta)
        exact = -g.r ** (q + 2.0) / (q + 2.0 - zeta)
        return np.max(np.abs(got - exact) / np.abs(exact))

    e32, e64 = err(32), err(64)
    assert e64 < 1e-5                             # 6.7e-6 at worst
    assert observed_order(e32, e64) >= 3.5


def test_mixture_error_is_fourth_order():
    # Measured on the segment part out_j - out_J: the tail's fitted single
    # power sets a floor near 1e-5 on the whole integral of a mixture.
    def err(npd):
        g = build_grid(1e4, npd)
        f = g.r ** -2.3 + g.r ** -3.7
        exact = g.r ** -0.3 / 0.3 + g.r ** -1.7 / 1.7
        got = integrate_out_all(g, f, 0.0)
        whole = np.max(np.abs(got - exact) / exact)
        segments = np.max(np.abs((got - got[-1]) - (exact - exact[-1]))
                          / exact)
        return whole, segments

    (_, s32), (w64, s64) = err(32), err(64)
    assert w64 < 1e-4
    assert s64 < 5e-8                             # 3.1e-8 at 64 nodes/decade
    assert observed_order(s32, s64) >= 3.5


def graded_gauss(z, points=100):
    """Gauss-Legendre nodes and weights on [0, 1], ``points`` on each panel
    of a mesh graded to e^{-z u}: [0, 1] for |z| <= 1, else panels ending
    at 2^i / |z| and at 1."""
    x, wq = np.polynomial.legendre.leggauss(points)
    scale = max(abs(z), 1.0)
    ends = [0.0] + [2.0 ** i / scale for i in range(int(np.log2(scale)) + 1)]
    ends = np.unique(np.minimum(ends + [1.0], 1.0))
    lo, hi = ends[:-1, None], ends[1:, None]
    return ((lo + hi + (hi - lo) * x) / 2.0).ravel(), \
        ((hi - lo) / 2.0 * wq).ravel()


def test_cubic_weights_match_direct_quadrature():
    # Weight k of a stencil is int_0^1 L_k(u) e^{-z u} du for the Lagrange
    # basis on its nodes: compare with Gauss-Legendre on both sides of the
    # switch from the moments' series to their recurrence, and for the
    # large |z| (Re z >= 0) of high modes, where the series' powers of z
    # would overflow if they were formed (tier-1 fails on the warning).
    z = np.array([0.0, 1e-3, 0.3 - 0.2j, -0.999, 0.999j, 1.0, -1.001,
                  1.5 + 2.0j, -1.4, 18.0, 2.3 + 0.1j, 20.0, 1e3,
                  1e3 + 50j, 1e20])[:, None]
    ref = []
    for zi in z[:, 0]:
        u, wq = graded_gauss(zi)
        row = []
        for nodes in ([0, 1, 2, 3], [-1, 0, 1, 2], [-2, -1, 0, 1]):
            for k in nodes:
                basis = np.prod([(u - m) / (k - m) for m in nodes if m != k],
                                axis=0)
                row.append(np.sum(wq * basis * np.exp(-zi * u)))
        ref.append(row)
    ref = np.array(ref)
    got = _cubic_weights(z)
    assert got.shape == ref.shape
    scale = np.abs(ref).max(axis=1, keepdims=True)
    assert np.all(np.abs(got - ref) <= 1e-14 * scale)


def test_tail_divergence_is_reported():
    g = build_grid(1e4, 32)
    with pytest.raises(DivergentTailError):
        integrate_out_all(g, g.r ** -0.5, 0.0)
    # Any fitted p >= -1 diverges, the log-divergent r^-1 itself and a tail
    # within 1e-6 of it included: none is clamped to a convergent floor.
    g64 = build_grid(1e4, 64)
    for p in (-2.0, -1.9999995):
        with pytest.raises(DivergentTailError, match="r\\^-1 at"):
            integrate_out_all(g64, g64.r ** p, 0.0)
    # A shallow but convergent tail is clamped to the configured floor
    # (conservative truncation) instead of trusting the noisy fit.
    out = integrate_out_all(g, g.r ** -2.05, 0.0)
    clamped = g.r_max ** -1.05 * g.r_max / 0.1
    assert out[-1].real == pytest.approx(clamped, rel=1e-10)
    # A zero among the last five samples leaves no exponent to fit (its
    # log ratios are -inf and inf): the tail takes the floor too.
    f = g.r ** -4.0
    f[-3] = 0.0
    out = integrate_out_all(g, f, 0.0)
    assert out[-1].real == pytest.approx(g.r_max ** -2.0 / 0.1, rel=1e-10)


def test_negligible_tails_are_dropped():
    g = build_grid(1e4, 32)
    f = np.exp(-g.r)          # underflows to zero well before r_max
    out = integrate_out_all(g, f, 0.0)
    assert np.all(np.isfinite(out))
    assert out[-1] == 0.0
    assert out[0].real == pytest.approx(np.exp(-1.0) * 2.0, rel=5e-3)


def test_oscillatory_integrands_take_fallback():
    g = build_grid(1e4, 48)
    f = np.sin(np.log(g.r)) * g.r ** -4.0
    # sign changes take the same segment rule as any other integrand.  The
    # last five samples keep one sign (log r_max = 9.21 < 3 pi), so the
    # tail is the plain power fit: the modulus-only fallback is tested by
    # test_sign_changing_tails_stay_real.
    got = integrate_out_all(g, f, 0.0)
    assert np.all(np.isfinite(got))
    # int_r^inf s^-3 sin(log s) ds = r^-2 (2 sin(log r) + cos(log r)) / 5
    exact = g.r ** -2.0 * (2.0 * np.sin(np.log(g.r))
                           + np.cos(np.log(g.r))) / 5.0
    assert np.max(np.abs(got - exact)) < 1e-5 * np.abs(exact).max()


def test_sign_changing_tails_stay_real():
    # A real row whose zero crossing lies among the last five samples has a
    # log ratio of phase pi; fitted as a complex exponent it would give the
    # tail of a real integral an imaginary part (3.9e-7 of the row with the
    # crossing 1.5 spacings before r_max).  The modulus-only fallback keeps
    # it real wherever the tail converges.
    g = build_grid(1e4, 64)
    x_end = np.log(g.r_max)
    converged = 0
    for t in np.linspace(0.0, 4.0, 17):    # crossing t spacings before r_max
        f = np.sin(np.log(g.r) - (x_end - t * g.h)) * g.r ** -3.0
        try:
            out = integrate_out_all(g, f, 0.0)
        except DivergentTailError:   # the modulus fit reads some as growing
            continue
        converged += 1
        assert np.all(out.imag == 0.0), t
    assert converged >= 11


def batch_rows(g):
    """Rows taking every tail model: a complex power fit, a sign-changing
    row, a tail that changes sign (magnitude-only fit), and a negligible
    tail."""
    x = np.log(g.r)
    flip = g.r ** -4.0
    flip[-5::2] *= -1.0
    rows = np.array([g.r ** -3.5, np.sin(3.0 * x) * g.r ** -4.0, flip,
                     np.exp(-g.r)], dtype=complex)
    zeta = np.array([1.0 + 0.5j, 0.0, 0.7 - 0.3j, 2.0])
    return rows, zeta


def stacked_rows(g, size):
    """``size`` rows cycling through ``batch_rows``, each scaled and with its
    exponent moved along the real axis, so no two rows are alike."""
    rows, zeta = batch_rows(g)
    i = np.arange(size)
    return (rows[i % len(rows)] * (1.0 + 0.1 * i)[:, None],
            zeta[i % len(zeta)] + 0.25 * (i // len(zeta)))


def test_row_stacks_match_single_rows():
    # A row integrates to the same bits alone or in any stack: every
    # product in the kernels is taken per row, none across the rows.
    g = build_grid(1e4, 48)
    for size in (1, 2, 4, 13, 17, 33):
        rows, zeta = stacked_rows(g, size)
        for integrate, sign in ((integrate_out_all, 1.0),
                                (integrate_in_all, -1.0)):
            batch = integrate(g, rows, sign * zeta)
            assert batch.shape == rows.shape
            for f, z, got in zip(rows, sign * zeta, batch):
                assert got.tobytes() == integrate(g, f, z).tobytes(), size
        z = np.concatenate([zeta * g.h, 0.3 * zeta])[:, None]  # |z| < 1, > 1
        weights = _cubic_weights(z)
        for i, got in enumerate(weights):
            assert got.tobytes() == _cubic_weights(z[i:i + 1])[0].tobytes()
    with pytest.raises(ValueError):
        integrate_out_all(g, rows, zeta[:-1])


def test_one_divergent_row_fails_the_stack():
    g = build_grid(1e4, 48)
    rows, zeta = batch_rows(g)
    bad = np.vstack([rows, g.r ** -0.5])
    with pytest.raises(DivergentTailError) as info:
        integrate_out_all(g, bad, np.append(zeta, 0.0))
    # the integrand s f(s) = s^0.5 is the one fitted
    assert info.value.exponent == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(DivergentTailError):
        integrate_out_all(g, bad[-1], 0.0)


def bits(a):
    """The bit patterns of a complex array: equal only if bitwise equal."""
    return np.ascontiguousarray(a).view(np.uint64)


def positive_zero(a):
    return (not np.any(a) and not np.any(np.signbit(a.real))
            and not np.any(np.signbit(a.imag)))


def live_rows(g, integrate):
    rows, zeta = batch_rows(g)
    if integrate is integrate_in_all:
        return rows, -zeta
    # the mean mode's sink-weighted inner integral, zeta = -(phi0 + 1)
    return np.vstack([rows, g.r ** -6.0]), np.append(zeta, -(1.5 + 1.0))


@pytest.mark.parametrize("integrate", [integrate_out_all, integrate_in_all],
                         ids=["out", "in"])
def test_zero_rows_are_skipped_exactly(integrate, monkeypatch):
    g = build_grid(1e4, 48)
    rows, zeta = live_rows(g, integrate)
    stack = np.zeros((2 * len(rows) + 1, g.n_nodes), dtype=complex)
    stack[1::2] = rows
    zetas = np.full(len(stack), 0.5 + 0.25j) * np.sign(zeta[0].real)
    zetas[1::2] = zeta

    seen = []
    kernel = grid_module._segment_integrals
    monkeypatch.setattr(grid_module, "_segment_integrals",
                        lambda d, *args: seen.append(len(d))
                        or kernel(d, *args))
    got = integrate(g, stack, zetas)
    assert seen == [len(rows)]          # only the live rows are integrated
    for f, z, row in zip(stack, zetas, got):
        assert np.array_equal(bits(row), bits(integrate(g, f, z)))
    assert positive_zero(got[0::2])
    assert np.all(np.abs(got[1::2]).max(axis=1) > 0)

    seen.clear()
    none = integrate(g, np.zeros((3, g.n_nodes)), zetas[:3])
    one = integrate(g, np.zeros(g.n_nodes), zetas[1])
    assert none.shape == (3, g.n_nodes) and one.shape == (g.n_nodes,)
    assert positive_zero(none) and positive_zero(one)
    assert seen == []


def test_divergent_row_among_zero_rows_fails_the_stack():
    g = build_grid(1e4, 48)
    stack = np.zeros((3, g.n_nodes), dtype=complex)
    stack[1] = g.r ** -0.5
    with pytest.raises(DivergentTailError) as info:
        integrate_out_all(g, stack, np.zeros(3))
    assert info.value.exponent == pytest.approx(0.5, abs=1e-9)
    assert (info.value.row, info.value.zeta) == (1, 0.0)
    # Rows count in the caller's stack, past the skipped zero row; of two
    # diverging rows the worse is named, with its own kernel exponent.
    stack[2] = g.r ** -0.2
    with pytest.raises(DivergentTailError) as info:
        integrate_out_all(g, stack, [0.0, 0.25 + 0.5j, 0.5 - 0.25j])
    assert (info.value.row, info.value.zeta) == (2, 0.5 - 0.25j)
    assert info.value.exponent == pytest.approx(0.3, abs=1e-9)
    assert str(info.value).endswith("(kernel row 2, zeta=0.5-0.25j)")


def test_scan_growth_beyond_the_double_range_raises():
    # At r_max = 1e6 an out row at zeta = -61 grows by r_max^61 = 1e366
    # over the grid, and its scan would return NaN: the call raises and
    # names the row of the caller's stack.  A zero row costs nothing and
    # raises nothing, whatever its exponent.
    g = build_grid(1e6, 64)
    stack = np.zeros((3, g.n_nodes), dtype=complex)
    stack[2] = g.r ** -63.0
    with pytest.raises(OverflowError,
                       match=r"\(out kernel row 2, zeta=-61\+0j\)$"):
        integrate_out_all(g, stack, [0.0, -70.0, -61.0])
    with pytest.raises(OverflowError,
                       match=r"\(in kernel row 0, zeta=61\+0j\)$"):
        integrate_in_all(g, g.r ** -63.0, 61.0)
    assert positive_zero(integrate_out_all(g, stack[:2], [0.0, -70.0]))
    # e^704 stays in range
    assert np.isfinite(integrate_out_all(g, g.r ** -60.0, -51.0)).all()


def test_paired_call_is_the_two_one_sided_calls(monkeypatch):
    # integrate_out_in integrates a family's out and in stacks in one
    # kernel call.  Its out rows are the bytes of integrate_out_all; its in
    # rows take the rule on a reversed copy instead of a reversed view, so
    # they may move in the last bits.
    g = build_grid(1e4, 48)
    rows, zeta = live_rows(g, integrate_out_all)
    in_rows, in_zeta = live_rows(g, integrate_in_all)
    seen = []
    kernel = grid_module._segment_integrals
    monkeypatch.setattr(grid_module, "_segment_integrals",
                        lambda d, *args: seen.append(len(d))
                        or kernel(d, *args))
    out, inn = integrate_out_in(g, rows, zeta, in_rows, in_zeta)
    assert seen == [len(rows) + len(in_rows)]
    assert np.array_equal(bits(out), bits(integrate_out_all(g, rows, zeta)))
    want = integrate_in_all(g, in_rows, in_zeta)
    scale = np.abs(want).max(axis=1, keepdims=True)
    assert np.all(np.abs(inn - want) <= 1e-14 * scale)

    # zero rows on either side come back as +0, and sides without a live
    # row cost no kernel work
    seen.clear()
    stack = np.zeros((len(rows) + 2, g.n_nodes), dtype=complex)
    stack[1:-1] = rows
    zetas = np.concatenate([[0.5], zeta, [1.5]])
    out, inn = integrate_out_in(g, stack, zetas, np.zeros((2, g.n_nodes)),
                                [-1.0, -2.0])
    assert seen == [len(rows)]
    assert positive_zero(out[[0, -1]]) and positive_zero(inn)
    assert np.array_equal(bits(out[1:-1]), bits(integrate_out_all(g, rows,
                                                                  zeta)))
    out, inn = integrate_out_in(g, np.zeros(g.n_nodes), 1.0, in_rows[0],
                                in_zeta[0])
    assert out.shape == inn.shape == (g.n_nodes,) and positive_zero(out)
    assert np.abs(inn - want[0]).max() <= 1e-14 * scale[0, 0]
    seen.clear()
    out, inn = integrate_out_in(g, np.zeros((3, g.n_nodes)), np.ones(3),
                                np.zeros((1, g.n_nodes)), [-1.0])
    assert seen == [] and positive_zero(out) and positive_zero(inn)

    # a diverging out row behind zero rows is named in the caller's out
    # stack, whatever the in stack holds
    stack = np.zeros((3, g.n_nodes), dtype=complex)
    stack[2] = g.r ** -0.5
    with pytest.raises(DivergentTailError) as info:
        integrate_out_in(g, stack, [0.0, 0.5, 0.25 + 0.5j], in_rows, in_zeta)
    assert (info.value.row, info.value.zeta) == (2, 0.25 + 0.5j)
    # s f(s) (r_max/s)^zeta = s^0.5 s^-(0.25 + 0.5j)
    assert info.value.exponent == pytest.approx(0.25, abs=1e-9)


def sequential_scan(local, factor):
    out = []
    acc = 0.0
    for value in local:
        acc = factor * acc + value
        out.append(acc)
    return np.array(out)


def assert_scans_match_sequential(local, factor):
    """The block scan of each row, forward and reversed (as the out
    integrals scan), within 1e-13 of the row's largest value."""
    forward = _scan_forward(local, factor)
    backward = _scan_forward(local[:, ::-1], factor)[:, ::-1]
    assert np.all(np.isfinite(forward)) and np.all(np.isfinite(backward))
    for i in range(len(local)):
        ref = sequential_scan(local[i], factor[i])
        assert np.abs(forward[i] - ref).max() <= 1e-13 * np.abs(ref).max()
        ref = sequential_scan(local[i, ::-1], factor[i])[::-1]
        assert np.abs(backward[i] - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("r_max, npd", [(1e4, 64), (1e6, 64), (1e3, 8)])
def test_block_scan_matches_sequential_recurrence(r_max, npd):
    g = build_grid(r_max, npd)
    rng = np.random.default_rng(5)
    zeta = np.array([0.0, 1.0 + 0.3j, 64.0 + 2.0j, -3.5, -1.5 + 0.5j])
    factor = np.exp(-zeta * g.h)          # |factor| < 1, = 1 and > 1
    local = (rng.standard_normal((zeta.size, g.n_nodes))
             + 1j * rng.standard_normal((zeta.size, g.n_nodes)))
    assert_scans_match_sequential(local, factor)


@pytest.mark.parametrize("n", [1, 5, 16, 17, 33, 97, 385])
def test_carry_product_scan_matches_sequential_recurrence(n):
    # Lengths from one partial block to 25 blocks, with factors of modulus
    # < 1, = 1 and > 1: the carries from one Toeplitz product keep every
    # node within the bound (about 5e-15 of the row here).
    rng = np.random.default_rng(n)
    zeta = np.array([0.0, 1.0 + 0.3j, 64.0 + 2.0j, -3.5, -1.5 + 0.5j])
    factor = np.exp(-zeta * 0.036)
    local = (rng.standard_normal((zeta.size, n))
             + 1j * rng.standard_normal((zeta.size, n)))
    assert_scans_match_sequential(local, factor)


def test_high_modes_stay_finite_on_long_grids():
    # e^{-zeta h j} underflows long before r_max = 1e6 at zeta = 64; the
    # block scan never forms those powers.
    zeta = 64.0 + 1.0j
    errs = []
    for npd in (64, 128):
        g = build_grid(1e6, npd)
        f = g.r ** -3.0
        out = integrate_out_all(g, f, zeta)
        inn = integrate_in_all(g, f, -zeta)
        assert np.all(np.isfinite(out)) and np.all(np.isfinite(inn))
        exact = -g.r ** -1.0 / (-1.0 - zeta)
        errs.append(np.abs(out - exact).max() / np.abs(exact).max())
    assert errs[1] < 3e-9                         # 1.5e-9 at 128 nodes/decade
    assert observed_order(*errs) >= 3.5


def test_block_powers_match_node_powers():
    # r_j^z from a (rows, blocks) and a (rows, 16) table agrees with the
    # per-node power to the rounding of the exponent z log r: both sides
    # round it, and at |z log r| = 450 that alone is a few 1e-14 each
    # (1.0e-13 apart at most here).  Rows keep their bits in any stack.
    g = build_grid(1e6, 128)
    n = np.arange(1, 33)
    for z in (zeta_pair(1.5, 1.0, n)[1], -n.astype(float)):
        got = g.powers(z)
        want = g.r ** z[:, None]
        assert got.dtype == want.dtype
        assert np.max(np.abs(got - want) / np.abs(want)) <= 2e-13
        for i in (0, 13, 31):
            assert got[i].tobytes() == g.powers(z[i:i + 1])[0].tobytes()


def test_block_expm1_powers_match_node_expm1():
    # (r_j^z - 1)/z from the block tables agrees with expm1 of z log r
    # over z, is log r to rounding at z == 0 and stays by it for z within
    # 1e-12 of 0; no row overflows, growing ones (Re z > 0) included.
    g = build_grid(1e6, 128)
    z = np.array([0.0, 1e-15, -3e-9 + 1e-12j, 1e-6, 0.9 - 0.7j, -2.5,
                  -57.0 + 1.0j, 2.0])
    got = g.expm1_powers(z)
    log_r = np.log(g.r)
    want = np.array([np.expm1(v * log_r) / v if v else log_r for v in z])
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want) / np.abs(want).max(axis=1)[:, None]
                  ) <= 1e-13
    x = g.log_r[1:]
    assert np.max(np.abs(got[0, 1:] - x) / x) <= 1e-15
    assert np.max(np.abs(got[1, 1:] - x) / x) <= 1e-13


def test_empty_exponent_lists_give_no_rows():
    g = build_grid(1e4, 48)
    for table in (g.powers, g.expm1_powers):
        assert table(np.array([])).shape == (0, g.n_nodes)


def test_domain_doubling_leaves_head_unchanged():
    f = lambda r: r ** -4.0
    g1, g2 = build_grid(1e4, 32), build_grid(1e8, 32)
    o1 = integrate_out_all(g1, f(g1.r), 0.0)[0]
    o2 = integrate_out_all(g2, f(g2.r), 0.0)[0]
    assert abs(o1 - o2) < 1e-12 * abs(o1)


def test_projection_round_trip(rng):
    n_max = 6
    vr = (rng.standard_normal(n_max + 1)
          + 1j * rng.standard_normal(n_max + 1)) * 0.01
    vt = (rng.standard_normal(n_max + 1)
          + 1j * rng.standard_normal(n_max + 1)) * 0.01
    spec = BoundarySpectrum(n_max=n_max, vr=vr, vtheta=vt, phi0=2.5,
                            mu0=0.35, mu=0.3)
    ur, ut = synthesize_boundary(spec, 64)
    assert np.max(np.abs(ur.imag)) < 1e-14
    back = project_boundary(ur.real, ut.real, n_max, mu=0.3)
    assert back.phi0 == pytest.approx(2.5, abs=1e-12)
    assert back.mu0 == pytest.approx(0.35, abs=1e-12)
    assert np.allclose(back.vr, spec.vr, atol=1e-12)
    assert np.allclose(back.vtheta, spec.vtheta, atol=1e-12)


def test_projection_flux_cross_check():
    theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    ur = -2.5 + 0.01 * np.cos(theta)
    ut = 0.3 + 0.01 * np.sin(theta)
    spec = project_boundary(ur, ut, 4, mu=0.3, phi0=2.5)
    assert spec.phi0 == 2.5
    with pytest.raises(FluxMismatchError):
        project_boundary(ur, ut, 4, mu=0.3, phi0=2.6)
    with pytest.raises(ValueError):
        project_boundary(ur[:6], ut[:6], 4, mu=0.3)


def test_with_mu_only_moves_mean_trace():
    spec = BoundarySpectrum(n_max=2, vr=np.zeros(3, complex),
                            vtheta=np.array([0.1, 0.01, 0.0], complex),
                            phi0=2.5, mu0=0.3, mu=0.2)
    moved = spec.with_mu(0.25)
    assert moved.mu == 0.25
    assert moved.vtheta[0] == pytest.approx(0.3 - 0.25)
    assert np.array_equal(moved.vr, spec.vr)
    assert np.array_equal(moved.vtheta[1:], spec.vtheta[1:])


def test_spectrum_owns_its_rows():
    vr = np.array([0.0, 0.01, 0.0], complex)
    spec = BoundarySpectrum(2, vr, [0.1, 0.0, 0.02j], 2.5, 0.3, 0.2)
    vr[1] = 1.0
    assert spec.vr[1] == 0.01
    assert spec.vtheta.dtype == complex
    with pytest.raises(ValueError, match="shape"):
        BoundarySpectrum(2, np.zeros(4, complex), np.zeros(3, complex),
                         2.5, 0.3, 0.2)
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        BoundarySpectrum.from_modes(-1, 2.5, 0.3, 0.2)
    # index 0 is derived, and modes beyond n_max have no row
    for modes in ({0: 0.1}, {3: 0.01}):
        with pytest.raises(ValueError, match="outside 1..2"):
            BoundarySpectrum.from_modes(2, 2.5, 0.3, 0.2, vtheta=modes)


def test_spectrum_carries_its_checked_flow():
    spec = BoundarySpectrum.from_modes(2, 2.5, 0.3, 0.2, vr={1: 0.01})
    assert spec.flow == ReferenceFlow(2.5, 0.2)
    assert spec.with_mu(0.25).flow == ReferenceFlow(2.5, 0.25)
    for args in ((1, 2.0000001, 0.3, 0.2), (1, 0.0, 0.0, 0.0)):
        with pytest.raises(DegenerateFluxError):
            BoundarySpectrum.from_modes(*args)
    # with_mu checks again
    with pytest.raises(DegenerateFluxError, match="phi0=0 with mu=0"):
        BoundarySpectrum.from_modes(1, 0.0, 0.0, 0.5).with_mu(0.0)
    # an inferred flux is checked by the same rule
    theta = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    with pytest.raises(ValueError, match="nonnegative"):
        project_boundary(0.5 + 0.01 * np.cos(theta), np.zeros(8), 2, mu=0.0)
    with pytest.raises(ValueError, match="8 samples cannot resolve n_max=4; "
                                         "need at least 10"):
        project_boundary(-2.5 + 0 * theta, 0 * theta, 4, mu=0.0)
