"""Radial grid, weighted quadrature, and boundary projection."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hamelflow import (BoundarySpectrum, DivergentTailError, FluxMismatchError,
                       RadialGrid, build_grid, grid as grid_module,
                       integrate_in_all, integrate_out_all, project_boundary,
                       synthesize_boundary)
from hamelflow.grid import (_CURVATURE_RAMP, _PHASE_JUMP_LIMIT, _SCAN_BLOCK,
                            _STEEP_SEGMENT_LIMIT, _complex_log, _expm1_over,
                            _log_ratios, _phasor_expm1, _scan_backward,
                            _scan_forward, _segment_power_integrals)


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


def test_pure_powers_integrate_exactly(grid):
    # The segment model reproduces single powers to machine precision,
    # including the extrapolated tail beyond r_max.
    for q, zeta in [(-3.0, 0.0), (-4.0, 0.0), (-3.5, 1.0 + 0.5j),
                    (-5.0, -1.0), (-4.2, 0.7 - 0.3j)]:
        f = grid.r ** q
        exact_out = -grid.r ** (q + 2.0) / (q + 2.0 - zeta)
        got = integrate_out_all(grid, f, zeta)
        assert np.max(np.abs(got - exact_out) / np.abs(exact_out)) < 1e-13
        exact_in = grid.r ** zeta * (grid.r ** (q + 2.0 - zeta) - 1.0) \
            / (q + 2.0 - zeta)
        got_in = integrate_in_all(grid, f, zeta)
        err_in = np.abs(got_in - exact_in)[1:] / np.abs(exact_in[1:]).max()
        assert err_in.max() < 1e-13


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-6.0, max_value=-3.5),
       st.floats(min_value=-1.0, max_value=1.5),
       st.floats(min_value=-2.0, max_value=2.0))
def test_random_powers_integrate_exactly(q, zr, zi):
    assume(q + 1.0 - zr <= -1.25)
    g = build_grid(1e3, 16)
    zeta = zr + 1j * zi
    got = integrate_out_all(g, g.r ** q, zeta)
    exact = -g.r ** (q + 2.0) / (q + 2.0 - zeta)
    assert np.max(np.abs(got - exact) / np.abs(exact)) < 1e-12


def test_mixture_error_is_second_order():
    def err(npd):
        g = build_grid(1e4, npd)
        f = g.r ** -2.3 + g.r ** -3.7
        exact = g.r ** -0.3 / 0.3 + g.r ** -1.7 / 1.7
        return np.max(np.abs(integrate_out_all(g, f, 0.0) - exact) / exact)

    e32, e64 = err(32), err(64)
    assert e64 < 1e-4
    assert e32 / e64 > 3.5


def test_tail_divergence_is_reported():
    g = build_grid(1e4, 32)
    with pytest.raises(DivergentTailError):
        integrate_out_all(g, g.r ** -0.5, 0.0)
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
    # sign changes disable the power model per segment; result stays finite
    # and close to the closed form of r sin(log r) r^-4.
    got = integrate_out_all(g, f, 0.0)
    assert np.all(np.isfinite(got))
    # int_r^inf s^-3 sin(log s) ds = r^-2 (2 sin(log r) + cos(log r)) / 5
    exact = g.r ** -2.0 * (2.0 * np.sin(np.log(g.r))
                           + np.cos(np.log(g.r))) / 5.0
    assert np.max(np.abs(got - exact)) < 5e-3 * np.abs(exact).max()


def batch_rows(g):
    """Rows taking every rule: power model, fallback segments, a tail that
    changes sign (magnitude-only fit), and a negligible tail."""
    x = np.log(g.r)
    flip = g.r ** -4.0
    flip[-5::2] *= -1.0
    rows = np.array([g.r ** -3.5, np.sin(3.0 * x) * g.r ** -4.0, flip,
                     np.exp(-g.r)], dtype=complex)
    zeta = np.array([1.0 + 0.5j, 0.0, 0.7 - 0.3j, 2.0])
    return rows, zeta


def test_row_stacks_match_single_rows():
    g = build_grid(1e4, 48)
    rows, zeta = batch_rows(g)
    for integrate, sign in ((integrate_out_all, 1.0), (integrate_in_all, -1.0)):
        batch = integrate(g, rows, sign * zeta)
        assert batch.shape == rows.shape
        for f, z, got in zip(rows, sign * zeta, batch):
            one = integrate(g, f, z)
            scale = np.abs(one).max()
            assert np.abs(got - one).max() <= 1e-14 * scale
    with pytest.raises(ValueError):
        integrate_out_all(g, rows, zeta[:2])


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
    kernel = grid_module._segment_power_integrals
    monkeypatch.setattr(grid_module, "_segment_power_integrals",
                        lambda s, a, *args: seen.append(len(a))
                        or kernel(s, a, *args))
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


def complex_segment_power_integrals(s_left, a, b, h, a_prev=None,
                                   b_next=None):
    """Reference: the segment rule in complex arithmetic (np.log, np.expm1)
    with masked writes; returns the integrals and the power-model mask."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.zeros_like(a)

    finite = np.isfinite(a) & np.isfinite(b)
    usable = finite & (a != 0) & (b != 0)
    with np.errstate(all="ignore"):
        ratio = np.where(usable, b, 1.0) / np.where(usable, a, 1.0)
        logr = np.log(ratio)
    usable &= (np.isfinite(logr)
               & (np.abs(logr.imag) < _PHASE_JUMP_LIMIT)
               & (np.abs(logr.real) < _STEEP_SEGMENT_LIMIT))
    logr = np.where(usable, logr, 0.0)

    z = np.where(usable, logr + h, 1.0)
    small = np.abs(z) < 1e-4
    phi1 = np.empty_like(z)
    zs = z[small]
    phi1[small] = 1.0 + zs / 2.0 + zs * zs / 6.0 + zs * zs * zs / 24.0
    phi1[~small] = np.expm1(z[~small]) / z[~small]
    ipow = np.where(usable, a * s_left * h * phi1, 0.0)

    eh = np.exp(h)
    f0 = a * s_left
    f1 = b * s_left * eh
    trap = 0.5 * h * (f0 + f1)
    ict = trap.copy()
    if a_prev is not None and b_next is not None:
        fm1 = np.asarray(a_prev, dtype=complex) * s_left / eh
        f2 = np.asarray(b_next, dtype=complex) * s_left * (eh * eh)
        with np.errstate(all="ignore"):
            corr = (h / 24.0) * (f2 - f1 - f0 + fm1)
        good = np.isfinite(corr) & (np.abs(corr) <= 0.5 * np.abs(trap))
        ict[good] -= corr[good]

    if logr.shape[-1] > 1:
        step = np.abs(np.diff(logr, axis=-1))
        drift = np.maximum(np.concatenate([step[..., :1], step], axis=-1),
                           np.concatenate([step, step[..., -1:]], axis=-1))
    else:
        drift = np.zeros(logr.shape)
    lo, hi = _CURVATURE_RAMP
    ramp = np.clip((drift / (h * h) - lo) / (hi - lo), 0.0, 1.0)
    wgt = ramp * ramp * (3.0 - 2.0 * ramp)
    wgt = np.where(usable, wgt, 1.0)

    mixed = (1.0 - wgt) * ipow + wgt * ict
    out[finite] = mixed[finite]
    return out, usable


def off_grid(i, j):
    """Neighbour lookup with every node off the grid: the trapezoid is left
    uncorrected."""
    nan = np.full(np.shape(i), np.nan, dtype=complex)
    return nan, nan


def out_segments(g, rows, zeta):
    """Arguments of the segment rule as integrate_out_all forms them: the
    whole stacks of neighbours, nan off the grid, for the reference rules,
    and the kernel's arguments, which look them up per segment."""
    base = g.r * rows
    step = np.exp(-zeta[:, None] * g.h)
    a_prev = np.full((len(rows), g.n_nodes - 1), np.nan, dtype=complex)
    a_prev[:, 1:] = base[:, :-2] / step
    b_next = np.full_like(a_prev, np.nan)
    b_next[:, :-1] = base[:, 2:] * (step * step)
    whole = (g.r[:-1], base[:, :-1], base[:, 1:] * step, g.h, a_prev, b_next)
    return whole, whole[:4] + (lambda i, j: (a_prev[i, j], b_next[i, j]),)


def kernel_rows(g):
    """Rows taking every branch of the segment rule, and their zeta."""
    x = np.log(g.r)
    flip = g.r ** -4.0 * np.sign(np.cos(2.0 * x))
    holes = g.r ** -4.0
    holes[100:110] = 0.0
    holes[200] = 0.0
    broken = g.r ** -4.0
    broken[50], broken[150] = np.nan, np.inf
    # per-segment phase and log-magnitude steps sweeping 2.3..2.7, across
    # the phase and steepness limits of the power model
    sweep = np.linspace(2.3, 2.7, g.n_nodes - 1)
    phase = np.exp(1j * np.concatenate([[0.0], np.cumsum(sweep)]))
    zigzag = np.exp(np.concatenate([[0.0], np.cumsum(
        sweep * (-1.0) ** np.arange(sweep.size))]))
    # (e^z - 1)/z at z = (2 + q - zeta) h just inside and just outside the
    # series branch |z| < 1e-4
    near = [-1.5 - dz / g.h for dz in (9e-5, 1.1e-4)]
    rows = np.array([g.r ** -3.5,                       # pure power
                     g.r ** -2.3 + g.r ** -3.7,         # mixture
                     np.sin(3.0 * x) * g.r ** -4.0,     # oscillatory
                     g.r ** (-4.0 + 2.0j),              # complex power
                     flip,                              # sign flips
                     holes,                             # isolated zeros
                     np.zeros(g.n_nodes),
                     phase * g.r ** -4.0,
                     zigzag * g.r ** -4.0,
                     g.r ** -3.5, g.r ** -3.5,
                     broken], dtype=complex)               # nan and inf
    zeta = np.array([1.0 + 0.5j, 0.0, 0.0, 0.7 - 0.3j, 2.0, 0.0, 1.0, 0.0,
                     0.0, *near, 0.0])
    return rows, zeta


def test_real_arithmetic_kernel_matches_the_complex_one():
    g = build_grid(1e4, 96)
    rows, zeta = kernel_rows(g)
    with np.errstate(all="ignore"):
        whole, args = out_segments(g, rows, zeta)
    for ref_args, kernel_args in ((whole, args),
                                  (whole[:4], args[:4] + (off_grid,))):
        # with and without neighbours
        with np.errstate(all="ignore"):
            ref, ref_usable = complex_segment_power_integrals(*ref_args)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _segment_power_integrals(*kernel_args)
            usable, *_ = _log_ratios(*kernel_args[1:3])
        assert np.array_equal(usable, ref_usable)
        a, b = kernel_args[1:3]
        finite = np.isfinite(a) & np.isfinite(b)
        assert np.sum(~finite) == 4         # the segments touching nan, inf
        scale = np.abs(ref).max(axis=1, keepdims=True)
        assert np.all(np.abs(got - ref) <= 1e-14 * scale)
    # every rule is taken: powers use the model throughout, the zero row
    # never, the sweeps on one side of the limits only
    assert np.all(usable[[0, 9, 10]]) and not np.any(usable[6])
    for sweeping in usable[7], usable[8]:
        assert sweeping.any() and not sweeping.all()


def whole_array_segment_rule(s_left, a, b, h, a_prev=None, b_next=None):
    """Reference: the segment rule with every rule and the blend formed on
    every segment, from the module's log ratios and (e^z - 1)/z; weight-0
    segments take the power model itself."""
    finite = np.isfinite(a) & np.isfinite(b)
    usable, logr, ratio, mag = _log_ratios(a, b)
    f0 = a * s_left
    z = np.where(usable, logr + h, 1.0)
    with np.errstate(all="ignore"):
        ipow = np.where(usable, f0 * h * _expm1_over(z, ratio, mag), 0.0)
    eh = np.exp(h)
    f1 = b * s_left * eh
    trap = 0.5 * h * (f0 + f1)
    ict = trap
    if a_prev is not None and b_next is not None:
        fm1 = a_prev * s_left / eh
        f2 = b_next * s_left * (eh * eh)
        with np.errstate(all="ignore"):
            corr = (h / 24.0) * (f2 - f1 - f0 + fm1)
            good = np.isfinite(corr) & (np.abs(corr) <= 0.5 * np.abs(trap))
            ict = np.where(good, trap - corr, trap)
    if logr.shape[-1] > 1:
        step = np.abs(np.diff(logr, axis=-1))
        drift = np.maximum(np.concatenate([step[..., :1], step], axis=-1),
                           np.concatenate([step, step[..., -1:]], axis=-1))
    else:
        drift = np.zeros(logr.shape)
    lo, hi = _CURVATURE_RAMP
    ramp = np.clip((drift / (h * h) - lo) / (hi - lo), 0.0, 1.0)
    wgt = ramp * ramp * (3.0 - 2.0 * ramp)
    wgt = np.where(usable, wgt, 1.0)
    mixed = (1.0 - wgt) * ipow + wgt * ict
    return np.where(finite, np.where(wgt == 0, ipow, mixed), 0.0)


@pytest.mark.parametrize("npd", [96, 8])
def test_blend_on_weighted_segments_is_bitwise_the_whole_array_blend(npd):
    # The stack holds unusable segments, some rows alone are all usable;
    # real rows put ipow's zero imaginary parts through the blend.
    g = build_grid(1e4, npd)
    rows, zeta = kernel_rows(g) if npd == 96 else batch_rows(g)
    with np.errstate(all="ignore"):
        whole, args = out_segments(g, rows, zeta)
    all_usable = 0
    for ref_args, kernel_args in ((whole, args),
                                  (whole[:4], args[:4] + (off_grid,))):
        with np.errstate(all="ignore"):
            ref = whole_array_segment_rule(*ref_args)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _segment_power_integrals(*kernel_args)
        assert got.tobytes() == ref.tobytes()
        for row in range(len(rows)):
            one_args = [v[row:row + 1] if np.ndim(v) == 2 else v
                        for v in ref_args]
            if len(one_args) > 4:
                a_prev, b_next = one_args[4:]
                one_args[4:] = [lambda i, j: (a_prev[i, j], b_next[i, j])]
            else:
                one_args.append(off_grid)
            with np.errstate(all="ignore"):
                one = _segment_power_integrals(*one_args)
                all_usable += _log_ratios(*one_args[1:3])[0].all()
            assert one.tobytes() == ref[row:row + 1].tobytes()
    assert all_usable >= 2    # an all-usable row alone, per neighbour case


def special_values():
    parts = np.array([0.0, -0.0, 1.5, -1.5, np.inf, -np.inf, np.nan])
    re, im = np.meshgrid(parts, parts)
    z = np.empty(re.size, dtype=complex)
    z.real, z.imag = re.ravel(), im.ravel()
    return z


def assert_same_specials(got, ref):
    """Same nans, infinities and signed zeros; finite values to 4 ulp."""
    for g_part, r_part in ((got.real, ref.real), (got.imag, ref.imag)):
        nan = np.isnan(r_part)
        assert np.array_equal(np.isnan(g_part), nan)
        g_part, r_part = g_part[~nan], r_part[~nan]
        assert np.array_equal(np.signbit(g_part), np.signbit(r_part))
        assert np.all((g_part == r_part) | (np.abs(g_part - r_part)
                                            <= 4 * np.spacing(np.abs(r_part))))


def test_real_arithmetic_log_matches_numpy():
    rng = np.random.default_rng(23)
    eps = np.finfo(float).eps
    n = 4000
    polar = 10.0 ** rng.uniform(-8, 8, n) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, n))
    near_one = 1.0 + 1e-3 * (rng.standard_normal(n)
                             + 1j * rng.standard_normal(n))
    tiny = 1e-5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    cut = -10.0 ** rng.uniform(-3, 3, 2 * n) + 0j     # the negative real axis
    cut.imag[n:] = -0.0
    z = np.concatenate([polar, near_one, tiny, cut])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, ref = _complex_log(z), np.log(z)
    assert np.all(np.abs(got - ref) <= 4 * eps * np.maximum(1.0, np.abs(ref)))
    # branch cut: arg(-x + 0i) = pi, arg(-x - 0i) = -pi
    assert np.all(got.imag[-2 * n:-n] == np.pi)
    assert np.all(got.imag[-n:] == -np.pi)
    with np.errstate(all="ignore"):
        assert_same_specials(_complex_log(special_values()),
                             np.log(special_values()))


def test_weight_zero_segments_return_the_power_model_bitwise():
    # Usable weight-0 segments where (1 - 0) ipow + 0 ict would not be
    # ipow: a -0 real part next to a corrected trapezoid with a positive
    # one, and values so large that the trapezoid overflows.
    n = 40
    s_left = np.exp(0.05 * np.arange(n))
    a = np.empty((3, n), dtype=complex)
    a[0] = complex(-0.0, 0.93)
    a[1] = complex(-1.5e308, 0.7)
    a[2] = complex(1e-200, -1.45e308)
    b = a * np.array([[1.0], [0.97], [1.0]])
    a_prev = np.full(a.shape, -1.2 + 0.0j)
    b_next = a_prev.copy()
    a_prev[:, 0] = b_next[:, -1] = np.nan
    with np.errstate(all="ignore"):
        usable, logr, ratio, mag = _log_ratios(a, b)
        ipow = a * s_left * 0.05 * _expm1_over(logr + 0.05, ratio, mag)
        trap = 0.025 * (a * s_left + b * s_left * np.exp(0.05))
        for with_neighbours in (True, False):
            extra = (a_prev, b_next) if with_neighbours else ()
            ref = whole_array_segment_rule(s_left, a, b, 0.05, *extra)
            lookup = ((lambda i, j: (a_prev[i, j], b_next[i, j]))
                      if with_neighbours else off_grid)
            got = _segment_power_integrals(s_left, a, b, 0.05, lookup)
            assert got.tobytes() == ref.tobytes()
            assert usable.all() and got.tobytes() == ipow.tobytes()
            assert np.all(np.signbit(got[0].real) & (got[0].real == 0))
            # finite wherever the model is, also where the trapezoid is not
            assert np.array_equal(np.isfinite(got), np.isfinite(ipow))
            assert np.any(np.isfinite(got[1:]) & ~np.isfinite(trap[1:]))


def whole_array_integrals(g, rows, zeta, out):
    """integrate_out_all (out) or integrate_in_all as the whole-array rule
    gives them, with the neighbours as whole stacks, nan off the grid."""
    base = g.r * rows
    step = np.exp((-1.0 if out else 1.0) * zeta[:, None] * g.h)
    a_prev = np.full((len(rows), g.n_nodes - 1), np.nan, dtype=complex)
    b_next = np.full_like(a_prev, np.nan)
    if out:
        a_prev[:, 1:] = base[:, :-2] / step
        b_next[:, :-1] = base[:, 2:] * (step * step)
        seg = whole_array_segment_rule(g.r[:-1], base[:, :-1],
                                       base[:, 1:] * step, g.h, a_prev, b_next)
        tail = grid_module._tail_value(g, base[:, -5:], step,
                                       np.abs(base).max(axis=1))
        return _scan_backward(np.column_stack([seg, tail]), step[:, 0])
    a_prev[:, 1:] = base[:, :-2] * (step * step)
    b_next[:, :-1] = base[:, 2:] / step
    seg = whole_array_segment_rule(g.r[:-1], base[:, :-1] * step, base[:, 1:],
                                   g.h, a_prev, b_next)
    return _scan_forward(np.column_stack([np.zeros(len(rows)), seg]),
                         step[:, 0])


@pytest.mark.parametrize("npd", [48, 8])
def test_integrators_are_bitwise_the_whole_array_rule(npd):
    g = build_grid(1e4, npd)
    rows, zeta = batch_rows(g)
    assert (integrate_out_all(g, rows, zeta).tobytes()
            == whole_array_integrals(g, rows, zeta, out=True).tobytes())
    assert (integrate_in_all(g, rows, -zeta).tobytes()
            == whole_array_integrals(g, rows, -zeta, out=False).tobytes())


def test_inner_integrals_of_every_branch_are_bitwise_the_whole_array_rule():
    g = build_grid(1e4, 96)
    rows, zeta = kernel_rows(g)
    live = np.any(rows != 0, axis=1)    # a zero row skips the quadrature
    with np.errstate(all="ignore"):
        got = integrate_in_all(g, rows[live], -zeta[live])
        ref = whole_array_integrals(g, rows[live], -zeta[live], out=False)
    assert got.tobytes() == ref.tobytes()


def test_real_arithmetic_expm1_matches_numpy():
    # e^z - 1 on the kernel's domain: z = x + i arg(ratio) for a finite
    # nonzero ratio of any modulus with |arg| < _PHASE_JUMP_LIMIT
    rng = np.random.default_rng(29)
    eps = np.finfo(float).eps
    n = 4000
    wide = rng.uniform(-30, 30, n) + 1j * rng.uniform(-10, 10, n)
    small = 1e-4 * rng.uniform(0, 1, n) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, n))                  # |z| < 1e-4
    axis = np.concatenate([rng.uniform(-1, 1, n) + 0j,
                           1j * rng.uniform(-1, 1, n)])
    cut = -10.0 ** rng.uniform(-3, 1, 2 * n) + 0j
    cut.imag[n:] = -0.0
    z = np.concatenate([wide, small, axis, cut])
    z = z[np.abs(z.imag) < _PHASE_JUMP_LIMIT]
    modulus = 10.0 ** rng.uniform(-3, 3, z.size)
    ratio = np.empty(z.shape, dtype=complex)
    ratio.real = modulus * np.cos(z.imag)
    ratio.imag = modulus * np.sin(z.imag)
    x = z.real
    z = x + 1j * np.arctan2(ratio.imag, ratio.real)   # the kernel's z
    z.imag[-n:] = -0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _phasor_expm1(x, ratio, np.abs(ratio))
    ref = np.expm1(z)
    # relative to |e^z - 1|: (e^z - 1)/z needs it for small |z|
    assert np.all(np.abs(got - ref) <= 4 * eps * np.abs(ref))
    assert np.array_equal(np.signbit(got.imag), np.signbit(ref.imag))
    assert np.all(np.signbit(got.imag[-n:]))


def sequential_scan(local, factor):
    out = []
    acc = 0.0
    for value in local:
        acc = factor * acc + value
        out.append(acc)
    return np.array(out)


def where_expm1_over(z, ratio, modulus):
    """(e^z - 1)/z with the series and the quotient both formed on every
    element and selected by |z| < 1e-4."""
    with np.errstate(all="ignore"):
        return np.where(np.abs(z) < 1e-4,
                        1.0 + z / 2.0 + z * z / 6.0 + z * z * z / 24.0,
                        _phasor_expm1(z.real, ratio, modulus) / z)


def test_series_on_small_z_only_is_bitwise_the_whole_array_select():
    rng = np.random.default_rng(5)
    edge = [0.0, -0.0, complex(0.0, -0.0), 9e-5, -9e-5, 9e-5j, 1.1e-4,
            -1.1e-4j, 1e-4, 6e-5 + 6e-5j, 8e-5 - 8e-5j, 1.0, -3.0 + 2.0j]
    phases = np.exp(2j * np.pi * rng.random(212))
    moduli = 10.0 ** rng.uniform(-9, 1, 212)
    z = np.concatenate([edge, moduli * phases])
    z = z[rng.permutation(z.size)].reshape(15, -1)   # a stack, edges anywhere
    ratio = 10.0 ** rng.uniform(-1, 1, z.shape) * np.exp(1j * z.imag)
    args = (z, ratio, np.abs(ratio))
    assert _expm1_over(*args).tobytes() == where_expm1_over(*args).tobytes()
    ones = (np.ones((2, 3), complex),) * 2 + (np.ones((2, 3)),)
    assert _expm1_over(*ones).tobytes() == \
        where_expm1_over(*ones).tobytes()   # none small


def test_segment_rule_is_bitwise_the_whole_array_select(monkeypatch):
    # Segments whose fitted power makes z = log(b/a) + h hit 0, 9e-5 and
    # 1.1e-4, next to generic ones; the rule gives the same bytes with the
    # whole-array select in place of the masked series.
    g = build_grid(1e4, 48)
    rng = np.random.default_rng(8)
    a = rng.standard_normal((4, g.n_nodes - 1)) + 1j
    z = rng.choice([0.0, 9e-5, -9e-5j, 1.1e-4, 0.3 - 0.2j], a.shape)
    b = a * np.exp(z - g.h)
    a_prev, b_next = np.roll(a, 1, axis=1), np.roll(b, -1, axis=1)
    args = (g.r[:-1], a, b, g.h, lambda i, j: (a_prev[i, j], b_next[i, j]))
    got = _segment_power_integrals(*args)
    calls = []
    monkeypatch.setattr(grid_module, "_expm1_over",
                        lambda *zs: calls.append(zs) or where_expm1_over(*zs))
    assert got.tobytes() == _segment_power_integrals(*args).tobytes()
    assert len(calls) == 1 and calls[0][0].shape == a.shape


def test_usable_segments_have_finite_nonzero_ends():
    # The usability test has no finite or nonzero mask: a quotient inside
    # both limits comes only from finite nonzero values.
    values = np.concatenate([special_values(), [1e-320, 1e308, -1e308j,
                                                3.0 - 4.0j, 1e-300 + 1e300j]])
    a, b = (v.ravel() for v in np.meshgrid(values, values))
    with np.errstate(all="ignore"):
        logr = np.log(b / a)
    expected = (np.isfinite(a) & np.isfinite(b) & (a != 0) & (b != 0)
                & (np.abs(logr.imag) < _PHASE_JUMP_LIMIT)
                & (np.abs(logr.real) < _STEEP_SEGMENT_LIMIT))
    assert expected.any() and not expected.all()
    usable, *_ = _log_ratios(a[None], b[None])
    assert np.array_equal(usable[0], expected)
    for k in range(a.size):
        usable, *_ = _log_ratios(a[None, k:k + 1], b[None, k:k + 1])
        assert usable[0, 0] == expected[k]


@pytest.mark.parametrize("r_max, npd", [(1e4, 64), (1e6, 64), (1e3, 8)])
def test_block_scan_matches_sequential_recurrence(r_max, npd):
    g = build_grid(r_max, npd)
    rng = np.random.default_rng(5)
    zeta = np.array([0.0, 1.0 + 0.3j, 64.0 + 2.0j, -3.5, -1.5 + 0.5j])
    factor = np.exp(-zeta * g.h)          # |factor| < 1, = 1 and > 1
    local = (rng.standard_normal((zeta.size, g.n_nodes))
             + 1j * rng.standard_normal((zeta.size, g.n_nodes)))
    forward = _scan_forward(local, factor)
    backward = _scan_backward(local, factor)
    assert np.all(np.isfinite(forward)) and np.all(np.isfinite(backward))
    for i in range(zeta.size):
        ref = sequential_scan(local[i], factor[i])
        assert np.abs(forward[i] - ref).max() <= 1e-12 * np.abs(ref).max()
        ref = sequential_scan(local[i, ::-1], factor[i])[::-1]
        assert np.abs(backward[i] - ref).max() <= 1e-12 * np.abs(ref).max()


def block_loop_scan(local, factor):
    """The block scan with its carry loop over whole blocks: each block is
    updated from the finished last value of the block before."""
    rows, n = local.shape
    size = _SCAN_BLOCK
    n_blocks = -(-n // size)
    x = np.zeros((rows, n_blocks * size), dtype=complex)
    x[:, :n] = local
    x = x.reshape(rows, n_blocks, size)
    powers = factor[:, None] ** np.arange(size + 1)
    lag = np.subtract.outer(np.arange(size), np.arange(size))
    toeplitz = np.where(lag >= 0, powers[:, np.maximum(lag, 0)], 0.0)
    scan = x @ toeplitz.transpose(0, 2, 1)
    carry_in = powers[:, 1:]
    for b in range(1, n_blocks):
        scan[:, b] += scan[:, b - 1, -1:] * carry_in
    return scan.reshape(rows, -1)[:, :n]


@pytest.mark.parametrize("n", [1, 5, 16, 17, 33, 97, 385])
def test_carry_vector_scan_is_bitwise_the_block_loop(n):
    rng = np.random.default_rng(n)
    zeta = np.array([0.0, 1.0 + 0.3j, 64.0 + 2.0j, -3.5, -1.5 + 0.5j])
    factor = np.exp(-zeta * 0.036)
    local = (rng.standard_normal((zeta.size, n))
             + 1j * rng.standard_normal((zeta.size, n)))
    assert (_scan_forward(local, factor).tobytes()
            == block_loop_scan(local, factor).tobytes())
    assert (_scan_backward(local, factor).tobytes()
            == block_loop_scan(local[:, ::-1], factor)[:, ::-1].tobytes())


def test_high_modes_stay_finite_on_long_grids():
    # e^{-zeta h j} underflows long before r_max = 1e6 at zeta = 64; the
    # block scan never forms those powers.
    g = build_grid(1e6, 64)
    f = g.r ** -3.0
    zeta = 64.0 + 1.0j
    out = integrate_out_all(g, f, zeta)
    inn = integrate_in_all(g, f, -zeta)
    assert np.all(np.isfinite(out)) and np.all(np.isfinite(inn))
    exact = -g.r ** -1.0 / (-1.0 - zeta)
    assert np.abs(out - exact).max() < 1e-12 * np.abs(exact).max()


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
    vr[0] = 0.0
    vt = (rng.standard_normal(n_max + 1)
          + 1j * rng.standard_normal(n_max + 1)) * 0.01
    vt[0] = 0.05
    spec = BoundarySpectrum(n_max=n_max, vr=vr, vtheta=vt, phi0=2.5,
                            mu0=0.35, mu=0.3)
    ur, ut = synthesize_boundary(spec, 64)
    assert np.max(np.abs(ur.imag)) < 1e-14
    back = project_boundary(ur.real, ut.real, n_max, mu=0.3)
    assert back.phi0 == pytest.approx(2.5, abs=1e-12)
    assert back.mu0 == pytest.approx(0.35, abs=1e-12)
    assert np.allclose(back.vr, vr, atol=1e-12)
    assert np.allclose(back.vtheta[1:], vt[1:], atol=1e-12)
    assert back.vtheta[0] == pytest.approx(0.35 - 0.3, abs=1e-12)


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

