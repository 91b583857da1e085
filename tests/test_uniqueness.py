"""Sharp constants of the inequalities behind the uniqueness window, and
the one-sided cross-check of the forms on random samples."""

import dataclasses

import numpy as np
import pytest

import hamelflow.uniq
import hamelflow.verify
from hamelflow import build_grid
from hamelflow.uniq import (QFormResult, _high_mode_eigenvalues, _q_pencils,
                            hardy_check, hardy_sharpness,
                            poincare_wirtinger_check, positivity_factor,
                            positivity_roots, probe_q1_negativity, q_form,
                            random_stream, random_w_profile)


def _at_nodes_per_decade(monkeypatch, npd, compute):
    """``compute()`` with the sharp constants on (1e4, npd)."""
    monkeypatch.setattr(hamelflow.uniq, "_SHARP_GRID", (1e4, npd))
    return compute()


def test_hardy_holds_on_random_profiles():
    # No seeded profile beats the sharp constant beta^2/(beta^2 + (pi/L)^2)
    # (the seeds the battery's cross-check draws from, 100 profiles each).
    grid = build_grid(*hamelflow.uniq._SHARP_GRID)
    sharp = hardy_sharpness()
    for seed in (0, 1, 7):
        w, dw = random_w_profile(grid, np.random.default_rng(seed), size=100)
        for alpha, (closed, _) in sharp.items():
            res = hardy_check(grid, w, dw, alpha)
            assert np.all(res.ok)
            assert res.ratio.max() < closed


def test_hardy_constant_is_nearly_attained(monkeypatch):
    # The largest eigenvalue lies within 1e-3 of the closed form and moves
    # toward it under refinement.
    errors = {}
    for npd in (16, 32):
        sharp = _at_nodes_per_decade(monkeypatch, npd, hardy_sharpness)
        closed = [c for c, _ in sharp.values()]
        np.testing.assert_allclose(closed, [0.34946, 0.68242, 0.89578],
                                   atol=1e-5)
        errors[npd] = np.array([abs(e - c) for c, e in sharp.values()])
        assert errors[npd].max() < 1e-3
    assert np.all(errors[32] < errors[16])


def test_hardy_requires_alpha_above_one(grid, rng):
    w, dw = random_w_profile(grid, rng)
    with pytest.raises(ValueError):
        hardy_check(grid, w, dw, 1.0)


def test_positivity_factor_window():
    for phi0 in (2.5, 3.0, 4.0):
        edges = (3.0, 2.0 * phi0 - 1.0)
        for a in edges:
            assert abs(positivity_factor(a, phi0)) < 1e-12
        roots = positivity_roots(phi0)
        assert len(roots) == 2
        assert abs(roots[0] - min(edges)) < 1e-9
        assert abs(roots[1] - max(edges)) < 1e-9
        lo, hi = min(edges), max(edges)
        if hi - lo > 0.2:
            assert positivity_factor(0.5 * (lo + hi), phi0) > 0.0
        assert positivity_factor(lo - 0.5, phi0) < 0.0
        assert positivity_factor(hi + 0.5, phi0) < 0.0


@pytest.mark.parametrize("phi0, roots", [
    (2.0, [3.0]), (15.6, [3.0, 30.2]), (1.02, [1.04, 3.0]),
    (2.5, [3.0, 4.0]), (0.8, [3.0])],
    ids=["2.0", "15.6", "1.02", "2.5", "0.8"])
def test_positivity_roots_are_the_closed_form(phi0, roots):
    # {3, 2 phi0 - 1} on alpha > 1: the tangent double root at phi0 = 2 and
    # roots near alpha = 1 or far beyond 30 included.
    found = positivity_roots(phi0)
    np.testing.assert_allclose(found, roots, rtol=0.0, atol=1e-12)
    for a in found:
        assert abs(positivity_factor(a, phi0)) < 1e-12


def test_positivity_window_empty_at_phi0_two():
    # At phi0 = 2 both edges coincide at alpha = 3 and the factor never
    # becomes positive.
    assert abs(positivity_factor(3.0, 2.0)) < 1e-12
    a = np.linspace(1.1, 10.0, 500)
    vals = np.array([positivity_factor(x, 2.0) for x in a])
    assert vals.max() < 1e-10


def test_q_decomposition_is_diagonal_in_modes(rng):
    # The form splits exactly across mode groups: evaluating the full stream
    # must equal the k = 1 part plus the k >= 2 part, with no cross terms.
    grid = build_grid(1e4, 24)
    for phi0 in (2.1, 2.5, 3.0):
        stream = random_stream(grid, rng)
        full = q_form(stream, phi0)
        assert abs(full.q_plus - full.q_1 - full.q_sup1) <= 1e-12 * full.scale
        k1 = dataclasses.replace(stream, modes=stream.modes[:1],
                                 phi=stream.phi[:1], dphi=stream.dphi[:1],
                                 d2phi=stream.d2phi[:1])
        rest = dataclasses.replace(stream, modes=stream.modes[1:],
                                   phi=stream.phi[1:], dphi=stream.dphi[1:],
                                   d2phi=stream.d2phi[1:])
        parts = q_form(k1, phi0).q_plus + q_form(rest, phi0).q_plus
        assert abs(full.q_plus - parts) <= 1e-12 * full.scale


def test_q1_matches_by_parts_form_under_refinement():
    # For a pure k = 1 stream, Q_plus from the gradient form and Q_1 from
    # its integrated-by-parts expression agree up to quadrature error that
    # shrinks at fourth order.
    defects = {}
    for npd in (32, 64):
        rng = np.random.default_rng(7)
        grid = build_grid(1e4, npd)
        worst = 0.0
        for _ in range(5):
            stream = random_stream(grid, rng, modes=(1,), n_bumps=3)
            res = q_form(stream, 2.5)
            worst = max(worst, abs(res.q_sup1) / res.scale)
        defects[npd] = worst
    assert defects[32] < 5e-6
    assert defects[32] / defects[64] > 4.0


def test_q1_nonnegative_on_random_streams(rng):
    # Q_1 - c 4 pi int psi'^2 dx is Q_1 at phi0 + c, so at the flux
    # 4 + (2 pi/L)^2, where the closed-form constant c vanishes, no sample
    # may be negative; below it none is.
    grid = build_grid(1e4, 24)
    critical = 4.0 + (2.0 * np.pi / grid.log_r[-1]) ** 2
    stream = random_stream(grid, rng, size=30)
    for phi0 in (2.1, 2.5, 3.0, critical):
        res = q_form(stream, phi0)
        assert np.all(res.q_1 >= -1e-12 * res.scale)


def test_high_mode_part_dominates_weighted_norm(rng):
    # Every mode's least eigenvalue passes the 0.2 gate and sits just above
    # the infimum of its symbol on the whole line (the clamped ends cost a
    # little), and no seeded stream's c beats its flux's least eigenvalue.
    phi0s = (2.2, 2.5, 3.0)
    least = _high_mode_eigenvalues(phi0s)
    assert least.shape == (3, 4) and least.min() >= 0.2
    s = np.linspace(0.0, 200.0, 800001)[:, None]
    for p, row in zip(phi0s, least):
        for k, value in zip((2, 3, 4, 5), row):
            k2 = k * k
            symbol = ((s * s + (2 * k2 + 2 - p) * s + (k2 - 1) * (k2 - 1 + p))
                      / (s * s + (2 * k2 + 3) * s + (k2 - 1) ** 2 + k2 + 1))
            assert 0.0 <= value - symbol.min() < 1e-2
    grid = build_grid(*hamelflow.uniq._SHARP_GRID)
    stream = random_stream(grid, rng, size=30)
    for p, row in zip(phi0s, least):
        res = q_form(stream, p)
        assert np.all(res.q_sup1 >= res.lower_bound - 1e-10 * res.scale)
        assert res.c_measured.min() >= row.min()


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_mode_pencils_match_q_form_under_refinement(monkeypatch, k):
    # The pencils, derived from q_form's integrands, give q_form's Q_plus and
    # (k >= 2) its gradient-plus-weighted norm on a one-mode bump stream, up
    # to a second-order difference error.
    defects = {}
    for npd in (32, 64):
        grid = build_grid(1e4, npd)
        q_plus, norm = _at_nodes_per_decade(
            monkeypatch, npd, lambda: _q_pencils(2.5, k))
        worst = 0.0
        rng = np.random.default_rng(5)
        for _ in range(5):
            stream = random_stream(grid, rng, modes=(k,))
            res = q_form(stream, 2.5)
            v = (stream.phi[0] / grid.r)[1:-1]
            form = lambda m: 4.0 * np.pi * np.real(np.conj(v) @ m @ v)
            worst = max(worst, abs(form(q_plus) - res.q_plus) / res.scale)
            if k >= 2:
                weighted = res.gradient_norm + res.weighted_norm
                worst = max(worst, abs(form(norm) - weighted) / weighted)
        defects[npd] = worst
    assert defects[32] < 0.05
    assert defects[32] / defects[64] > 3.0


def test_poincare_wirtinger_margins(rng):
    grid = build_grid(1e4, 24)
    for _ in range(30):
        stream = random_stream(grid, rng, modes=(2, 4, 7))
        assert poincare_wirtinger_check(stream) >= -1e-12
    only_one = random_stream(grid, rng, modes=(1,))
    assert poincare_wirtinger_check(only_one) == 0.0


def test_q1_negativity_probe_reports_honestly(monkeypatch):
    # The least eigenvalue lies within 1e-3 of 4 - phi0 + (2 pi/L)^2, moves
    # toward it under refinement, and changes sign between 3.2 and 4.6.
    errors = {}
    for npd in (16, 32):
        probes = _at_nodes_per_decade(monkeypatch, npd, lambda: [
            probe_q1_negativity(phi0) for phi0 in (3.2, 4.6)])
        (c_pos, e_pos), (c_neg, e_neg) = probes
        assert abs(c_pos - 1.26538) < 1e-5 and abs(c_neg + 0.13462) < 1e-5
        assert e_pos > 0.0 > e_neg
        errors[npd] = max(abs(e_pos - c_pos), abs(e_neg - c_neg))
        assert errors[npd] < 1e-3
    assert errors[32] < errors[16]


@pytest.mark.parametrize("check, target, change", [
    ("check_hardy", "_sharp_forms", lambda m0, m1, m2: (m0, 1.01 * m1, m2)),
    ("check_q1_probe", "_sharp_forms", lambda m0, m1, m2: (m0, m1, 0.9 * m2)),
    ("check_qforms", "_q_pencils", lambda q, norm: (q - 0.7 * norm, norm)),
    ("check_positivity_window", "positivity_roots",
     lambda lo, hi: (lo, hi + 0.1))],
    ids=["hardy", "q1", "q_sup1", "positivity"])
def test_sharp_checks_fail_when_their_forms_are_perturbed(monkeypatch, check,
                                                          target, change):
    # Each check passes as built and fails once its form or its window
    # moves: a 1% stiffer Hardy side, a 10% softer Q_1, Q_sup1 lowered by
    # 0.7 of its norm, a window edge 0.1 off.
    run = getattr(hamelflow.verify, check)
    args = (0,) if check in ("check_hardy", "check_qforms") else ()
    assert run(*args)["passed"] is True
    module = (hamelflow.verify if target in vars(hamelflow.verify)
              else hamelflow.uniq)
    inner = getattr(module, target)
    monkeypatch.setattr(module, target, lambda *a: change(*inner(*a)))
    assert run(*args)["passed"] is False


def test_cross_check_fails_when_a_sample_beats_its_constant(monkeypatch):
    # A Hardy ratio above the closed form, or a c below the least
    # eigenvalue, fails its check although every eigenvalue still matches.
    hardy, forms = hamelflow.verify.hardy_check, hamelflow.verify.q_form
    monkeypatch.setattr(hamelflow.verify, "hardy_check",
                        lambda *args: dataclasses.replace(
                            hardy(*args), ratio=np.array([0.9, 0.99])))
    assert hamelflow.verify.check_hardy(0)["passed"] is False
    monkeypatch.setattr(hamelflow.verify, "q_form",
                        lambda *args: dataclasses.replace(
                            forms(*args), c_measured=np.array([0.5])))
    assert hamelflow.verify.check_qforms(0)["passed"] is False


def test_sharp_metrics_do_not_depend_on_the_seed():
    gated = ("hardy_inequality", "quadratic_forms", "positivity_window",
             "q1_negativity_probe")
    metrics = [{c["name"]: c["metric"]
                for c in hamelflow.verify.run_battery(True, seed)["checks"]
                if c["name"] in gated} for seed in (0, 1, 7)]
    assert len(metrics[0]) == 4
    assert metrics[0] == metrics[1] == metrics[2]


def _close(stacked, single):
    np.testing.assert_allclose(stacked, single, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("modes", [(1, 2, 4), (1,), (3, 5)],
                         ids=["mixed", "k1-only", "high-only"])
def test_stacked_streams_match_one_stream_calls(rng, modes):
    grid = build_grid(1e4, 24)
    stack = random_stream(grid, rng, modes=modes, size=(2, 3))
    assert stack.phi.shape == (2, 3, len(modes), grid.n_nodes)
    forms = q_form(stack, 2.5)
    margins = poincare_wirtinger_check(stack)
    assert margins.shape == (2, 3)
    for i in np.ndindex(2, 3):
        member = dataclasses.replace(stack, phi=stack.phi[i],
                                     dphi=stack.dphi[i], d2phi=stack.d2phi[i])
        single = q_form(member, 2.5)
        for field in dataclasses.fields(QFormResult):
            value = getattr(single, field.name)
            assert isinstance(value, float)
            if field.name != "phi0":
                _close(getattr(forms, field.name)[i], value)
        margin = poincare_wirtinger_check(member)
        assert isinstance(margin, float)
        _close(margins[i], margin)


def test_stacked_profiles_match_one_profile_calls(grid, rng):
    w, dw = random_w_profile(grid, rng, size=7)
    assert w.shape == dw.shape == (7, grid.n_nodes)
    for alpha in (1.5, 2.0, 3.0):
        stacked = hardy_check(grid, w, dw, alpha)
        for i in range(7):
            single = hardy_check(grid, w[i], dw[i], alpha)
            assert isinstance(single.ratio, float)
            assert isinstance(single.ok, bool)
            _close(stacked.ratio[i], single.ratio)
            assert stacked.ok[i] == single.ok
