"""Randomized suites for the inequalities behind the uniqueness window."""

import dataclasses
import types

import numpy as np
import pytest

import hamelflow.uniq
import hamelflow.verify
from hamelflow import build_grid
from hamelflow.uniq import (Q1Probe, QFormResult, hardy_check,
                            hardy_sharpness, poincare_wirtinger_check,
                            positivity_factor, positivity_roots,
                            probe_q1_negativity, q_form, random_stream,
                            random_w_profile)


def test_hardy_holds_on_random_profiles(grid, rng):
    for _ in range(50):
        w, dw = random_w_profile(grid, rng)
        for alpha in (2.0, 3.0, 4.0):
            res = hardy_check(grid, w, dw, alpha)
            assert res.ok
            assert res.ratio <= 1.0 + 1e-12


def test_hardy_constant_is_nearly_attained():
    res = hardy_sharpness()
    assert res.ok
    assert res.ratio > 0.9


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
    grid = build_grid(1e4, 24)
    for phi0 in (2.1, 2.5, 3.0):
        for _ in range(30):
            stream = random_stream(grid, rng)
            res = q_form(stream, phi0)
            assert res.q_1 >= -1e-12 * res.scale


def test_high_mode_part_dominates_weighted_norm(rng):
    grid = build_grid(1e4, 24)
    for _ in range(30):
        stream = random_stream(grid, rng, modes=(2, 3, 4, 5))
        res = q_form(stream, 2.5)
        assert res.q_sup1 >= res.lower_bound - 1e-10 * res.scale
        assert res.c_measured >= 0.2


def test_poincare_wirtinger_margins(rng):
    grid = build_grid(1e4, 24)
    for _ in range(30):
        stream = random_stream(grid, rng, modes=(2, 4, 7))
        assert poincare_wirtinger_check(stream) >= -1e-12
    only_one = random_stream(grid, rng, modes=(1,))
    assert poincare_wirtinger_check(only_one) == 0.0


def test_q1_negativity_probe_reports_honestly():
    probe = probe_q1_negativity(3.2, n_samples=200, seed=11)
    assert probe.verdict == "inconclusive"
    assert not probe.found_negative
    assert probe.min_value > 0.0


def test_q1_probe_check_fails_on_a_negative_sample(monkeypatch):
    # At phi0 = 3.2 no k = 1 stream makes Q_1 negative, so a probe that
    # reports one means the quadratic form is wrong: the check must fail.
    negative = Q1Probe(phi0=3.2, n_samples=7, min_value=-0.5,
                       found_negative=True, verdict="negative-found")
    monkeypatch.setattr(hamelflow.verify, "probe_q1_negativity",
                        lambda *args, **kwargs: negative)
    check = hamelflow.verify.check_q1_probe(quick=True, seed=0)
    assert check["passed"] is False
    assert "negative-found" in check["detail"]


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


@pytest.mark.parametrize("first_negative", [130, None],
                         ids=["negative-found", "none-negative"])
def test_probe_stops_at_the_stack_of_the_first_negative(monkeypatch,
                                                        first_negative):
    # Relative Q_1 per sample, in draw order.  A later, more negative sample
    # must not enter min_value, and no stack after the first negative one
    # may be drawn.
    values = np.linspace(1.0, 0.5, 250)
    if first_negative is not None:
        values[first_negative] = -0.25
        values[first_negative + 10] = -9.0
    stacks = []

    def fake_q_form(stream, phi0):
        n = stream.phi.shape[0]
        start = sum(stacks)
        stacks.append(n)
        return types.SimpleNamespace(q_1=values[start:start + n],
                                     scale=np.ones(n))

    monkeypatch.setattr(hamelflow.uniq, "q_form", fake_q_form)
    probe = probe_q1_negativity(3.2, n_samples=250, seed=0)
    # Samples drawn up to and including the first negative one.
    assert probe.n_samples == (250 if first_negative is None
                               else first_negative + 1)
    step = hamelflow.uniq._STACK_ROWS
    if first_negative is None:
        assert probe.verdict == "inconclusive" and not probe.found_negative
        assert probe.min_value == 0.5
        assert sum(stacks) == 250
    else:
        assert probe.verdict == "negative-found" and probe.found_negative
        assert probe.min_value == -0.25
        assert len(stacks) == first_negative // step + 1
    assert all(n == step for n in stacks[:-1])
