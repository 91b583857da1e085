"""The oracle battery can fail: each planted defect fails the checks that
should see it, which pass on the unmutated code."""

import pytest

import hamelflow.flows
import hamelflow.linear
import hamelflow.verify

CHECKS = {
    "existence_threshold": hamelflow.verify.check_existence_threshold,
    "exponent_identities":
        lambda: hamelflow.verify.check_exponent_identities(True),
    "manufactured_solution": hamelflow.verify.check_manufactured_solution,
    "ode_residuals": hamelflow.verify.check_ode_residuals,
}


def scaled_threshold(monkeypatch):
    """The closed-form circulation threshold 0.1% high."""
    threshold = hamelflow.verify.circulation_threshold
    monkeypatch.setattr(hamelflow.verify, "circulation_threshold",
                        lambda phi0: 1.001 * threshold(phi0))


def soft_stream_slope(monkeypatch):
    """Every d_r gamma response 1% low."""
    response = hamelflow.linear._gamma_response

    def softened(*args):
        g, dg = response(*args)
        return g, dg / 1.01

    monkeypatch.setattr(hamelflow.linear, "_gamma_response", softened)


def mirrored_exponents(monkeypatch):
    """The exponents of -mu, in the battery and in the linear solve."""
    pair = hamelflow.flows.zeta_pair
    for module in (hamelflow.verify, hamelflow.linear):
        monkeypatch.setattr(module, "zeta_pair",
                            lambda phi0, mu, n: pair(phi0, -mu, n))


@pytest.mark.parametrize("defect, caught", [
    (scaled_threshold, ["existence_threshold"]),
    (soft_stream_slope, ["manufactured_solution"]),
    (mirrored_exponents, ["exponent_identities", "manufactured_solution",
                          "ode_residuals"])],
    ids=["threshold", "stream-slope", "mu-sign"])
def test_battery_checks_fail_under_a_planted_defect(monkeypatch, defect,
                                                    caught):
    assert all(CHECKS[name]()["passed"] for name in caught)
    defect(monkeypatch)
    assert not any(CHECKS[name]()["passed"] for name in caught)
