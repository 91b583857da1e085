"""Run configuration: JSON schema, loading, and assembly of solver inputs."""

from __future__ import annotations

import json

import numpy as np
from jsonschema import Draft202012Validator

from .grid import BoundarySpectrum, project_boundary
from .solve import SolverConfig

__all__ = ["ConfigError", "CONFIG_SCHEMA", "load_config", "solver_config",
           "build_boundary"]


class ConfigError(ValueError):
    """Configuration rejected before any solving started."""


_NUM = {"type": "number"}
_MODE_ROW = {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "hamelflow run configuration",
    "type": "object",
    "additionalProperties": False,
    "required": ["flow", "boundary"],
    "properties": {
        "flow": {
            "type": "object",
            "additionalProperties": False,
            "required": ["phi0"],
            "properties": {
                "phi0": {"type": "number", "minimum": 0},
                "mu0": _NUM,
                "mu": _NUM,
            },
        },
        "boundary": {
            "type": "object",
            "additionalProperties": False,
            "minProperties": 1,
            "maxProperties": 1,
            "properties": {
                "theta_samples": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["ur", "utheta"],
                    "properties": {
                        "ur": {"type": "array", "items": _NUM, "minItems": 4},
                        "utheta": {"type": "array", "items": _NUM,
                                   "minItems": 4},
                    },
                },
                "modes": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "vr": {"type": "array", "items": _MODE_ROW},
                        "vtheta": {"type": "array", "items": _MODE_ROW},
                    },
                },
            },
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_modes": {"type": "integer", "minimum": 1, "maximum": 64},
                "r_max": {"type": "number", "exclusiveMinimum": 1},
                "nodes_per_decade": {"type": "integer", "minimum": 8,
                                     "maximum": 512},
                "tol_fp": {"type": "number", "exclusiveMinimum": 0},
                "max_iter": {"type": "integer", "minimum": 1},
                "tol_mu": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "branch": {
            "type": "object",
            "additionalProperties": False,
            "required": ["mu_values"],
            "properties": {
                "mu_values": {"type": "array", "items": _NUM, "minItems": 1},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "theta_points": {"type": "integer", "minimum": 8,
                                 "maximum": 4096},
                "write_field": {"type": "boolean"},
            },
        },
    },
}


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    validator = Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(cfg), key=lambda e: e.json_path)
    if errors:
        first = errors[0]
        raise ConfigError(f"config invalid at {first.json_path}: "
                          f"{first.message}")
    return cfg


def solver_config(cfg: dict, quick: bool = False) -> SolverConfig:
    kwargs = dict(cfg.get("solver", {}))
    if quick:
        kwargs.setdefault("n_modes", 8)
        kwargs["n_modes"] = min(kwargs["n_modes"], 8)
        kwargs.setdefault("nodes_per_decade", 64)
        kwargs["nodes_per_decade"] = min(kwargs["nodes_per_decade"], 48)
    try:
        return SolverConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"solver settings rejected: {exc}") from exc


def build_boundary(cfg: dict, config: SolverConfig) -> BoundarySpectrum:
    """Boundary spectrum from either sample or mode form of the config."""
    flow = cfg["flow"]
    phi0 = float(flow["phi0"])
    bdry = cfg["boundary"]

    if "theta_samples" in bdry:
        ur = np.asarray(bdry["theta_samples"]["ur"], dtype=float)
        ut = np.asarray(bdry["theta_samples"]["utheta"], dtype=float)
        if ur.size != ut.size:
            raise ConfigError("ur and utheta sample counts differ")
        if ur.size < 2 * config.n_modes + 2:
            raise ConfigError(
                f"{ur.size} samples cannot resolve n_modes="
                f"{config.n_modes}; need at least {2 * config.n_modes + 2}")
        mu0_s = float(np.mean(ut))
        if "mu0" in flow and abs(flow["mu0"] - mu0_s) > 1e-10 * max(1.0, abs(mu0_s)):
            raise ConfigError(
                f"flow.mu0={flow['mu0']} disagrees with the sampled mean "
                f"swirl {mu0_s!r}")
        mu = float(flow.get("mu", mu0_s))
        try:
            return project_boundary(ur, ut, config.n_modes, mu, phi0=phi0)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    modes = bdry["modes"]
    if "mu0" not in flow:
        raise ConfigError("mode-form boundaries need flow.mu0")
    mu0 = float(flow["mu0"])
    mu = float(flow.get("mu", mu0))
    vr_rows = _prescribed(modes.get("vr", []))
    vt_rows = _prescribed(modes.get("vtheta", []))
    if max(len(vr_rows), len(vt_rows)) > config.n_modes:
        raise ConfigError(
            f"boundary prescribes mode {max(len(vr_rows), len(vt_rows))} "
            f"but n_modes={config.n_modes}")
    vr = np.zeros(config.n_modes + 1, dtype=complex)
    vt = np.zeros(config.n_modes + 1, dtype=complex)
    for i, (re, im) in enumerate(vr_rows):
        vr[i + 1] = re + 1j * im
    for i, (re, im) in enumerate(vt_rows):
        vt[i + 1] = re + 1j * im
    vt[0] = mu0 - mu
    return BoundarySpectrum(n_max=config.n_modes, vr=vr, vtheta=vt,
                            phi0=phi0, mu0=mu0, mu=mu)


def _prescribed(rows):
    """Mode rows up to the last one that is not all zero; the zero rows
    above it prescribe nothing, so they do not count against n_modes."""
    n = len(rows)
    while n and not any(rows[n - 1]):
        n -= 1
    return rows[:n]
