"""Run configuration: JSON schema, loading, and assembly of solver inputs."""

from __future__ import annotations

import json
import math

import numpy as np

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
    """The config at ``path``, validated against ``CONFIG_SCHEMA``.

    Floats that the schema admits as integers (``4.0``) come back as ints.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh, parse_constant=_finite, parse_float=_finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except ValueError as exc:   # json.JSONDecodeError included
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    error = _first_error(CONFIG_SCHEMA, cfg)
    if error:
        raise ConfigError("config invalid at %s: %s" % error)
    return _with_ints(CONFIG_SCHEMA, cfg)


def _finite(literal):
    """JSON number parser that refuses NaN, Infinity and overflow."""
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"{literal} is not a finite number")
    return value


def _with_ints(schema, value):
    """``value`` with each integer-typed property made an int."""
    if schema.get("type") == "integer":
        return int(value)
    for name, sub in schema.get("properties", {}).items():
        if name in value:
            value[name] = _with_ints(sub, value[name])
    return value


# A JSON Schema validator for the keywords CONFIG_SCHEMA uses, in the
# semantics and words of jsonschema's Draft 2020-12 validator (4.26).

def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
    "number": _is_number,
    # JSON Schema admits integer-valued floats (4.0) as integers
    "integer": lambda v: _is_number(v) and (isinstance(v, int)
                                            or v.is_integer()),
}
_KEYWORDS = {"$schema", "title", "type", "properties",
             "additionalProperties", "required", "minProperties",
             "maxProperties", "items", "minItems", "maxItems", "minimum",
             "maximum", "exclusiveMinimum"}


def _first_error(schema, value):
    """``(json_path, message)`` of the first violation in json_path order
    (ties in the order found), or None."""
    return min(_errors(schema, value, "$"), key=lambda e: e[0], default=None)


def _errors(schema, value, path):
    """Each ``(json_path, message)`` by which ``value`` violates ``schema``.

    A keyword outside ``_KEYWORDS`` (or an ``additionalProperties`` other
    than false) raises, so the schema cannot outgrow this validator.
    """
    for key, want in schema.items():
        if key not in _KEYWORDS or (key == "additionalProperties"
                                    and want is not False):
            raise ValueError(f"unsupported schema keyword {key}: {want!r}")
        problem = None
        if key == "type":
            if not _TYPES[want](value):
                problem = f"is not of type {want!r}"
        elif isinstance(value, dict):
            if key == "properties":
                for name, sub in want.items():
                    if name in value:
                        yield from _errors(sub, value[name], f"{path}.{name}")
            elif key == "additionalProperties":
                extras = sorted(k for k in value
                                if k not in schema.get("properties", {}))
                if extras:
                    verb = "was" if len(extras) == 1 else "were"
                    yield path, ("Additional properties are not allowed ("
                                 f"{', '.join(map(repr, extras))} {verb} "
                                 "unexpected)")
            elif key == "required":
                yield from ((path, f"{name!r} is a required property")
                            for name in want if name not in value)
            elif key == "minProperties" and len(value) < want:
                problem = ("should be non-empty" if want == 1
                           else "does not have enough properties")
            elif key == "maxProperties" and len(value) > want:
                problem = ("is expected to be empty" if want == 0
                           else "has too many properties")
        elif isinstance(value, list):
            if key == "items":
                for i, item in enumerate(value):
                    yield from _errors(want, item, f"{path}[{i}]")
            elif key == "minItems" and len(value) < want:
                problem = "should be non-empty" if want == 1 else "is too short"
            elif key == "maxItems" and len(value) > want:
                problem = ("is expected to be empty" if want == 0
                           else "is too long")
        elif _is_number(value):
            if key == "minimum" and value < want:
                problem = f"is less than the minimum of {want!r}"
            elif key == "maximum" and value > want:
                problem = f"is greater than the maximum of {want!r}"
            elif key == "exclusiveMinimum" and value <= want:
                problem = f"is less than or equal to the minimum of {want!r}"
        if problem:
            yield path, f"{value!r} {problem}"


def solver_config(cfg: dict) -> SolverConfig:
    try:
        return SolverConfig(**cfg.get("solver", {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"solver settings rejected: {exc}") from exc


def build_boundary(cfg: dict, config: SolverConfig) -> BoundarySpectrum:
    """Boundary spectrum from either sample or mode form of the config.

    Any ``ValueError`` from building the spectrum (samples that cannot
    resolve the modes, a flux the spectrum's flow refuses) becomes
    ``ConfigError`` here, before any solving starts.
    """
    try:
        return _spectrum(cfg, config)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _spectrum(cfg: dict, config: SolverConfig) -> BoundarySpectrum:
    flow = cfg["flow"]
    phi0 = float(flow["phi0"])
    bdry = cfg["boundary"]

    if "theta_samples" in bdry:
        ur = np.asarray(bdry["theta_samples"]["ur"], dtype=float)
        ut = np.asarray(bdry["theta_samples"]["utheta"], dtype=float)
        mu0_s = float(np.mean(ut))
        if "mu0" in flow and abs(flow["mu0"] - mu0_s) > 1e-10 * max(1.0, abs(mu0_s)):
            raise ConfigError(
                f"flow.mu0={flow['mu0']} disagrees with the sampled mean "
                f"swirl {mu0_s!r}")
        mu = float(flow.get("mu", mu0_s))
        return project_boundary(ur, ut, config.n_modes, mu, phi0=phi0)

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
    coefficients = lambda rows: {n: re + 1j * im
                                 for n, (re, im) in enumerate(rows, 1)}
    return BoundarySpectrum.from_modes(config.n_modes, phi0, mu0, mu,
                                       coefficients(vr_rows),
                                       coefficients(vt_rows))


def _prescribed(rows):
    """Mode rows up to the last one that is not all zero; the zero rows
    above it prescribe nothing, so they do not count against n_modes."""
    n = len(rows)
    while n and not any(rows[n - 1]):
        n -= 1
    return rows[:n]
