"""Deterministic serialization of solutions and reports.

Identical inputs must produce byte-identical artifacts, so everything here
avoids wall-clock fields, hash randomization, and locale-dependent
formatting: dict keys are emitted sorted, floats carry 17 significant
digits, strings are escaped ASCII, newlines are '\\n', and non-finite floats
are written as null.  In report.json that is where a value is undefined:
the decay slope of an inactive mode, beta0/beta1/beta_sup1 without an
active mode to take them from, the infinite decay exponent of a constant
circulation fit, and the shoot residual of a fixed-mu solve.
"""

from __future__ import annotations

import dataclasses
import json
import numbers

import numpy as np

__all__ = ["fmt_float", "format_rows", "dumps", "write_json",
           "solution_payload", "report_payload", "write_modes_csv",
           "write_mode_profiles", "write_field_csv"]

_BLOCK_ROWS = 4096   # CSV rows formatted and written at a time


def fmt_float(x: float) -> str:
    x = float(x)
    if not np.isfinite(x):
        return "null"
    return f"{x:.1f}" if x == int(x) and abs(x) < 1e16 else f"{x:.17g}"


def format_rows(a, sep: str) -> list:
    """One line per row of a 2-D float array: sep.join(map(fmt_float, row))."""
    a = np.asarray(a, dtype=float)
    template = sep.join(["%.17g"] * a.shape[1])
    # fmt_float writes non-finite values as null and integer-valued ones
    # as x.0; rows holding one take its path, the rest one template.
    special = ~np.isfinite(a) | ((a == np.trunc(a)) & (np.abs(a) < 1e16))
    return [sep.join(map(fmt_float, row)) if odd else template % tuple(row)
            for row, odd in zip(a.tolist(), special.any(axis=1).tolist())]


def _float_items(seq):
    """Encoded items of a 1-D all-float or all-complex sequence, else None."""
    if not isinstance(seq, np.ndarray):
        if not (all(isinstance(v, (float, np.floating)) for v in seq) or all(
                isinstance(v, (complex, np.complexfloating)) for v in seq)):
            return None
        seq = np.array(seq)
    if seq.ndim != 1 or seq.dtype.kind not in "fc":
        return None
    if seq.dtype.kind == "f":
        return format_rows(seq[:, None], "")
    pairs = format_rows(np.column_stack([seq.real, seq.imag]), ", ")
    return ["[" + pair + "]" for pair in pairs]


def _encode(obj, indent):
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return f"[{fmt_float(obj.real)}, {fmt_float(obj.imag)}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = [json.dumps(str(k)) + ": " + _encode(obj[k], indent + 2)
                 for k in sorted(obj)]
        return _block("{}", items, indent)
    if not isinstance(obj, (list, tuple, np.ndarray)):
        raise TypeError(f"cannot serialize {type(obj)!r}")
    # Up to 8 numbers share one line, anything else takes one line per
    # item; long float and complex lists are formatted as a table.
    items = _float_items(obj) if len(obj) > 8 else None
    if items is None:
        items = [_encode(v, indent + 2) for v in obj]
        if len(items) <= 8 and all(isinstance(v, numbers.Number) for v in obj):
            return "[" + ", ".join(items) + "]"
    return _block("[]", items, indent)


def _block(brackets, items, indent):
    """Items one per line, two spaces deeper than the closing bracket."""
    if not items:
        return brackets
    pad = " " * indent
    return (brackets[0] + "\n  " + pad + (",\n  " + pad).join(items) + "\n"
            + pad + brackets[1])


def dumps(obj) -> str:
    return _encode(obj, 0) + "\n"


def write_json(path, obj):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(dumps(obj))


def solution_payload(solution) -> dict:
    """Mode arrays and grid as plain structures (complex -> [re, im])."""
    return {
        "phi0": solution.flow.phi0,
        "mu": solution.flow.mu,
        "mu0": solution.boundary.mu0,
        "n_max": solution.n_max,
        "r": solution.grid.r.astype(float).tolist(),
        "modes": [
            dict({k: getattr(solution, k)[n].astype(complex).tolist()
                  for k in ("gamma", "dgamma", "w", "dw")},
                 n=n, gamma_bar=complex(solution.gamma_bar[n]),
                 w_bar=complex(solution.w_bar[n]),
                 resonant=bool(solution.resonant[n]))
            for n in range(solution.n_max + 1)
        ],
    }


def report_payload(report, extras=None) -> dict:
    """Every SolveReport field, then the extras (which win on a clash)."""
    return {**dataclasses.asdict(report), **(extras or {})}


def _write_csv(path, header, table, labels=None):
    """Header, then one line per table row (after its label, if given)."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for i in range(0, len(table), _BLOCK_ROWS):
            lines = format_rows(table[i:i + _BLOCK_ROWS], ",")
            if labels is not None:
                lines = map("{},{}".format, labels[i:i + _BLOCK_ROWS], lines)
            fh.write("\n".join(lines) + "\n")


def write_mode_profiles(path, n, r, gamma, dgamma, w, dw):
    """modes.csv from mode numbers n, nodes r and (mode, node) profiles."""
    table = np.column_stack([np.tile(r, len(n))] + [
        np.stack([z.real, z.imag], axis=-1).reshape(-1, 2)
        for z in (gamma, dgamma, w, dw)])
    _write_csv(path, "n,r,gamma_re,gamma_im,dgamma_re,dgamma_im,w_re,w_im,"
               "dw_re,dw_im", table, np.repeat(n, len(r)).tolist())


def write_modes_csv(path, solution):
    write_mode_profiles(path, range(solution.n_max + 1), solution.grid.r,
                        solution.gamma, solution.dgamma, solution.w,
                        solution.dw)


def write_field_csv(path, field):
    n_r, n_theta = field.ur.shape
    _write_csv(path, "r,theta,u_r,u_theta,w", np.column_stack([
        np.repeat(field.r, n_theta), np.tile(field.theta, n_r),
        field.ur.ravel(), field.utheta.ravel(), field.w.ravel()]))
