"""Deterministic serialization of solutions and reports.

Identical inputs must produce byte-identical artifacts, so everything here
avoids wall-clock fields, hash randomization, and locale-dependent
formatting: dict keys are emitted sorted, floats carry 17 significant
digits, strings are escaped ASCII, newlines are '\\n', and non-finite floats
are written as null.  In report.json that is where a value is undefined:
the decay slope of an inactive mode, beta0/beta1/beta_sup1 without an
active mode to take them from, the infinite decay exponent of a constant
circulation fit, and the shoot residual of a fixed-mu solve.

Each value of a solve's modes.json, modes.csv and field.csv is formatted
once: the radii for all three files, the angles for all rows of field.csv,
and the mode profiles for both mode files (``ModeTable``).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import numbers

import numpy as np

__all__ = ["fmt_float", "format_rows", "dumps", "write_json",
           "solution_payload", "report_payload", "ModeTable",
           "write_modes_csv", "write_field_csv"]

_BLOCK_ROWS = 4096   # field.csv rows formatted and written at a time
_PROFILES = ("gamma", "dgamma", "w", "dw")
_MODES_HEADER = ("n,r,gamma_re,gamma_im,dgamma_re,dgamma_im,w_re,w_im,"
                 "dw_re,dw_im\n")


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


def _column(x) -> list:
    """fmt_float of each value of a 1-D float array."""
    return format_rows(np.reshape(x, (-1, 1)), "")


class _Encoded(list):
    """The JSON text of each item of a list of numbers, formatted ahead;
    laid out as the numbers themselves would be."""


class _Deferred:
    """A list of containers, each built when the encoder reaches it, so
    that only one is held at a time."""

    def __init__(self, make, count):
        self._make, self._count = make, count

    def __iter__(self):
        return map(self._make, range(self._count))


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
    if isinstance(obj, _Deferred):
        return _block("[]", [_encode(v, indent + 2) for v in obj], indent)
    if not isinstance(obj, (list, tuple, np.ndarray)):
        raise TypeError(f"cannot serialize {type(obj)!r}")
    # Up to 8 numbers share one line, anything else takes one line per
    # item; pre-encoded lists arrive formatted.
    if isinstance(obj, _Encoded):
        items = obj
        if len(items) <= 8:
            return "[" + ", ".join(items) + "]"
    else:
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


class ModeTable:
    """Mode profiles on the radial grid, each value formatted once.

    Built from mode numbers ``n``, nodes ``r`` and the (mode, node)
    profiles gamma, dgamma, w and dw.  The radii are formatted on
    construction (``r``, which field.csv reuses).  Each mode is formatted
    when asked for, as one row of 8 cells (re, im of each profile) per
    node; those cells give both its modes.json [re, im] lists and its
    modes.csv lines.  The JSON pass keeps each mode's CSV text until the
    CSV writer takes it.
    """

    def __init__(self, n, r, gamma, dgamma, w, dw):
        self.n = np.asarray(n).tolist()
        self.r = _Encoded(_column(r))
        self._profiles = (gamma, dgamma, w, dw)
        shape = (len(self.n), len(self.r))
        if any(np.shape(z) != shape for z in self._profiles):
            raise ValueError(f"profiles must have shape {shape} "
                             "(modes, nodes)")
        self._csv = {}

    @classmethod
    def of(cls, solution):
        return cls(range(solution.n_max + 1), solution.grid.r,
                   solution.gamma, solution.dgamma, solution.w, solution.dw)

    def _rows(self, i):
        """Mode i as one line of 8 comma-separated cells per node."""
        z = np.stack([np.asarray(p[i], dtype=complex)
                      for p in self._profiles], axis=-1)
        return format_rows(z.view(float), ",")

    def _csv_text(self, i, rows):
        label = self.n[i]
        return "".join([f"{label},{r},{row}\n"
                        for r, row in zip(self.r, rows)])

    def json_profiles(self, i) -> dict:
        """Mode i's profiles as pre-encoded [re, im] lists, by name."""
        rows = self._rows(i)
        self._csv[i] = self._csv_text(i, rows)
        cells = [row.split(",") for row in rows]
        return {name: _Encoded([f"[{c[k]}, {c[k + 1]}]" for c in cells])
                for name, k in zip(_PROFILES, range(0, 8, 2))}

    def csv_text(self, i) -> str:
        """Mode i's modes.csv lines."""
        text = self._csv.pop(i, None)
        return self._csv_text(i, self._rows(i)) if text is None else text


def solution_payload(solution, table) -> dict:
    """Mode arrays and grid as plain structures (complex -> [re, im]).

    The radii and profiles come formatted from ``table``, the solution's
    ``ModeTable``; each mode's entry is built as the encoder reaches it.
    """

    def mode(n):
        return dict(table.json_profiles(n), n=n,
                    gamma_bar=complex(solution.gamma_bar[n]),
                    w_bar=complex(solution.w_bar[n]),
                    resonant=bool(solution.resonant[n]))

    return {
        "phi0": solution.flow.phi0,
        "mu": solution.flow.mu,
        "mu0": solution.boundary.mu0,
        "n_max": solution.n_max,
        "r": table.r,
        "modes": _Deferred(mode, solution.n_max + 1),
    }


def report_payload(report, extras=None) -> dict:
    """Every SolveReport field, then the extras (which win on a clash)."""
    return {**dataclasses.asdict(report), **(extras or {})}


def write_modes_csv(path, table):
    """modes.csv from a ``ModeTable``, one mode at a time."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(_MODES_HEADER)
        for i in range(len(table.n)):
            fh.write(table.csv_text(i))


def write_field_csv(path, field, r):
    """field.csv, one row per (radius, angle).

    ``r`` holds the radii formatted (a ``ModeTable``'s), and the angles are
    formatted once here; u_r, u_theta and w are formatted per block of rows.
    """
    points = itertools.product(r, _column(field.theta))
    values = np.stack([field.ur, field.utheta, field.w], axis=-1)
    values = values.reshape(-1, 3)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("r,theta,u_r,u_theta,w\n")
        for i in range(0, len(values), _BLOCK_ROWS):
            lines = format_rows(values[i:i + _BLOCK_ROWS], ",")
            # lines first: zip stops without drawing a point past the block
            fh.write("".join([f"{a},{b},{line}\n"
                              for line, (a, b) in zip(lines, points)]))
