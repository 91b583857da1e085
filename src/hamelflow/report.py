"""Deterministic serialization of solutions and reports.

Identical inputs must produce byte-identical artifacts, so everything here
avoids wall-clock fields, hash randomization, and locale-dependent
formatting: dict keys are emitted sorted, floats carry 17 significant
digits (``%.17g``), strings are escaped ASCII, newlines are '\\n', and
non-finite floats are written as null.  Integer-valued floats below 1e16 in
magnitude are written x.0; floats with 1e16 <= |x| < 1e17 (all integers)
as bare integers, and from 1e17 on in exponent form.  A null in
report.json marks an undefined value: the decay slope of an inactive mode,
beta0/beta1/beta_sup1 without an active mode to take them from, and the
shoot residual of a fixed-mu solve.

Each value of a solve's modes.json, modes.csv and field.csv is formatted
once: the radii for all three files, the angles for all rows of field.csv,
and the mode profiles for both mode files (``ModeTable``, which formats
every mode when it is built).  One vectorized kernel (``format_rows``)
formats these cells into NUL-padded byte rows: ``_decimal`` finds each
value's 17 digits and decade, and ``_layout`` spells them out, gathering
each layout's run of rows from a table of digit quads; a cell the kernel
cannot decide goes through ``fmt_float``, which also writes the scalars.
Lines are laid out from the rows by ``_text``, one byte buffer per block
with NUL padding dropped: the CSV lines, and modes.json's radii and
[re, im] profile lists (``_Cells``), which the encoder (``_pieces``)
places as it would place the numbers themselves.  The encoder yields the
text in pieces, which ``write_json`` writes as they come: modes.json one
mode's text at a time.

Every artifact is written into a new file (``_create``): a regular file
at the path, or a symlink to one or to nothing, is unlinked first, so a
link there is replaced, not written through, and the old file is never
truncated, which on some file systems (ext4's ``auto_da_alloc``) flushes
its blocks to disk before the open returns.  Unlinking needs write
permission on the directory, not on the file.  A device or pipe at the
path, or a symlink to one (/dev/stdout), is written to as it is.  Writes
are not atomic: an interrupted run can leave a partial file.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import os

import numpy as np

__all__ = ["fmt_float", "format_rows", "dumps", "write_json",
           "solution_payload", "report_payload", "ModeTable",
           "write_modes_csv", "write_field_csv"]

_BLOCK_ROWS = 1024   # field.csv rows formatted and written at a time
_PROFILES = ("gamma", "dgamma", "w", "dw")
_MODES_HEADER = (b"n,r,gamma_re,gamma_im,dgamma_re,dgamma_im,w_re,w_im,"
                 b"dw_re,dw_im\n")


def fmt_float(x: float) -> str:
    x = float(x)
    if not np.isfinite(x):
        return "null"
    return f"{x:.1f}" if x == int(x) and abs(x) < 1e16 else f"{x:.17g}"


def format_rows(a, sep):
    """One line per row of a 2-D float array: sep.join(map(fmt_float, row)).

    With ``sep`` None, the cells instead: a (rows, columns, ``_CELL``)
    uint8 array holding each cell's ASCII bytes among NUL padding, which
    ``_text`` drops.
    """
    a = np.asarray(a, dtype=float)
    cells = _format_cells(a.ravel()).reshape(*a.shape, _CELL)
    if sep is None:
        return cells
    sep = sep.encode("ascii")
    pieces = [p for j in range(a.shape[1]) for p in (sep, cells[:, j])]
    text = _text(len(a), pieces[1:] + [b"\n"]).decode("ascii")
    return text.split("\n")[:-1]


def _column(x):
    """The cells of a 1-D float array, one (``_CELL``,) row per value."""
    return format_rows(np.reshape(x, (-1, 1)), None)[:, 0]


def _text(rows, pieces) -> bytes:
    """``rows`` lines made of the pieces side by side, NUL padding dropped.

    Each piece is a (rows, width) uint8 array, or bytes that every line
    carries; each is copied once into its columns of one line buffer.
    """
    pieces = [p if isinstance(p, np.ndarray) else np.frombuffer(p, np.uint8)
              for p in pieces]
    buf = np.empty((rows, sum(p.shape[-1] for p in pieces)), np.uint8)
    start = 0
    for p in pieces:
        stop = start + p.shape[-1]
        buf[:, start:stop] = p
        start = stop
    return buf[buf != 0].tobytes()


# ---------------------------------------------------------------------------
# The cell kernel: fmt_float of every value of an array at once.
#
# A positive finite x has 17 significant digits N (1e16 <= N < 1e17) in
# decade E, x ~ N * 10**(E - 16).  With x = f * 2**e (np.frexp), the
# scaled value s = x * 10**(16 - E) is f times a double-double entry
# (hi, lo) of 10**(16 - E) / 2**t, by Dekker's split product (exact
# without FMA), rescaled by 2**(e + t): P + Q with P an integer and the
# sum within about 2**-47 of s.  The decade is decided on this unrounded
# value; then N = round-half-even(s), and N = 1e17 carries into E + 1.
# Within _TIE of 1e16 from below counts as 1e16: only an exact power of
# ten lands there, and s computed a hair low would otherwise drop its
# decade.  A cell within _TIE of a rounding tie, or whose decade is not
# settled by one correction of floor(log10 x), is written by fmt_float.

_CELL = 24          # bytes of the widest cell: -1.2345678901234567e-305
_TIE = 2.0 ** -30   # distance from a tie or from 1e16 that s must clear
_KMIN, _KMAX = -300, 350   # 10**k the scaling needs: k = 16 - E, E in
_EMIN = 16 - _KMAX         # [-324, 308] and a margin either side
_SPLIT = 134217729.0       # 2**27 + 1, Veltkamp's splitting constant

# Byte columns of the per-cell source row that a layout gathers from
# (``_layout``); the quads sit at uint32 and the suffix at uint64 offsets.
_G = 3            # the 17 digits, after the '000' of the leading quad
_GM = 23          # the same with trailing zeros NUL
_DOT, _ZERO, _NUL, _DOTX = 40, 41, 42, 43   # '.', '0', NUL, '.' or NUL
_SUF = 48         # 8 bytes: e+XX / e-XXX, NUL-padded
_SRC = 56


class _Tables:
    """The kernel's tables, built in integer arithmetic (``_tables``).

    ``hi_hi``, ``hi_lo`` (Veltkamp halves of hi), ``lo`` and ``texp`` (t),
    indexed by k - _KMIN: (hi + lo) * 2**t = 10**k to about 2**-105.
    ``quads``: the four ASCII digits of q = 0..9999 as one uint32, then
    at 10000 + q the same with trailing zeros NUL.  ``suffix``: 'e%+03d' %
    E as one uint64, indexed by E - _EMIN.  ``layout``: per layout key
    (E + 4 for the fixed forms, -4 <= E <= 16; 21 for the exponent form),
    the source column of each byte after the sign.
    """

    def __init__(self):
        hi, lo, texp = [], [], []
        for k in range(_KMIN, _KMAX + 1):
            n = 10 ** abs(k)
            bits = n.bit_length()
            if k >= 0:   # 107-bit mantissa of n, truncated
                a = n << (107 - bits) if bits <= 107 else n >> (bits - 107)
                texp.append(bits - 1)
            else:        # 107-bit mantissa of 1 / n, truncated
                a = (1 << (106 + bits)) // n
                texp.append(-bits)
            h = float(a)
            hi.append(math.ldexp(h, -106))
            lo.append(math.ldexp(float(a - int(h)), -106))
        hi = np.array(hi)
        c = _SPLIT * hi
        self.hi_hi = c - (c - hi)
        self.hi_lo = hi - self.hi_hi
        self.lo = np.array(lo)
        self.texp = np.array(texp, np.int32)  # np.ldexp is slow with int64
        q = np.arange(10000)        # column by column: the temporaries
        quads = np.empty((2, 10000, 4), np.uint8)   # stay small
        trailing = np.ones(10000, bool)
        for j in range(3, -1, -1):
            digit = q // 10 ** (3 - j) % 10
            trailing &= digit == 0
            quads[0, :, j] = digit + ord("0")
            quads[1, :, j] = np.where(trailing, 0, digit + ord("0"))
        self.quads = quads.reshape(20000, 4).view(np.uint32)[:, 0]
        exps = range(_EMIN, 17 - _KMIN)
        self.suffix = np.array([f"e{e:+03d}" for e in exps],
                               dtype="S8").view(np.uint64)
        self.layout = np.full((22, _CELL - 1), _NUL)
        for e in range(17):              # ddd.ddd, int digits kept; ddd.0
            cols = list(range(_G, _G + e + 1))
            if e < 16:
                cols += [_DOT, _G + e + 1] + list(range(_GM + e + 2, _GM + 17))
            self.layout[e + 4, :len(cols)] = cols
        for e in range(-4, 0):           # 0.000ddd
            cols = [_ZERO, _DOT] + [_ZERO] * (-e - 1) + list(
                range(_GM, _GM + 17))
            self.layout[e + 4, :len(cols)] = cols
        cols = [_G, _DOTX] + list(range(_GM + 1, _GM + 17)) + list(
            range(_SUF, _SUF + 5))       # d.ddde-XX
        self.layout[21, :len(cols)] = cols
        for t in vars(self).values():
            t.setflags(write=False)


_tables = functools.cache(_Tables)   # built on first use, not at import


def _scaled(f, e, E):
    """s = f * 2**e * 10**(16 - E) as the unevaluated sum P + Q."""
    tab, k = _tables(), 16 - E - _KMIN
    hh, hl = tab.hi_hi[k], tab.hi_lo[k]
    c = _SPLIT * f
    fh = c - (c - f)
    fl = f - fh
    p = f * (hh + hl)
    err = ((fh * hh - p) + fh * hl + fl * hh) + fl * hl
    t = e + tab.texp[k]
    return np.ldexp(p, t), np.ldexp(err + f * tab.lo[k], t)


def _format_cells(x):
    """fmt_float of each value of a 1-D float array, as the rows of a
    (len(x), _CELL) uint8 array padded with NUL.

    The regular cells (finite, nonzero) are laid out by ``_layout`` in the
    order of their layouts and gathered back into place; when a block
    holds nan, inf or zero cells, those are written first and the regular
    rows scattered among them.
    """
    finite = np.isfinite(x)
    v = np.abs(x)
    regular = np.flatnonzero(finite & (v != 0))
    N, E, undecided = _decimal(v.take(regular))
    body, order = _layout(N, E)
    if len(regular) == len(x):
        out = np.empty((len(x), _CELL), np.uint8)
        inverse = np.empty_like(order)
        inverse[order] = np.arange(len(order))
        out[:, 1:] = body.take(inverse, axis=0)
        out[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    else:
        out = np.zeros((len(x), _CELL), np.uint8)
        out[~finite, :4] = np.frombuffer(b"null", np.uint8)
        out[finite & np.signbit(x), 0] = ord("-")
        out[v == 0, 1:4] = np.frombuffer(b"0.0", np.uint8)
        out[regular[order], 1:] = body
    for i in regular[undecided]:
        text = fmt_float(x[i]).encode("ascii")
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out


def _decimal(v):
    """The 17 digits N and decade E of each positive finite v, and which
    of them the kernel cannot decide."""
    f, e = np.frexp(v)
    E = np.floor(np.log10(v)).astype(np.int64)
    P, Q = _scaled(f, e, E)
    shift = ((P - 1e17) + Q >= 0).astype(np.int64) - (
        (P - 1e16) + Q < -_TIE)
    moved = np.flatnonzero(shift)
    E[moved] += shift[moved]
    P[moved], Q[moved] = _scaled(f[moved], e[moved], E[moved])
    frac = Q - np.floor(Q)
    undecided = ((np.abs(frac - 0.5) < _TIE) | ((P - 1e16) + Q < -_TIE)
                 | ((P - 1e17) + Q >= 0))
    N = P.astype(np.int64) + np.rint(Q).astype(np.int64)
    carry = N == 10 ** 17
    N[carry] = 10 ** 16
    return N, E + carry, undecided


def _layout(N, E):
    """The bytes after the sign of each cell with digits N in decade E, in
    the order of the returned indices (each layout a run of rows).

    Each cell's source row (``_SRC`` bytes) holds its digits as five
    quads, once as written and once with trailing zeros NUL, the '.',
    '0' and NUL bytes, and its exponent suffix; each layout gathers its
    run of rows from these columns.
    """
    tab = _tables()
    key = np.where((E >= -4) & (E <= 16), E + 4, 21).astype(np.uint8)
    order = np.argsort(key, kind="stable")
    N, E = N.take(order), E.take(order)
    top, low = np.divmod(N, 10 ** 8)
    # The rest of the split runs in floating point, exactly: top < 1e9 and
    # low < 1e8 are exact doubles, and for an integer x < 1e9, floor(x /
    # 1e8) and floor(x / 1e4) are exact, since a nonzero remainder puts
    # the quotient at least 1e-8 from an integer, far beyond the rounding
    # error of the division; the products and differences are integers
    # below 2**53.
    top, low = top.astype(float), low.astype(float)
    lead = np.floor(top / 1e8)
    high = top - lead * 1e8
    chunk = np.empty((len(N), 5), np.intp)    # 1 + 4 * 4 digits
    chunk[:, 0] = lead
    chunk[:, 1] = q = np.floor(high / 1e4)
    chunk[:, 2] = high_rest = high - q * 1e4
    chunk[:, 3] = q = np.floor(low / 1e4)
    chunk[:, 4] = low_rest = low - q * 1e4
    src = np.empty((len(N), _SRC), np.uint8)  # bytes 44-47 are never read
    words = src.view(np.uint32)
    words[:, :5] = tab.quads.take(chunk)
    fraction = (high != 0) | (low != 0)       # a digit after the first
    src[:, _DOTX] = np.where(fraction, ord("."), 0)
    # Each quad again, with trailing zeros NUL where no nonzero quad
    # follows it.
    low_zero = low == 0
    chunk[:, 0] += 10000 * ~fraction
    chunk[:, 1] += 10000 * (low_zero & (high_rest == 0))
    chunk[:, 2] += 10000 * low_zero
    chunk[:, 3] += 10000 * (low_rest == 0)
    chunk[:, 4] += 10000
    words[:, 5:10] = tab.quads.take(chunk)
    src[:, _DOT], src[:, _ZERO], src[:, _NUL] = ord("."), ord("0"), 0
    src.view(np.uint64)[:, _SUF // 8] = tab.suffix.take(E - _EMIN)
    out = np.empty((len(N), _CELL - 1), np.uint8)
    start = 0
    for k, stop in enumerate(np.cumsum(np.bincount(key, minlength=22))):
        if stop > start:
            src[start:stop].take(tab.layout[k], axis=1,
                                 out=out[start:stop])
        start = stop
    return out, order


class _Cells:
    """A list of numbers formatted ahead: ``rows`` items, each the row's
    pieces side by side (``_text``).  The encoder lays it out as it would
    lay out the numbers themselves."""

    def __init__(self, rows, pieces):
        self.rows, self.pieces = rows, pieces

    def __len__(self):
        return self.rows

    def text(self, opening, sep, closing):
        """The items between ``opening`` and ``closing``, ``sep`` apart."""
        body = _text(self.rows, self.pieces + [sep.encode("ascii")])
        return f"{opening}{body.decode('ascii')[:-len(sep)]}{closing}"


def _scalar(obj) -> str:
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
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _pieces(obj, indent):
    """The JSON text of ``obj`` in pieces: the items of a dict, and of a
    list laid out one per line, one at a time, and anything else whole."""
    if isinstance(obj, dict):
        items = ((json.dumps(str(k)) + ": ", obj[k]) for k in sorted(obj))
        brackets = "{}"
    elif isinstance(obj, (list, tuple, np.ndarray, _Cells)):
        # Up to 8 numbers share one line, anything else takes one line per
        # item; preformatted lists hold numbers.
        one_line = len(obj) <= 8 and (isinstance(obj, _Cells) or all(
            isinstance(v, numbers.Number) for v in obj))
        if isinstance(obj, _Cells):
            yield obj.text(*(("[", ", ", "]") if one_line
                             else _lined("[]", indent)))
            return
        if one_line:
            yield f"[{', '.join(map(_scalar, obj))}]"
            return
        items = (("", v) for v in obj)
        brackets = "[]"
    else:
        yield _scalar(obj)
        return
    opening, sep, closing = _lined(brackets, indent)
    first = True
    for key, value in items:
        yield (opening if first else sep) + key
        yield from _pieces(value, indent + 2)
        first = False
    yield brackets if first else closing


def _lined(brackets, indent):
    """The opening, separator and closing of items one per line, two
    spaces deeper than the closing bracket."""
    pad = " " * indent
    return f"{brackets[0]}\n  {pad}", f",\n  {pad}", f"\n{pad}{brackets[1]}"


def dumps(obj) -> str:
    return "".join(_pieces(obj, 0)) + "\n"


def _create(path, mode, **kwargs):
    """``open(path, mode)`` on a new file: a regular file at ``path``, or a
    symlink to one or to nothing, is unlinked first.  Anything else there
    is opened as ``open`` opens it: a device or pipe is written to, not
    removed."""
    if os.path.isfile(path) or not os.path.exists(path):
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
    return open(path, mode, **kwargs)


def write_json(path, obj):
    """dumps(obj) to ``path``, written piece by piece as it is laid out:
    a modes.json one mode's text at a time.  A file already at ``path``
    is replaced by a new one (``_create``)."""
    with _create(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(_pieces(obj, 0))
        fh.write("\n")


class ModeTable:
    """Mode profiles on the radial grid, each value formatted once, when
    the table is built.

    Built from mode numbers ``n``, nodes ``r`` and the (mode, node)
    profiles gamma, dgamma, w and dw.  The radii's cells ``_r`` serve
    modes.csv and field.csv, and ``r``, the same cells as a list,
    modes.json.  Each mode is formatted as one row of 8 cells (re, im of
    each profile) per node, one mode at a time; its modes.json [re, im]
    lists and its modes.csv lines are laid out from slices of these rows.
    """

    def __init__(self, n, r, gamma, dgamma, w, dw):
        self.n = np.asarray(n).tolist()
        self._r = _column(r)
        self.r = _Cells(len(self._r), [self._r])
        self._modes = [format_rows(np.stack(
            [np.asarray(p[i], dtype=complex) for p in (gamma, dgamma, w, dw)],
            axis=-1).view(float), None) for i in range(len(self.n))]

    @classmethod
    def of(cls, solution):
        return cls(range(solution.n_max + 1), solution.grid.r,
                   solution.gamma, solution.dgamma, solution.w, solution.dw)

    def json_profiles(self, i) -> dict:
        """Mode i's profiles as preformatted [re, im] lists, by name."""
        cells = self._modes[i]
        return {name: _Cells(len(cells), [b"[", cells[:, 2 * k], b", ",
                                          cells[:, 2 * k + 1], b"]"])
                for k, name in enumerate(_PROFILES)}

    def csv_text(self, i) -> bytes:
        """Mode i's modes.csv lines."""
        cells = self._modes[i]
        pieces = [f"{self.n[i]},".encode("ascii"), self._r]
        for k in range(8):
            pieces += [b",", cells[:, k]]
        return _text(len(cells), pieces + [b"\n"])


def solution_payload(solution, table) -> dict:
    """Mode arrays and grid as plain structures (complex -> [re, im]).

    The radii and profiles come formatted from ``table``, the solution's
    ``ModeTable``, as lists that the encoder lays out.
    """
    return {
        "phi0": solution.flow.phi0,
        "mu": solution.flow.mu,
        "mu0": solution.boundary.mu0,
        "n_max": solution.n_max,
        "r": table.r,
        "modes": [dict(table.json_profiles(n), n=n,
                       gamma_bar=complex(solution.gamma_bar[n]),
                       w_bar=complex(solution.w_bar[n]))
                  for n in range(solution.n_max + 1)],
    }


def report_payload(report, extras=None) -> dict:
    """Every SolveReport field, then the extras (which win on a clash)."""
    return {**dataclasses.asdict(report), **(extras or {})}


def write_modes_csv(path, table):
    """modes.csv from a ``ModeTable``, one mode at a time.  A file already
    at ``path`` is replaced by a new one (``_create``)."""
    with _create(path, "wb") as fh:
        fh.write(_MODES_HEADER)
        for i in range(len(table.n)):
            fh.write(table.csv_text(i))


def write_field_csv(path, field, table):
    """field.csv, one row per (radius, angle).

    The radii come formatted from ``table`` (the solution's ``ModeTable``),
    and the angles are formatted once here; u_r, u_theta and w are
    formatted per block of rows.  A file already at ``path`` is replaced
    by a new one (``_create``).
    """
    r = table._r
    theta = _column(field.theta)
    values = np.stack([field.ur, field.utheta, field.w], axis=-1)
    values = values.reshape(-1, 3)
    with _create(path, "wb") as fh:
        fh.write(b"r,theta,u_r,u_theta,w\n")
        for i in range(0, len(values), _BLOCK_ROWS):
            cells = format_rows(values[i:i + _BLOCK_ROWS], None)
            node, angle = np.divmod(np.arange(i, i + len(cells)), len(theta))
            fh.write(_text(len(cells), [
                r.take(node, axis=0), b",", theta.take(angle, axis=0), b",",
                cells[:, 0], b",", cells[:, 1], b",", cells[:, 2], b"\n"]))
