"""Radial grid, weighted quadrature, and boundary-trace projection.

All radial profiles live on a geometric grid r_j = exp(j h), j = 0..J, with
r_0 = 1 and r_J = R_max exactly.  The solver needs two families of weighted
cumulative integrals,

    out_j = int_{r_j}^{inf} s f(s) (r_j / s)^zeta ds        (Re zeta >= 0),
    in_j  = int_{1}^{r_j}   s f(s) (r_j / s)^zeta ds        (Re zeta <= 0),

evaluated at every node.  Both satisfy one-step recurrences along the grid
whose multipliers have modulus <= 1 for every exponent the solver uses, so
they are accumulated by stable linear scans rather than by repeated
summation; the scans work on blocks of 16 nodes, joined by one product of
the block carries rather than a loop over the blocks, and the node powers
r_j^z the solver needs, and (r_j^z - 1)/z, are built from the same blocks
(``RadialGrid.powers``, ``RadialGrid.expm1_powers``).
Every routine takes either one profile or a stack of rows
(one exponent zeta per row), so all modes of a kernel family are integrated
in one call.

The segment integrals are product integration in x = log s (Filon's idea):
on [x_j, x_j + h] the integrand is D(x) e^{-zeta (x - x_j)}, D = s (s f),
and the kernel factor is integrated exactly against the cubic that
interpolates D through nodes j-1..j+2 (the first four nodes on the first
segment, the last four on the last).  Segment j is then
h sum_k W_k(zeta h) D_{j+k}: one linear rule whose four weights per
stencil depend on (zeta, h) only, never on the data.  It is exact for
cubics in log r, not for pure powers of r, and converges at fourth order.
The in integrals take the same rule on the reversed row with z = -zeta h,
after which out and in rows share one forward scan: ``integrate_out_in``
integrates a family's out and in stacks in one kernel call.

Beyond R_max the integrand is modeled as a power tail r^p with p fitted from
the log ratios of the last five samples and clamped to at most
``_TAIL_EXPONENT_FLOOR`` (the shallowest decay the extrapolation will
accept); a fitted p >= -1 raises ``DivergentTailError`` unless the tail
is negligible against its whole row (below one ulp of its largest value).
A ratio beyond the phase or steepness limit makes the fit use the log
moduli only.  That fallback keeps the tails of real rows real: a zero
crossing among the last five samples is a ratio of phase pi, which as a
complex exponent would give a real integral an imaginary part.

A boundary trace is a ``BoundarySpectrum``: modes 0..n_max of
(u_r* + phi0, u_theta* - mu) with the flux phi0, the trace's mean swirl mu0
and the circulation mu it is budgeted against.  Its mean row follows from
those three numbers, so the spectrum derives it rather than storing a
second copy that could disagree, and it carries its checked flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .flows import ReferenceFlow

__all__ = [
    "DivergentTailError",
    "FluxMismatchError",
    "RadialGrid",
    "build_grid",
    "integrate_out_all",
    "integrate_in_all",
    "integrate_out_in",
    "BoundarySpectrum",
    "project_boundary",
    "synthesize_boundary",
]

_PHASE_JUMP_LIMIT = 2.5     # tail |Im log ratio| beyond this -> modulus fit
_STEEP_SEGMENT_LIMIT = 2.5  # tail |Re log ratio| beyond this -> modulus fit
_TAIL_EXPONENT_FLOOR = -1.1  # shallowest tail decay r^p extrapolated
_NEGLIGIBLE_TAIL = 1e-300
_SCAN_BLOCK = 16            # nodes per block of the recurrence scans
_MIN_NODES = 5              # the tail fit and the 5-point stencils
_LOG_DOUBLE_MAX = math.log(np.finfo(float).max)
# Entry (k, m) of a scan block's Toeplitz matrix is factor^(k - m) below the
# diagonal and 0 above it: the index of that power, or of a trailing 0.
_SCAN_LAG = np.subtract.outer(np.arange(_SCAN_BLOCK), np.arange(_SCAN_BLOCK))
_SCAN_LAG = np.where(_SCAN_LAG >= 0, _SCAN_LAG, _SCAN_BLOCK + 1)


class DivergentTailError(ArithmeticError):
    """Tail extrapolation would diverge: fitted exponent >= -1.

    ``row`` is the index of the diverging row in the out stack passed to
    ``integrate_out_all`` or ``integrate_out_in`` (0 for a single profile;
    in rows have no tail) and ``zeta`` its kernel
    exponent, which names the kernel family: k for the stream modes,
    zeta_n^+ for vorticity, -(phi0+1) and 0 for the mean mode.
    """

    def __init__(self, message, exponent=None, row=None, zeta=None):
        super().__init__(message)
        self.exponent = exponent
        self.row = row
        self.zeta = zeta

    def __str__(self):
        text = super().__str__()
        if self.row is None:
            return text
        z = complex(self.zeta)
        return (f"{text} (kernel row {self.row}, "
                f"zeta={z.real:.6g}{z.imag:+.6g}j)")


class FluxMismatchError(ValueError):
    """Boundary samples carry a mean radial velocity inconsistent with phi0."""


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Geometric grid on [1, r_max] with nodes r_j = exp(j h), at least 5."""

    r_max: float
    nodes_per_decade: int
    h: float = field(init=False)
    r: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.r_max <= 1.0:
            raise ValueError(f"r_max must exceed 1, got {self.r_max}")
        if self.nodes_per_decade < 8:
            raise ValueError("nodes_per_decade must be at least 8")
        n_seg = int(np.ceil(self.nodes_per_decade * np.log10(self.r_max)))
        if n_seg + 1 < _MIN_NODES:
            raise ValueError(
                f"r_max={self.r_max:g} at {self.nodes_per_decade} nodes per "
                f"decade gives {n_seg + 1} nodes; need at least "
                f"{_MIN_NODES} for the tail fit and the residual stencils")
        h = np.log(self.r_max) / n_seg
        r = np.exp(h * np.arange(n_seg + 1))
        r[0] = 1.0
        r[-1] = self.r_max
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "r", r)

    @property
    def n_nodes(self) -> int:
        return self.r.size

    @property
    def log_r(self) -> np.ndarray:
        return self.h * np.arange(self.r.size)

    def powers(self, z) -> np.ndarray:
        """r_j^z at every node, one row per exponent of the 1-d ``z``.

        Node j = 16 b + k gives r_j^z = e^{16 z h b} e^{z h k}: two small
        exp tables, (rows, blocks) and (rows, 16), and their broadcast
        product, in place of one exp per node.  Real ``z`` gives real rows.
        Agrees with ``r ** z`` to the rounding of z log r, which both round
        (and the node r_j itself carries): 1e-13 relative at |z log r| = 450.
        """
        z = np.asarray(z)[:, None]
        size = _SCAN_BLOCK
        n_blocks = -(-self.n_nodes // size)
        inner = np.exp(z * (self.h * np.arange(size)))
        outer = np.exp(z * (size * self.h * np.arange(n_blocks)))
        table = outer[:, :, None] * inner[:, None, :]
        return table.reshape(len(z), n_blocks * size)[:, :self.n_nodes]

    def expm1_powers(self, z) -> np.ndarray:
        """(r_j^z - 1)/z at every node, one row per exponent of the 1-d
        ``z``; log r_j where z is exactly 0, and continuous through it.

        The blocks of ``powers``, joined by e(x + y) = e(x) + (1 + z e(x))
        e(y) for e(x) = expm1(z x)/z: two small expm1 tables, (rows,
        blocks) and (rows, 16), holding x itself on the rows with z == 0.
        No difference of powers is taken, so nothing cancels as z nears 0.
        """
        z = np.asarray(z)[:, None]
        zero = z == 0
        scale = np.where(zero, 1.0, z)
        size = _SCAN_BLOCK
        n_blocks = -(-self.n_nodes // size)
        table = lambda x: np.where(zero, x, np.expm1(z * x) / scale)
        inner = table(self.h * np.arange(size))[:, None, :]
        outer = table(size * self.h * np.arange(n_blocks))[:, :, None]
        joined = outer + (1.0 + z[:, :, None] * outer) * inner
        return joined.reshape(len(z), n_blocks * size)[:, :self.n_nodes]


def build_grid(r_max: float = 1e4, nodes_per_decade: int = 64) -> RadialGrid:
    return RadialGrid(r_max=float(r_max), nodes_per_decade=int(nodes_per_decade))


# The four weights of the cubic through a segment's stencil, as combinations
# of the moments M_0..M_3: row m holds the coefficients of u^m in the
# Lagrange basis polynomials of the first stencil (nodes 0..3, u = 0..3),
# the inner one (nodes j-1..j+2, u = -1..2) and the last one (nodes
# J-3..J, u = -2..1), four columns each.
_CUBIC_BASIS = np.array([
    [1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
    [-11 / 6, 3.0, -1.5, 1 / 3, -1 / 3, -0.5, 1.0, -1 / 6,
     1 / 6, -1.0, 0.5, 1 / 3],
    [1.0, -2.5, 2.0, -0.5, 0.5, -1.0, 0.5, 0.0, 0.0, 0.5, -1.0, 0.5],
    [-1 / 6, 0.5, -0.5, 1 / 6, -1 / 6, 0.5, -0.5, 1 / 6,
     -1 / 6, 0.5, -0.5, 1 / 6],
])
# Taylor coefficients of M_m(z) = sum_k (-z)^k / (k! (m + k + 1)), m = 0..3:
# row k multiplies (-z)^k; 18 terms reach rounding for |z| < 1.
_MOMENT_SERIES = np.array([[1.0 / (math.factorial(k) * (m + k + 1))
                            for m in range(4)] for k in range(18)])


def _cubic_weights(z):
    """Weights of the three cubic stencils, (rows, 12), for a (rows, 1)
    column z: column 4 s + k is int_0^1 L_k(u) e^{-z u} du for basis
    polynomial k of stencil s (first, inner, last).

    They combine the moments M_m = int_0^1 u^m e^{-z u} du, summed from
    their Taylor series where |z| < 1 and by the upward recurrence
    M_m = (m M_{m-1} - e^{-z}) / z elsewhere.  The series is one product
    per row of the powers (-z)^0..(-z)^17, formed by a cumulative product
    of z where |z| < 1 and of 0 elsewhere, so no power overflows; a second
    product per row combines the moments.  No product runs across the
    rows, so a row's weights do not depend on its stack.
    """
    small = np.abs(z) < 1.0
    powers = np.empty((len(z), 1, len(_MOMENT_SERIES)), dtype=complex)
    powers[:, 0, 0] = 1.0
    powers[:, 0, 1:] = -np.where(small, z, 0.0)
    np.cumprod(powers, axis=2, out=powers)
    moments = powers @ _MOMENT_SERIES
    if not small.all():
        zr = np.where(small, 1.0, z)
        decay = np.exp(-zr)
        rec = np.empty_like(moments[:, 0])
        rec[:, :1] = (1.0 - decay) / zr
        for m in range(1, 4):
            rec[:, m:m + 1] = (m * rec[:, m - 1:m] - decay) / zr
        moments[:, 0] = np.where(small, moments[:, 0], rec)
    return (moments @ _CUBIC_BASIS)[:, 0]


def _segment_integrals(d, z, h):
    """h int_0^1 P_j(u) e^{-z u} du on every segment j of each row of ``d``.

    ``d`` is a (rows, nodes) stack of samples on a uniform grid of step h
    and z a (rows, 1) column; P_j is the cubic through nodes j-1..j+2 in
    u = (x - x_j)/h, through nodes 0..3 on the first segment and the last
    four nodes on the last.  The rule is linear in ``d`` with weights fixed
    by (z, h), exact for cubics in x, and of fourth order.  Each row is the
    product of its (nodes - 3, 4) window of four-node stencils with its
    own four weights (the first and last segments take the first and last
    window), so no product runs across the rows.  Returns (rows, nodes - 1).
    """
    rows, n = d.shape
    w = (_cubic_weights(z) * h).reshape(rows, 3, 4, 1)
    window = as_strided(d, (rows, n - 3, 4), d.strides + d.strides[1:],
                        writeable=False)
    seg = np.empty((rows, n - 1, 1), dtype=complex)
    np.matmul(window, w[:, 1], out=seg[:, 1:-1])
    np.matmul(window[:, :1], w[:, 0], out=seg[:, :1])
    np.matmul(window[:, -1:], w[:, 2], out=seg[:, -1:])
    return seg[:, :, 0]


def _tail_value(grid: RadialGrid, base5, step, scale):
    """Extrapolated int_{R_max}^inf g(s) ds, g(s) = s f(s) (R_max/s)^zeta,
    one per row.

    ``base5`` holds r f at the last five nodes, one row per integrand,
    ``step`` the row's segment weight e^{-zeta h} and ``scale`` the row's
    largest |r f| on the grid.  The exponent p of g is fitted from the log
    ratios of g between the last five nodes: their mean when all four stay
    within the phase and steepness limits, so oscillatory power tails
    (complex p) extrapolate exactly, and the mean of their log moduli
    otherwise.  It is clamped to at most ``_TAIL_EXPONENT_FLOOR``; rows
    with a zero sample take the floor.

    A tail is negligible, and taken as 0, when the most it adds at any
    node, |g(R_max)| max(1, R_max^-Re zeta), is at most 1e-17 of
    ``scale``: below one ulp of the row, where the last samples may be
    rounding noise that fits as any power.  Raises ``DivergentTailError``
    if a row that is not negligible diverges.
    """
    # Log ratios as log|ratio| + i arg(ratio), in real arithmetic: complex
    # np.log costs several times as much on these small arrays.  A row
    # with a non-finite sample fits and extrapolates to NaN without a
    # warning, for the caller's finiteness check to report.
    with np.errstate(all="ignore"):
        ratio = base5[:, 1:] * step / base5[:, :-1]
        log_mod = np.log(np.abs(ratio))
        phase = np.arctan2(ratio.imag, ratio.real)
        usable = ((np.abs(log_mod).max(axis=1) < _STEEP_SEGMENT_LIMIT)
                  & (np.abs(phase).max(axis=1) < _PHASE_JUMP_LIMIT))
        p = np.empty(len(base5), dtype=complex)
        p.real = log_mod.sum(axis=1)
        p.imag = np.where(usable, phase.sum(axis=1), 0.0)
        p /= 4.0 * grid.h
        g_end = base5[:, -1]
        reach = np.fmax(1.0, np.abs(step[:, 0]) ** (grid.n_nodes - 1))
        negligible = np.abs(g_end) * reach <= np.fmax(_NEGLIGIBLE_TAIL,
                                                      1e-17 * scale)
        fit = ~negligible & np.all(base5, axis=1)    # no zero sample
        diverging = fit & (p.real >= -1.0)
        if np.any(diverging):
            i = np.flatnonzero(diverging)[np.argmax(p.real[diverging])]
            worst = float(p.real[i])
            raise DivergentTailError(
                f"integrand tail fitted as r^{worst:.3g} at "
                f"r_max={grid.r_max:g}; the weighted integral does not "
                "converge", exponent=worst, row=int(i))
        p = np.where(~fit | (p.real > _TAIL_EXPONENT_FLOOR),
                     _TAIL_EXPONENT_FLOOR, p)
        return np.where(negligible, 0.0 + 0.0j,
                        g_end * grid.r_max / (-(p + 1.0)))


def _scan_forward(local, factor):
    """e_j = factor * e_{j-1} + local_j along the last axis, one factor per row.

    The nodes are cut into B blocks of ``_SCAN_BLOCK``.  Inside a block the
    recurrence is a lower-triangular Toeplitz product with the powers
    factor^0..factor^(_SCAN_BLOCK - 1).  The blocks are joined without a
    loop: each block's last value without carry-in, l_b, is one product
    with factor^15..factor^0; the carries c_b = l_b + p c_{b-1}, with
    p = factor^_SCAN_BLOCK, are one product c = P l with the
    lower-triangular Toeplitz matrix P of p^0..p^(B-2); and factor c_{b-1}
    added to the first input of block b makes the block product return
    every node.  Every product is taken per row.  A power that underflows
    only drops terms below rounding of the values it would reach; for
    |factor| > 1 the powers stay finite while the row's own growth does,
    |factor|^n < 1e308.
    """
    rows, n = local.shape
    size = _SCAN_BLOCK
    n_blocks = -(-n // size)
    x = np.zeros((rows, n_blocks * size), dtype=complex)
    x[:, :n] = local
    x = x.reshape(rows, n_blocks, size)
    powers = np.zeros((rows, size + 2), dtype=complex)
    powers[:, :-1] = factor[:, None] ** np.arange(size + 1)
    if n_blocks > 1:
        last = x[:, :-1] @ powers[:, size - 1::-1, None]
        lag = np.subtract.outer(np.arange(n_blocks - 1),
                                np.arange(n_blocks - 1))
        carry_powers = np.zeros((rows, n_blocks), dtype=complex)
        carry_powers[:, :-1] = (powers[:, size, None]
                                ** np.arange(n_blocks - 1))
        # np.take gathers P contiguous: a strided P (as fancy indexing
        # gives) sends one-row stacks down another matmul path
        toeplitz = np.take(carry_powers, np.where(lag >= 0, lag, n_blocks - 1),
                           axis=1)
        x[:, 1:, :1] += factor[:, None, None] * (toeplitz @ last)
    scan = x @ np.take(powers, _SCAN_LAG.T, axis=1)
    return scan.reshape(rows, -1)[:, :n]


def _rows(grid: RadialGrid, f, zeta):
    """Samples as (rows, nodes) and exponents as a (rows, 1) column."""
    f = np.asarray(f, dtype=complex)
    if f.ndim not in (1, 2) or f.shape[-1] != grid.n_nodes:
        raise ValueError("sample array does not match the grid")
    rows = np.atleast_2d(f)
    zeta = np.asarray(zeta, dtype=complex).reshape(-1)
    if zeta.size != rows.shape[0]:
        raise ValueError("need one exponent zeta per sample row")
    return rows, zeta[:, None]


def _live(rows):
    """Index of the rows holding a nonzero sample: all of them as a slice."""
    live = rows.any(axis=1)
    return slice(None) if live.all() else live


def _scatter(values, live, shape):
    """The live rows' ``values`` in a stack of ``shape``, the rest +0."""
    if isinstance(live, slice):
        return values
    out = np.zeros(shape, dtype=complex)
    out[live] = values
    return out


def _check_growth(grid: RadialGrid, side, zeta, live):
    """Raise ``OverflowError`` if a live row's scan factor, e^{-zeta h} on
    the out side and e^{zeta h} on the in side, grows beyond the double
    range over the grid: its scan would return NaN."""
    rate = zeta[live, 0].real * (-1.0 if side == "out" else 1.0)
    growth = rate.max(initial=0.0) * grid.h * (grid.n_nodes - 1)
    if growth > _LOG_DOUBLE_MAX:
        row = int(np.arange(len(zeta))[live][np.argmax(rate)])
        z = complex(zeta[row, 0])
        raise OverflowError(
            f"{side} integral grows by e^{growth:.4g} over the grid, beyond "
            f"the double range ({side} kernel row {row}, "
            f"zeta={z.real:.6g}{z.imag:+.6g}j)")


def integrate_out_in(grid: RadialGrid, f_out, zeta_out, f_in, zeta_in):
    """(``integrate_out_all(grid, f_out, zeta_out)``,
    ``integrate_in_all(grid, f_in, zeta_in)``) from one kernel call.

    Each side is one profile with a scalar exponent or a (rows, nodes)
    stack with one exponent per row, and its result has the shape of its
    samples.  Segment j of an out row is, in x = log s, D e^{-zeta (x - x_j)}
    with D = s (s f), referenced to its left node; segment j-1..j of an in
    row, referenced to its right node, is the same rule on the reversed row
    with z = -zeta h.  So both sides are one stack of segment integrals and
    one forward scan, with factor e^{-z}, of [tail or 0, reversed segment
    integrals]; the out rows are read back reversed.  Rows that are
    identically zero return +0 at no cost, and a call whose rows are all
    zero makes no kernel work at all.  A diverging out row raises
    ``DivergentTailError`` naming its index in ``f_out``; a row whose scan
    factor grows beyond the double range over the grid raises
    ``OverflowError`` naming its index and zeta.
    """
    fo, zo = _rows(grid, f_out, zeta_out)
    fi, zi = _rows(grid, f_in, zeta_in)
    live_o, live_i = _live(fo), _live(fi)
    _check_growth(grid, "out", zo, live_o)
    _check_growth(grid, "in", zi, live_i)
    try:
        out, inn = _integrate(grid, fo[live_o], zo[live_o],
                              fi[live_i], zi[live_i])
    except DivergentTailError as exc:
        # the kernel saw the live rows only: name the row of the caller's
        # stack and its exponent
        exc.row = int(np.arange(len(fo))[live_o][exc.row])
        exc.zeta = complex(zo[exc.row, 0])
        raise
    out = _scatter(out, live_o, fo.shape)
    inn = _scatter(inn, live_i, fi.shape)
    return (out if np.ndim(f_out) == 2 else out[0],
            inn if np.ndim(f_in) == 2 else inn[0])


def _integrate(grid: RadialGrid, f_out, zeta_out, f_in, zeta_in):
    """``integrate_out_in`` on (rows, nodes) stacks of live rows and their
    (rows, 1) exponent columns."""
    n_out = len(f_out)
    if n_out + len(f_in) == 0:
        return f_out, f_in
    h = grid.h
    base = grid.r * f_out
    d = np.empty((n_out + len(f_in), grid.n_nodes), dtype=complex)
    np.multiply(grid.r, base, out=d[:n_out])
    d[n_out:] = (grid.r * (grid.r * f_in))[:, ::-1]
    z = np.concatenate([zeta_out, -zeta_in]) * h
    step = np.exp(-z)
    local = np.empty_like(d)
    local[:, 1:] = _segment_integrals(d, z, h)[:, ::-1]
    if n_out:
        local[:n_out, 0] = _tail_value(grid, base[:, -5:], step[:n_out],
                                       np.abs(base).max(axis=1))
    local[n_out:, 0] = 0.0
    scan = _scan_forward(local, step[:, 0])
    return scan[:n_out, ::-1], scan[n_out:]


def integrate_out_all(grid: RadialGrid, f, zeta) -> np.ndarray:
    """out_j = int_{r_j}^inf s f(s) (r_j/s)^zeta ds for every node j.

    ``f`` is one profile of shape (nodes,) with a scalar ``zeta``, or a
    stack of shape (rows, nodes) with one ``zeta`` per row; the result has
    the shape of ``f``.  The scan multiplier is e^{-zeta h}, of modulus
    <= 1 for Re zeta >= 0, which covers every solver use except the
    sink-weighted inner integral (zeta = -(phi0+1)); its growth is matched
    by the decay of the values it multiplies, keeping the relative error at
    O(J eps).  Rows that are identically zero return +0 at no cost.  The
    out side of ``integrate_out_in``.
    """
    return integrate_out_in(grid, f, zeta, _no_rows(grid), ())[0]


def integrate_in_all(grid: RadialGrid, f, zeta) -> np.ndarray:
    """in_j = int_1^{r_j} s f(s) (r_j/s)^zeta ds for every node j.

    Same shapes as ``integrate_out_all``.  Stable for Re zeta <= 0 (scan
    multiplier e^{zeta h}).  The in side of ``integrate_out_in``.
    """
    return integrate_out_in(grid, _no_rows(grid), (), f, zeta)[1]


def _no_rows(grid: RadialGrid):
    return np.empty((0, grid.n_nodes), dtype=complex)


# ---------------------------------------------------------------------------
# boundary traces


@dataclass(frozen=True, eq=False)
class BoundarySpectrum:
    """Fourier data of the boundary trace relative to the reference flow.

    vr[n] and vtheta[n] for n = 0..n_max are coefficients of
    (u_r* + phi0) and (u_theta* - mu); negative modes follow by conjugation.
    The mean row is not data: the spectrum keeps complex copies of ``vr``
    and ``vtheta`` with vr[0] = 0 (flux matching) and vtheta[0] = mu0 - mu
    (the circulation deficit), whatever the caller put at index 0.
    """

    n_max: int
    vr: np.ndarray
    vtheta: np.ndarray
    phi0: float
    mu0: float
    mu: float
    flow: ReferenceFlow = field(init=False, repr=False)  # checked here

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")
        for name in ("vr", "vtheta"):
            row = np.array(getattr(self, name), dtype=complex)
            if row.shape != (self.n_max + 1,):
                raise ValueError(f"{name} has shape {row.shape}, need "
                                 f"({self.n_max + 1},) for n_max={self.n_max}")
            object.__setattr__(self, name, row)
        self.vr[0] = 0.0
        self.vtheta[0] = self.mu0 - self.mu
        object.__setattr__(self, "flow", ReferenceFlow(self.phi0, self.mu))

    @classmethod
    def from_modes(cls, n_max: int, phi0: float, mu0: float, mu: float,
                   vr=None, vtheta=None) -> "BoundarySpectrum":
        """The spectrum whose rows 1..n_max are the ``{mode: coefficient}``
        maps ``vr`` and ``vtheta``; modes they do not name are 0."""
        rows = []
        for name, modes in (("vr", vr), ("vtheta", vtheta)):
            row = np.zeros(n_max + 1, dtype=complex)
            for n, value in (modes or {}).items():
                if not 1 <= n <= n_max:
                    raise ValueError(f"{name} mode {n} is outside 1..{n_max}")
                row[n] = value
            rows.append(row)
        return cls(n_max, *rows, phi0, mu0, mu)

    def with_mu(self, mu: float) -> "BoundarySpectrum":
        """Same physical trace rebudgeted (its flow checked again) at mu."""
        return replace(self, mu=float(mu))


def project_boundary(ur_samples, utheta_samples, n_max: int, mu: float,
                     phi0: float | None = None) -> BoundarySpectrum:
    """Project equispaced boundary samples onto modes 0..n_max.

    Samples are values at theta_m = 2 pi m / M, M >= 2 n_max + 2.  When
    ``phi0`` is given, the sampled mean radial velocity must reproduce it to
    1e-10; otherwise phi0 is inferred from the samples.  mu0 is the sampled
    mean swirl; the spectrum derives its mean row and checks its flow.
    """
    ur = np.asarray(ur_samples, dtype=float)
    ut = np.asarray(utheta_samples, dtype=float)
    if ur.ndim != 1 or ur.shape != ut.shape:
        raise ValueError("ur and utheta need matching 1-d sample arrays")
    m = ur.size
    if m < 2 * n_max + 2:
        raise ValueError(f"{m} samples cannot resolve n_max={n_max}; need "
                         f"at least {2 * n_max + 2}")

    mean_ur = float(np.mean(ur))
    if phi0 is None:
        phi0 = -mean_ur
    elif abs(mean_ur + phi0) > 1e-10 * max(1.0, abs(phi0)):
        raise FluxMismatchError(
            f"mean radial velocity {mean_ur:.3e} inconsistent with flux "
            f"phi0={phi0:g}")
    mu0 = float(np.mean(ut))

    vr = np.fft.fft(ur + phi0)[: n_max + 1] / m
    vtheta = np.fft.fft(ut - mu)[: n_max + 1] / m
    return BoundarySpectrum(n_max=int(n_max), vr=vr, vtheta=vtheta,
                            phi0=float(phi0), mu0=mu0, mu=float(mu))


def synthesize_boundary(spec: BoundarySpectrum, n_samples: int):
    """Inverse of ``project_boundary``: samples of (u_r*, u_theta*)."""
    theta = 2.0 * np.pi * np.arange(n_samples) / n_samples
    n = np.arange(spec.n_max + 1)[:, None]
    phases = np.exp(1j * n * theta[None, :])
    weights = np.where(n == 0, 1.0, 2.0)
    ur = -spec.phi0 + np.sum(weights * (spec.vr[:, None] * phases).real, axis=0)
    ut = spec.mu + np.sum(weights * (spec.vtheta[:, None] * phases).real, axis=0)
    return ur, ut

