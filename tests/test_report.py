"""Serialization: the row formatter, JSON escaping, and the byte format of
every artifact against a value-by-value reference encoder."""

import json
import math
import os
import stat

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

import hamelflow.cli
import hamelflow.field
import hamelflow.report
from hamelflow.report import dumps, fmt_float, format_rows

# ---------------------------------------------------------------------------
# reference encoder: one float at a time, the byte format the artifacts keep


def ref_fmt(x):
    x = float(x)
    if not math.isfinite(x):
        return "null"
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return f"{x:.17g}"


def ref_str(s):
    """A JSON string in ASCII: the two-character escapes, and \\uXXXX (a
    UTF-16 surrogate pair past U+FFFF) for any other character outside
    ' '..'~'."""
    short = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r",
             "\t": "\\t", "\b": "\\b", "\f": "\\f"}
    out = []
    for ch in s:
        c = ord(ch)
        if ch in short:
            out.append(short[ch])
        elif 0x20 <= c <= 0x7e:
            out.append(ch)
        elif c < 0x10000:
            out.append(f"\\u{c:04x}")
        else:
            c -= 0x10000
            out.append(f"\\u{0xd800 | c >> 10:04x}\\u{0xdc00 | c & 0x3ff:04x}")
    return '"' + "".join(out) + '"'


def ref_encode(obj, out, indent):
    pad = " " * indent
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(ref_fmt(obj))
    elif isinstance(obj, (complex, np.complexfloating)):
        out.append(f"[{ref_fmt(obj.real)}, {ref_fmt(obj.imag)}]")
    elif isinstance(obj, str):
        out.append(ref_str(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj.keys())
        for i, k in enumerate(keys):
            out.append(pad + "  " + ref_str(str(k)) + ": ")
            ref_encode(obj[k], out, indent + 2)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        if len(seq) <= 8 and all(
                isinstance(v, (int, float, complex, np.integer, np.floating,
                               np.complexfloating)) for v in seq):
            out.append("[" + ", ".join(ref_dumps(v)[:-1] for v in seq) + "]")
            return
        out.append("[\n")
        for i, v in enumerate(seq):
            out.append(pad + "  ")
            ref_encode(v, out, indent + 2)
            out.append(",\n" if i + 1 < len(seq) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(type(obj))


def ref_dumps(obj):
    out = []
    ref_encode(obj, out, 0)
    return "".join(out) + "\n"


def ref_solution_payload(s):
    return {
        "phi0": s.flow.phi0, "mu": s.flow.mu, "mu0": s.boundary.mu0,
        "n_max": s.n_max, "r": [float(v) for v in s.grid.r],
        "modes": [{"n": n,
                   "gamma": [complex(v) for v in s.gamma[n]],
                   "dgamma": [complex(v) for v in s.dgamma[n]],
                   "w": [complex(v) for v in s.w[n]],
                   "dw": [complex(v) for v in s.dw[n]],
                   "gamma_bar": complex(s.gamma_bar[n]),
                   "w_bar": complex(s.w_bar[n])}
                  for n in range(s.n_max + 1)],
    }


def ref_modes_csv(s):
    f = ref_fmt
    lines = ["n,r,gamma_re,gamma_im,dgamma_re,dgamma_im,w_re,w_im,dw_re,dw_im"]
    for n in range(s.n_max + 1):
        for j, r in enumerate(s.grid.r):
            g, dg, w, dw = s.gamma[n, j], s.dgamma[n, j], s.w[n, j], s.dw[n, j]
            lines.append(",".join([str(n), f(r), f(g.real), f(g.imag),
                                   f(dg.real), f(dg.imag), f(w.real),
                                   f(w.imag), f(dw.real), f(dw.imag)]))
    return "\n".join(lines) + "\n"


def ref_field_csv(field):
    f = ref_fmt
    lines = ["r,theta,u_r,u_theta,w"]
    for i, r in enumerate(field.r):
        for k, th in enumerate(field.theta):
            lines.append(",".join([f(r), f(th), f(field.ur[i, k]),
                                   f(field.utheta[i, k]), f(field.w[i, k])]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# format_rows against fmt_float

EDGE = [0.0, -0.0, 1.0, -3.0, 9999999999999998.0, -9999999999999998.0, 1e16,
        -1e16, 1e17, 0.5, math.inf, -math.inf, math.nan, 5e-324, 2.2e-308,
        -1e-310, 1e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0]
values = st.one_of(st.sampled_from(EDGE),
                   st.floats(allow_nan=True, allow_infinity=True,
                             allow_subnormal=True),
                   st.floats(min_value=-1e3, max_value=1e3))


def reference_lines(a, sep):
    return [sep.join(map(fmt_float, row)) for row in np.asarray(a).tolist()]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda cols: st.lists(
    st.lists(values, min_size=cols, max_size=cols), min_size=1,
    max_size=12)),
    st.sampled_from([",", ", ", ""]))
def test_format_rows_matches_fmt_float(rows, sep):
    a = np.array(rows, dtype=float).reshape(len(rows), -1)
    assert format_rows(a, sep) == reference_lines(a, sep)


@pytest.mark.parametrize("shape", [(0, 3), (5, 1), (1, 7), (1, 1)])
def test_format_rows_degenerate_shapes(shape, rng):
    a = rng.standard_normal(shape)
    if a.size:
        a.flat[0] = -0.0
    assert format_rows(a, ",") == reference_lines(a, ",")
    assert len(format_rows(a, ",")) == shape[0]


def test_fmt_float_edge_values():
    assert [fmt_float(x) for x in EDGE[:8]] == [
        "0.0", "-0.0", "1.0", "-3.0", "9999999999999998.0",
        "-9999999999999998.0", "10000000000000000", "-10000000000000000"]
    assert format_rows(np.array([[math.nan, math.inf, -math.inf]]), ",") \
        == ["null,null,null"]


def first_hit(a, m, lo, hi):
    """Smallest x >= 0 with lo <= a * x % m <= hi (0 <= lo <= hi < m), or
    None: Euclid's recursion on the moduli."""
    a %= m
    if lo == 0:
        return 0
    if a == 0:
        return None
    x = -(-lo // a)
    if a * x <= hi:
        return x
    y = first_hit(m % a, a, -hi % a, -lo % a)
    return None if y is None else -(-(lo + m * y) // a)


def near_ties(exponents):
    """For each binary exponent e, the first double m * 2**e (m of 53 bits)
    whose 17-digit scaled value lies within 2**-52 of a rounding tie,
    found in exact integer arithmetic; powers of ten inexact in binary
    make these the cells a 17-digit kernel can misround."""
    found = []
    for e in exponents:
        k = 16 - math.floor(math.log10(1.5 * 2.0 ** 52) + e * math.log10(2))
        num = 2 ** max(e, 0) * 10 ** max(k, 0)
        den = 2 ** max(-e, 0) * 10 ** max(-k, 0)
        g = math.gcd(num, den)
        p, q = num // g, den // g         # scaled value m * p / q
        w, b = q >> 52, p * 2 ** 52 % q   # half-width; offset of m = 2**52
        lo, hi = (q // 2 - w - b) % q, (q // 2 + w - b) % q
        ranges = [(lo, hi)] if lo <= hi else [(lo, q - 1), (0, hi)]
        hits = [x for x in (first_hit(p, q, *r) for r in ranges)
                if x is not None and x < 2 ** 52]
        m = 2 ** 52 + min(hits, default=2 ** 52)
        if w and m < 2 ** 53 and 10 ** 16 * q <= m * p < 10 ** 17 * q:
            found.append(math.ldexp(m, e))
    return np.array(found)


def exact_cases(rng):
    """Values on which a 17-digit kernel can go wrong, by family."""
    k = np.arange(-2000, 2000)
    pow10 = np.array([float(f"1e{e}") for e in range(-323, 309)])
    signed = {
        "pow10": np.concatenate([pow10, np.nextafter(pow10, 0),
                                 np.nextafter(pow10, math.inf)]),
        # the double nearest 1e-304 lies below it: 9.9999999999999997e-305;
        # 1e20 and up are exact, a scaled value a hair low must stay 1e16
        "decade": np.array([1e-304, 1e20, 1e21, 1e22, 9999999999999998.0,
                            1e16, 5e-324, 1.7976931348623157e308]),
        "ties": np.concatenate([[1e15 + 0.25], 2.0**52 + k / 4, np.ravel(
            (2 * k + 1)[:, None] * 2.0 ** -np.arange(1, 64, 4))]),
        "near ties": near_ties(range(-1074, 971)),
        "integers": np.concatenate([np.arange(1000.0), rng.integers(
            0, 2**62, 10000).astype(float)]),
    }
    # both signs, every exponent, subnormals, nan and inf patterns
    bits = rng.integers(0, 2**64, 1_000_000, dtype=np.uint64).view(float)
    return {"bits": bits, **{name: np.concatenate([x, -x])
                             for name, x in signed.items()}}


def test_kernel_matches_reference_on_every_family(rng):
    for name, x in exact_cases(rng).items():
        got = [line for part in np.array_split(x, -(-len(x) // 2**16))
               for line in format_rows(part[:, None], "")]
        expected = [ref_fmt(v) for v in x.tolist()]
        bad = [(v, g, e) for v, g, e in zip(x.tolist(), got, expected)
               if g != e]
        assert not bad, (name, len(bad), bad[:5])


@pytest.mark.parametrize("sep", [",", ", ", ""])
def test_kernel_signed_zeros_and_non_finite(sep):
    a = np.array([[0.0, -0.0, math.nan], [-math.nan, math.inf, -math.inf],
                  [-0.0, 1e-304, -1e20]])
    assert format_rows(a, sep) == [sep.join(map(ref_fmt, row))
                                   for row in a.tolist()]
    assert format_rows(a, sep)[:2] == [sep.join(["0.0", "-0.0", "null"]),
                                       sep.join(["null"] * 3)]


def test_dumps_long_sequences_match_reference(rng):
    z = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    z[3] = complex(0.0, -0.0)
    z[5] = complex(math.inf, 2.0)
    x = z.real.copy()
    x[7] = math.nan
    cases = [z, list(z), tuple(z), z.astype(np.complex64), x, list(x),
             x.astype(np.float32), [complex(v) for v in z[:9]],
             list(x[:8]), list(z[:8]),
             [True] * 10, list(range(12)), [1.5] * 9 + [2], [1.5] * 9 + [z[0]],
             {"nested": [{"a": list(z), "b": x}]}, [list(x)] * 3,
             np.zeros((3, 10))]
    for obj in cases:
        assert dumps(obj) == ref_dumps(obj)


plain_numbers = st.one_of(
    values, st.integers(-2 ** 70, 2 ** 70),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.sampled_from([complex(0.0, -0.0), complex(-0.0, math.nan)]))
scalars = st.one_of(st.none(), st.booleans(), plain_numbers,
                    st.text(max_size=6))
arrays = st.one_of(*(
    st.lists(items, max_size=12).map(lambda v, t=dtype: np.array(v, t))
    for items, dtype in [(values, float), (st.integers(-999, 999), np.int64),
                         (st.complex_numbers(allow_nan=True), complex),
                         (st.booleans(), bool)]))
trees = st.recursive(
    st.one_of(scalars, arrays, st.lists(plain_numbers, max_size=12)),
    lambda children: st.one_of(
        st.lists(children, max_size=10),
        st.lists(children, max_size=10).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=5)),
    max_leaves=30)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(trees)
def test_dumps_and_write_json_match_reference_on_random_trees(tmp_path, obj):
    text = dumps(obj)
    assert text == ref_dumps(obj)
    path = tmp_path / "tree.json"
    hamelflow.report.write_json(str(path), obj)
    assert path.read_bytes() == text.encode("ascii")


# ---------------------------------------------------------------------------
# strings and keys


def test_dumps_escapes_strings_and_keys():
    obj = {"a": "x\ny\tz\x00\x1f", 'b"': 1, "back\\slash": 'q"uote',
           "mu ≥ 0": "été \U0001F600", "": None}
    text = dumps(obj)
    assert text.isascii()
    assert json.loads(text) == obj


def test_dumps_keeps_printable_ascii_strings():
    obj = {"name": "ode_residuals", "detail": "stream 8.96e-06 (ok) <= 1e-4",
           "warnings": ["alpha fallback: window [3, 4.0]"]}
    assert dumps(obj) == ref_dumps(obj)


# ---------------------------------------------------------------------------
# every artifact of a solve, byte for byte against the reference encoder

CFG = {
    "flow": {"phi0": 2.5, "mu0": 0.2, "mu": 0.2},
    "boundary": {"modes": {"vr": [[0.0, 0.0], [0.01, 0.0]],
                           "vtheta": [[0.01, 0.0]]}},
    "solver": {"n_modes": 4, "nodes_per_decade": 32, "r_max": 1e3},
    "output": {"write_field": True, "theta_points": 48},
}
# 5 nodes: every list of modes.json takes the one-line layout.
TINY_SOLVER = {"n_modes": 4, "nodes_per_decade": 8, "r_max": 3}
ARTIFACTS = ["field.csv", "modes.csv", "modes.json", "report.json"]


def solve(tmp_path, cfg):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    res = CliRunner().invoke(hamelflow.cli.main, ["solve", "--config",
                                                  str(path), "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert sorted(p.name for p in out.iterdir()) == ARTIFACTS
    return out


@pytest.mark.parametrize("solver, block_rows", [
    (CFG["solver"], None), (CFG["solver"], 7), (TINY_SOLVER, None)],
    ids=["None", "7", "5-nodes"])
def test_artifacts_match_reference_encoder(tmp_path, monkeypatch, solver,
                                           block_rows):
    if block_rows:   # many field.csv blocks, a partial one last
        monkeypatch.setattr(hamelflow.report, "_BLOCK_ROWS", block_rows)
    expected = {}

    def spy(name, reference):
        real = getattr(hamelflow.cli, name)

        def wrapper(*args):
            result = real(*args)
            expected.update(reference(*args))
            return result
        monkeypatch.setattr(hamelflow.cli, name, wrapper)

    # The mode files are written from a table of preformatted values; their
    # references are rebuilt from the solution the modes.json payload is
    # made from.
    spy("write_json", lambda p, obj: {} if p.endswith("modes.json")
        else {os.path.basename(p): ref_dumps(obj)})
    spy("solution_payload", lambda s, table: {
        "modes.json": ref_dumps(ref_solution_payload(s)),
        "modes.csv": ref_modes_csv(s)})
    spy("write_field_csv",
        lambda p, field, r: {"field.csv": ref_field_csv(field)})

    out = solve(tmp_path, dict(CFG, solver=solver))
    assert sorted(expected) == ARTIFACTS
    for name, text in expected.items():
        assert (out / name).read_bytes() == text.encode("ascii"), name


def test_field_writer_with_special_cells(tmp_path, monkeypatch, rng):
    # Blocks of 7 rows over 6 radii and 5 angles: blocks 0 and 3 hold nan,
    # inf and signed zeros, blocks 1, 2 and the partial block 4 only
    # finite nonzero values (integer-valued, subnormal and ordinary).
    monkeypatch.setattr(hamelflow.report, "_BLOCK_ROWS", 7)
    r = np.array([1.0, 1.25, 2.0, 10.0, 123.456789, 1e4])
    theta = np.array([0.0, 0.5, 1.0, 2.5e-7, math.pi])
    scales = 10.0 ** rng.integers(-8, 8, (3, 30))
    values = rng.standard_normal((3, 30)) * scales
    values[:, 7:21:3] = [[3.0], [-1e15], [2.0 ** 53]]
    values[:, 8:28:4] = [[5e-324], [-2.2e-310], [1e-305]]
    values[:, 0:7:2] = [[math.nan, math.inf, -math.inf, 0.0]] * 3
    values[:, 21:28:3] = [[-0.0, 0.0, math.nan]] * 3
    regular = (np.isfinite(values) & (values != 0)).all(axis=0)
    assert [regular[i:i + 7].all() for i in range(0, 30, 7)] == [
        False, True, True, False, True]
    field = hamelflow.field.PhysicalField(r, theta, *values.reshape(3, 6, 5))
    table = hamelflow.report.ModeTable(range(1), r, *np.zeros((4, 1, 6)))
    path = tmp_path / "field.csv"
    hamelflow.report.write_field_csv(str(path), field, table)
    assert path.read_bytes() == ref_field_csv(field).encode("ascii")


def test_modes_json_is_written_one_mode_at_a_time(tmp_path, monkeypatch):
    solutions = []
    real = hamelflow.cli.solution_payload
    monkeypatch.setattr(hamelflow.cli, "solution_payload",
                        lambda s, table: solutions.append(s) or real(s, table))
    out = solve(tmp_path, CFG)
    solution, = solutions
    table = hamelflow.report.ModeTable.of(solution)
    text = dumps(hamelflow.report.solution_payload(solution, table))
    assert (out / "modes.json").read_bytes() == text.encode("ascii")

    # No piece of the text that write_json streams holds more than one mode.
    pieces = list(hamelflow.report._pieces(
        hamelflow.report.solution_payload(solution, table), 0))
    assert "".join(pieces) + "\n" == text
    assert max(map(len, pieces)) < len(text) / len(solution.gamma)


def test_writer_writes_into_a_pipe_at_its_path(tmp_path):
    # Only a regular file (or a link to one) is replaced: a pipe or device
    # at an output path, such as /dev/stdout, is written to, not removed.
    path = tmp_path / "pipe"
    os.mkfifo(path)
    reader = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        hamelflow.report.write_json(str(path), {"a": 1})
        assert os.read(reader, 1 << 16) == dumps({"a": 1}).encode("ascii")
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(path).st_mode)


def test_export_reproduces_the_mode_files(tmp_path):
    out = solve(tmp_path, CFG)
    dest = tmp_path / "export.csv"
    res = CliRunner().invoke(hamelflow.cli.main, [
        "export", "--solution", str(out), "--out", str(dest)])
    assert res.exit_code == 0, res.output
    assert dest.read_bytes() == (out / "modes.csv").read_bytes()


def test_each_value_is_formatted_once(tmp_path, monkeypatch):
    # While a solve writes modes.json, modes.csv and field.csv, the table
    # formatter sees each of the N radii, T angles, 3 N T field values and
    # 8 M N mode values once; fmt_float alone sees only the scalars of
    # modes.json (phi0, mu, mu0 and each mode's gamma_bar and w_bar).
    counts = {"rows": 0, "scalars": 0}
    state = {"in_rows": False, "report": False}
    real_rows, real_float = hamelflow.report.format_rows, fmt_float

    def counting_rows(a, sep):
        if not state["report"]:
            counts["rows"] += np.size(a)
        state["in_rows"] = True
        try:
            return real_rows(a, sep)
        finally:
            state["in_rows"] = False

    def counting_float(x):
        if not (state["in_rows"] or state["report"]):
            counts["scalars"] += 1
        return real_float(x)

    real_json = hamelflow.cli.write_json

    def write_json(path, obj):
        state["report"] = path.endswith("report.json")
        try:
            real_json(path, obj)
        finally:
            state["report"] = False

    monkeypatch.setattr(hamelflow.report, "format_rows", counting_rows)
    monkeypatch.setattr(hamelflow.report, "fmt_float", counting_float)
    monkeypatch.setattr(hamelflow.cli, "write_json", write_json)
    out = solve(tmp_path, CFG)
    modes = json.loads((out / "modes.json").read_text())
    n, t, m = len(modes["r"]), CFG["output"]["theta_points"], len(
        modes["modes"])
    assert n > 8 and m == CFG["solver"]["n_modes"] + 1
    assert counts["rows"] == n + t + 3 * n * t + 8 * m * n
    assert counts["scalars"] == 3 + 4 * m
