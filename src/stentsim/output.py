"""CSV serialization of solution records and standalone SVG line charts.

CSV formats (headers are normative):

    snapshots.csv   t,domain,x,field,value     long format; domain s|m,
                                               field c|c1|c2
    interface.csv   t,c_at_0,c1_at_0,c1_at_1
    monitors.csv    t,mass,energy,mass_balance_residual

Numbers are printed as '%.16e' prints them, 17 significant digits, so
values round-trip exactly.  Rows are sorted by (t, domain, x, field).  A
record's files are assembled in numpy, a few thousand rows at a time:
``_fields`` computes each value's '%.16e' bytes from its float64 bits, the
fields, commas and \r\n line ends fill one zero-padded byte array, and
its nonzero bytes go out through a binary handle.  The snapshots form one
table: the bytes of each row's domain, x and field are the same at every
time and are formatted once, each time's once for all its rows, and the
values of as many snapshots as fit in a block are formatted together.  The
interface and monitor files are written block by block side by side,
so their shared t column is formatted once.  The bytes are those a
``csv.writer`` would give (unquoted fields, \r\n line ends).  Study
tables are formatted row by row, floats as '%.16e' and other values as
``str``; no table value holds a comma or a quote.  Charts are written as
self-contained SVG with fixed formatting: identical input produces
byte-identical files.  Their polyline coordinates are printed as '%.2f'
prints them, their digits computed in numpy as the records' are, with
'%' itself for each coordinate numpy cannot decide.  Their title, axis
and legend labels are XML-escaped.  Non-finite data are refused, and so
are finite data whose range overflows float64.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ValidationError
from .stepping import SolutionRecord


# Record values are printed as '%.16e' % v prints them, from numpy.  For
# |v| in [1e-280, 1e280) and E = floor(log10|v|), the 17 digits are
# d = |v| * 10**(16 - E) rounded half to even.  10**k is held as H + L, the
# double nearest it and the double nearest the rest, and Dekker's product
# gives |v| * H = p + err exactly, p an integer-valued double of at least
# 2**53.  r = err + |v| * L is then the rest of the product to within
# 5e-15, so d = p + r rounded, unless r's fraction lies within _TIE of 1/2.
# Such values, zeros, non-finite values and values outside that range go
# through '%' itself.
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter
_TIE = 1e-12
_FIELD = 24  # '-d.dddddddddddddddde+ddd', the longest field
_BLOCK = 4096  # rows formatted and written at a time


def _pow10(k: int) -> tuple[float, float]:
    """10**k as H + L: H the double nearest it, L the double nearest the
    rest (int true division rounds correctly)."""
    num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    hi = num / den
    n, d = hi.as_integer_ratio()
    return hi, (num * d - n * den) / (den * d)


def _split(v):
    c = _SPLIT * v
    hi = c - (c - v)
    return hi, v - hi


def _scaled(a, e):
    """For a in the fast range and exponents e: d, a * 10**(16 - e)
    rounded half to even; whether that product is below 1e16; and whether
    its fraction is too near 1/2 to round."""
    k = 16 - e
    k0 = int(k.min())
    hs, ls = zip(*(_pow10(j) for j in range(k0, int(k.max()) + 1)))
    h, l = np.take(hs, k - k0), np.take(ls, k - k0)
    p = a * h
    (ah, al), (hh, hl) = _split(a), _split(h)
    r = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * l
    whole = np.floor(r)
    frac = r - whole
    d = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    return d, (p - 1e16) + r < 0, np.abs(frac - 0.5) < _TIE


def _digits(a):
    """For a in the fast range: E = floor(log10(a)), d = a * 10**(16 - E)
    rounded half to even, a 17-digit integer, and whether that rounding
    was decided."""
    e = np.floor(np.log10(a)).astype(np.int64)
    d, below, tie = _scaled(a, e)
    # log10 may miss the exponent by one next to a power of ten
    redo = np.flatnonzero(below | (d > 10 ** 17))
    if len(redo):
        e[redo] += np.where(below[redo], -1, 1)
        d[redo], below[redo], tie[redo] = _scaled(a[redo], e[redo])
    carry = d == 10 ** 17  # rounded up to the next power of ten
    d[carry] //= 10
    e[carry] += 1
    return d, e, ~(below | tie | (d < 10 ** 16) | (d >= 10 ** 17))


def _fields(x: np.ndarray) -> np.ndarray:
    """The bytes of '%.16e' % v for each v of the float64 column x, as the
    columns of a (_FIELD, len(x)) array padded with zero bytes."""
    a = np.abs(x)
    fast = (a >= 1e-280) & (a < 1e280)
    d, e, ok = _digits(np.where(fast, a, 1.0))
    # '-d.dddddddddddddddde+ddd' with a zero byte for a missing sign or
    # hundreds digit; digit i of d goes to row 1 (i = 0) or i + 2
    f = np.empty((_FIELD, len(x)), np.uint8)
    f[0] = np.where(x < 0, ord("-"), 0)
    hi = (d // 10 ** 9).astype(np.uint32)
    lo = (d - hi * np.int64(10 ** 9)).astype(np.uint32)
    for row in range(18, 9, -1):
        q = lo // 10
        f[row] = lo - q * 10
        lo = q
    for row in (9, 8, 7, 6, 5, 4, 3, 1):
        q = hi // 10
        f[row] = hi - q * 10
        hi = q
    f[1:19] += ord("0")
    f[2] = ord(".")
    f[19] = ord("e")
    f[20] = np.where(e < 0, ord("-"), ord("+"))
    e = np.abs(e).astype(np.int32)
    hundreds, tens = e // 100, e // 10
    f[21] = np.where(hundreds > 0, hundreds + ord("0"), 0)
    f[22] = tens - hundreds * 10 + ord("0")
    f[23] = e - tens * 10 + ord("0")

    slow = np.flatnonzero(~(fast & ok))
    for i, v in zip(slow.tolist(), x[slow].tolist()):
        text = np.frombuffer(b"%.16e" % v, np.uint8)
        f[:, i] = 0
        f[:len(text), i] = text
    return f


def _lines(pieces):
    """The lines of a table, _BLOCK rows at a time.  Each row is the
    pieces in order, of three kinds: a bytes piece is the same in every
    row; a float64 column gives each row its value as '%.16e' prints it;
    a 2-D uint8 array gives each row its own bytes, one array row per
    table row.  Zero bytes are dropped, so a piece may be padded with
    them, as _fields' columns are."""
    n = next(len(p) for p in pieces if not isinstance(p, bytes))
    for start in range(0, n, _BLOCK):
        rows = slice(start, min(start + _BLOCK, n))
        m = rows.stop - start
        buf = np.concatenate(
            [np.broadcast_to(np.frombuffer(p, np.uint8), (m, len(p)))
             if isinstance(p, bytes) else p[rows] if p.ndim == 2
             else _fields(p[rows]).T for p in pieces], axis=1)
        yield buf[buf != 0]


# the (domain, field) labels of a snapshot row, one row each for c1 and c2
# of the media and c of the stent, padded with zero bytes
_DOMAIN_LABELS = np.frombuffer(b",m,,m,,s,", np.uint8).reshape(3, 3)
_FIELD_LABELS = np.frombuffer(b",c1,,c2,,c,\0", np.uint8).reshape(3, 4)


def _snapshot_lines(rec: SolutionRecord):
    """The lines of snapshots.csv after its header, ordered by (t, domain,
    x, field): per time the media nodes, c1 then c2 at each x, then the
    stent nodes.  The bytes of domain, x and field are the same at every
    time and are formatted once; the snapshots are formatted together, as
    many at a time as fit in a block."""
    xm, xs = rec.mesh_m.nodes, rec.mesh_s.nodes
    kind = np.concatenate([np.tile([0, 1], len(xm)), np.full(len(xs), 2)])
    x = np.concatenate([np.repeat(xm, 2), xs])
    label = np.concatenate(
        [_DOMAIN_LABELS[kind], _fields(x).T, _FIELD_LABELS[kind]], axis=1)
    snaps = sorted(rec.snapshots, key=lambda s: s.t)
    group = max(1, _BLOCK // len(x))
    for i in range(0, len(snaps), group):
        part = snaps[i:i + group]
        t = _fields(np.array([s.t for s in part])).T
        value = np.concatenate([np.concatenate(
            [np.ravel([s.state.y1, s.state.y2], order="F"), s.state.y0])
            for s in part])
        yield from _lines([np.repeat(t, len(x), axis=0),
                           np.tile(label, (len(part), 1)), value, b"\r\n"])


def write_record_csv(rec: SolutionRecord, out_dir) -> list[Path]:
    """Write snapshots.csv, interface.csv, and monitors.csv under out_dir."""
    if not rec.snapshots and len(rec.monitors.t) == 0:
        raise ValidationError("record is empty; nothing to write")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    snap_path = out / "snapshots.csv"
    with snap_path.open("wb") as fh:
        fh.write(b"t,domain,x,field,value\r\n")
        fh.writelines(_snapshot_lines(rec))

    # a record's interface and monitor series share their t array: both
    # files are written a block at a time, and each block's t bytes are
    # formatted once for both
    ifc, mon = rec.interface, rec.monitors
    ifc_path, mon_path = out / "interface.csv", out / "monitors.csv"
    with ifc_path.open("wb") as fi, mon_path.open("wb") as fm:
        fi.write(b"t,c_at_0,c1_at_0,c1_at_1\r\n")
        fm.write(b"t,mass,energy,mass_balance_residual\r\n")
        for start in range(0, len(ifc.t), _BLOCK):
            rows = slice(start, start + _BLOCK)
            t = _fields(ifc.t[rows]).T
            fi.writelines(_lines([t, b",", ifc.c_at_0[rows], b",",
                                  ifc.c1_at_0[rows], b",", ifc.c1_at_1[rows],
                                  b"\r\n"]))
            if mon.t is not ifc.t:
                t = _fields(mon.t[rows]).T
            fm.writelines(_lines([t, b",", mon.mass[rows], b",",
                                  mon.energy[rows], b",",
                                  mon.balance_residual[rows], b"\r\n"]))

    return [snap_path, ifc_path, mon_path]


def write_table_csv(path, header, rows) -> Path:
    """Write a study table: the header names, then one line per row."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join("%.16e" % v if isinstance(v, float) else str(v)
                               for v in row) + "\r\n" for row in rows)
    return path


# --------------------------------------------------------------- SVG plots

WIDTH, HEIGHT = 640, 420
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """About five round ticks in [lo, hi], hi > lo."""
    span = hi - lo
    raw = span / 5
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = np.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(v) < 1e-12 * span else float(v))
        v += step
    return ticks


def _escape(text: str) -> str:
    """text with XML's markup characters escaped, as
    ``xml.sax.saxutils.escape`` does; importing that module would load
    urllib and ssl, about 40 ms and 2 MB, into every command."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt_tick(v: float) -> str:
    return f"{v:.6g}"


def _hundredths(v: np.ndarray):
    """For the float64 array v: d, each value times 100 rounded to an
    integer as '%.2f' rounds it, and whether that rounding was decided.
    For v in [0, 1e6), the product 100 v is off by under 1e-8, so its
    fraction decides the rounding unless it lies within 1e-6 of 1/2.  Such
    values, values of 1e6 and more, nan, and values with the sign bit set
    (-0.0 prints -0.00) are not decided."""
    fast = ~np.signbit(v) & (v < 1e6)
    s = 100 * np.where(fast, v, 0.0)
    whole = np.floor(s)
    frac = s - whole
    d = whole.astype(np.int32) + (frac > 0.5)
    return d, fast & (np.abs(frac - 0.5) >= 1e-6)


def _decimals(v: np.ndarray) -> np.ndarray:
    """The bytes of '%.2f' % x for each x of the float64 array v, as the
    rows of a (len(v), width) array padded with zero bytes.  The digits
    are computed in numpy from _hundredths, as _fields computes a
    record's; a value whose rounding it leaves undecided is printed by
    '%' alone."""
    d, ok = _hundredths(v)
    slow = np.flatnonzero(~ok)
    texts = [b"%.2f" % x for x in v[slow].tolist()]
    # up to seven digits of the whole part, the point and two decimals
    width = max([10, *map(len, texts)])
    f = np.zeros((len(v), width), np.uint8)
    whole, cents = np.divmod(d, 100)
    f[:, -2], f[:, -1] = np.divmod(cents, 10)
    f[:, -2:] += ord("0")
    f[:, -3] = ord(".")
    for k in range(7):
        # the ones digit is kept, leading zeros are dropped
        higher, digit = np.divmod(whole, 10)
        f[:, -4 - k] = np.where((whole > 0) | (k == 0), digit + ord("0"), 0)
        whole = higher
    for i, text in zip(slow.tolist(), texts):
        f[i] = 0
        f[i, :len(text)] = np.frombuffer(text, np.uint8)
    return f


def _points(px: np.ndarray, py: np.ndarray) -> str:
    """The polyline's "x,y x,y ..." at two decimals: the bytes of
    "%.2f,%.2f" % (x, y) per point."""
    text = b"".join(_lines([_decimals(px), b",", _decimals(py), b" "]))
    return text[:-1].decode()


def emit_svg_plot(series, path, *, title: str = "", x_label: str = "t",
                  y_label: str = "") -> Path:
    """Line chart of (label, t, y) series as a standalone SVG file.

    Deterministic: identical input yields byte-identical output.  Raises
    ValidationError, before any file is written, for a series that is
    empty, ragged or not finite, and for data whose range (with y's 5%
    margin) overflows float64 or is too narrow for float64 to tick.
    """
    if not series:
        raise ValidationError("empty series")
    cleaned = []
    for label, t, y in series:
        t = np.asarray(t, dtype=float)
        y = np.asarray(y, dtype=float)
        if t.size == 0 or t.shape != y.shape:
            raise ValidationError(
                f"series {label!r}: t and y must be equal-length and nonempty"
            )
        if not (np.isfinite(t).all() and np.isfinite(y).all()):
            raise ValidationError(
                f"series {label!r}: t and y must be finite (nan or inf found)")
        cleaned.append((_escape(str(label)), t, y))
    title, x_label, y_label = map(_escape, (title, x_label, y_label))

    ml, mr, mt, mb = 62, 18, 34, 46
    pw = WIDTH - ml - mr
    ph = HEIGHT - mt - mb
    x_lo = min(float(t.min()) for _, t, _ in cleaned)
    x_hi = max(float(t.max()) for _, t, _ in cleaned)
    y_lo = min(float(y.min()) for _, _, y in cleaned)
    y_hi = max(float(y.max()) for _, _, y in cleaned)
    data = f"x in [{x_lo:.6g}, {x_hi:.6g}], y in [{y_lo:.6g}, {y_hi:.6g}]"
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        pad = max(abs(y_lo), 1.0) * 0.05
        y_lo, y_hi = y_lo - pad, y_hi + pad
    else:
        pad = (y_hi - y_lo) * 0.05
        y_lo, y_hi = y_lo - pad, y_hi + pad
    # the axes map and tick the data by these spans
    if not np.isfinite([x_hi - x_lo, y_hi - y_lo]).all():
        raise ValidationError(
            f"data range too wide to plot ({data}): its span overflows "
            "float64")
    # the ticks advance by at least a fifth of the span, so a span of 10
    # float64 spacings at the axis's ends keeps each tick past the last
    for lo, hi in ((x_lo, x_hi), (y_lo, y_hi)):
        if hi - lo < 10 * np.spacing(max(abs(lo), abs(hi))):
            raise ValidationError(
                f"data range too narrow to plot ({data}): its span is under "
                "10 float64 spacings")

    def sx(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def sy(y):
        return mt + ph - (y - y_lo) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    # axes box
    parts.append(
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="black" stroke-width="1"/>'
    )
    for tx in _nice_ticks(x_lo, x_hi):
        if tx < x_lo or tx > x_hi:
            continue
        px = sx(tx)
        parts.append(
            f'<line x1="{px:.2f}" y1="{mt + ph}" x2="{px:.2f}" '
            f'y2="{mt + ph + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{mt + ph + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt_tick(tx)}</text>'
        )
    for ty in _nice_ticks(y_lo, y_hi):
        if ty < y_lo or ty > y_hi:
            continue
        py = sy(ty)
        parts.append(
            f'<line x1="{ml - 5}" y1="{py:.2f}" x2="{ml}" y2="{py:.2f}" '
            f'stroke="black"/>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt_tick(ty)}</text>'
        )
    parts.append(
        f'<text x="{ml + pw / 2:.1f}" y="{HEIGHT - 8}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">'
        f'{x_label}</text>'
    )
    if y_label:
        parts.append(
            f'<text x="14" y="{mt + ph / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 14 {mt + ph / 2:.1f})">{y_label}</text>'
        )
    for i, (label, t, y) in enumerate(cleaned):
        color = PALETTE[i % len(PALETTE)]
        pts = _points(sx(t), sy(y))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        ly = mt + 14 + 16 * i
        lx = ml + pw - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    parts.append("</svg>")

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")
    return path
