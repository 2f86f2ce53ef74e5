"""CSV serialization of solution records and standalone SVG line charts.

CSV formats (headers are normative):

    snapshots.csv   t,domain,x,field,value     long format; domain s|m,
                                               field c|c1|c2
    interface.csv   t,c_at_0,c1_at_0,c1_at_1
    monitors.csv    t,mass,energy,mass_balance_residual

Numbers are printed with 17 significant digits so values round-trip
exactly.  Rows are sorted by (t, domain, x, field).  A record's files are
streamed: each row is one '%.16e,...' format of values taken from the
columns with ``tolist``, written through ``writelines``, in the bytes a
``csv.writer`` would give (unquoted fields, \r\n line ends).  Study
tables go through the same writer, floats as '%.16e' and other values
as ``str``; no table value holds a comma or a quote.  Charts
are written as self-contained SVG with fixed formatting: identical input
produces byte-identical files.  Their title, axis and legend labels are
XML-escaped, and non-finite data are refused.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ValidationError
from .stepping import SolutionRecord


def _write_rows(path: Path, header: str, lines) -> None:
    """Write the header line and the formatted lines, which end in \\r\\n."""
    with path.open("w", newline="") as fh:
        fh.write(header + "\r\n")
        fh.writelines(lines)


def _table_lines(*columns):
    """One '%.16e,...' line per row of the given numeric columns."""
    row = ",".join(["%.16e"] * len(columns)) + "\r\n"
    return (row % values
            for values in zip(*(c.tolist() for c in columns)))


def write_record_csv(rec: SolutionRecord, out_dir) -> list[Path]:
    """Write snapshots.csv, interface.csv, and monitors.csv under out_dir."""
    if not rec.snapshots and len(rec.monitors.t) == 0:
        raise ValidationError("record is empty; nothing to write")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def snapshot_lines():
        # (t, domain, x, field) order: per time the media nodes (c1 then
        # c2 at each x), then the stent nodes
        for snap in sorted(rec.snapshots, key=lambda s: s.t):
            t, st = "%.16e" % snap.t, snap.state
            yield from ("%s,m,%.16e,c1,%.16e\r\n%s,m,%.16e,c2,%.16e\r\n"
                        % (t, x, a, t, x, b)
                        for x, a, b in zip(rec.mesh_m.nodes.tolist(),
                                           st.y1.tolist(), st.y2.tolist()))
            yield from ("%s,s,%.16e,c,%.16e\r\n" % (t, x, v)
                        for x, v in zip(rec.mesh_s.nodes.tolist(),
                                        st.y0.tolist()))

    snap_path = out / "snapshots.csv"
    _write_rows(snap_path, "t,domain,x,field,value", snapshot_lines())

    ifc_path = out / "interface.csv"
    ifc = rec.interface
    _write_rows(ifc_path, "t,c_at_0,c1_at_0,c1_at_1",
                _table_lines(ifc.t, ifc.c_at_0, ifc.c1_at_0, ifc.c1_at_1))

    mon_path = out / "monitors.csv"
    mon = rec.monitors
    _write_rows(mon_path, "t,mass,energy,mass_balance_residual",
                _table_lines(mon.t, mon.mass, mon.energy,
                             mon.balance_residual))

    return [snap_path, ifc_path, mon_path]


def write_table_csv(path, header, rows) -> Path:
    """Write a study table: the header names, then one line per row."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_rows(path, ",".join(header),
                (",".join("%.16e" % v if isinstance(v, float) else str(v)
                          for v in row) + "\r\n" for row in rows))
    return path


# --------------------------------------------------------------- SVG plots

WIDTH, HEIGHT = 640, 420
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(target, 1)
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


def _points(px: np.ndarray, py: np.ndarray) -> str:
    """The polyline's "x,y x,y ..." at two decimals: the bytes of
    f"{x:.2f},{y:.2f}" per point, formatted in one pass."""
    return " ".join(map("%.2f,%.2f".__mod__, zip(px.tolist(), py.tolist())))


def emit_svg_plot(series, path, *, title: str = "", x_label: str = "t",
                  y_label: str = "") -> Path:
    """Line chart of (label, t, y) series as a standalone SVG file.

    Deterministic: identical input yields byte-identical output.  Raises
    ValidationError, before any file is written, for a series that is
    empty, ragged or not finite.
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
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        pad = max(abs(y_lo), 1.0) * 0.05
        y_lo, y_hi = y_lo - pad, y_hi + pad
    else:
        pad = (y_hi - y_lo) * 0.05
        y_lo, y_hi = y_lo - pad, y_hi + pad

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
    path.write_text("\n".join(parts) + "\n")
    return path
