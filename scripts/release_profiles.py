#!/usr/bin/env python3
"""Simulate the default drug-release scenario over a 24-hour horizon and
render concentration profiles plus the interface time series as SVG.

The nondimensional horizon t in [0, 20] is labeled as 24 hours via a
time unit of 4320 seconds; snapshots sit at 10 min, 30 min, 1 h, 6 h,
and 24 h.
"""

import argparse
from pathlib import Path

import numpy as np

from stentsim import build_operators, paper_params, run_simulation
from stentsim.output import PlotStyle, emit_svg_plot, write_record_csv
from stentsim.stepping import SchemeConfig, stable_step_count

TIME_UNIT = 4320.0  # seconds per nondimensional time unit
HOURS = (1 / 6, 0.5, 1.0, 6.0, 24.0)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/release", help="output directory")
    ap.add_argument("--n-s", type=int, default=100)
    ap.add_argument("--n-m", type=int, default=25)
    args = ap.parse_args()

    p = paper_params()
    t_end = 24.0 * 3600.0 / TIME_UNIT
    n_steps = stable_step_count(p, p.l / args.n_s, 1.0 / args.n_m, t_end)
    dt = t_end / n_steps
    snaps = [round(h * 3600.0 / TIME_UNIT / dt) * dt for h in HOURS]

    ops = build_operators(p, args.n_s, args.n_m)
    cfg = SchemeConfig("alg1", dt, t_end=t_end)
    print(f"running {n_steps} steps to t={t_end} (24 h at {TIME_UNIT:.0f} s/unit)")
    rec = run_simulation(p, ops, cfg, snaps, record_every=10)

    out = Path(args.out)
    write_record_csv(rec, out)

    def label(snap):
        hours = snap.t * TIME_UNIT / 3600.0
        return f"{hours * 60:.0f} min" if hours < 1 else f"{hours:.0f} h"

    emit_svg_plot(
        [(label(s), rec.mesh_s.nodes, s.state.y0) for s in rec.snapshots],
        PlotStyle(title="stent concentration", x_label="x", y_label="c"),
        out / "stent_profiles.svg",
    )
    emit_svg_plot(
        [(label(s), rec.mesh_m.nodes, s.state.y1) for s in rec.snapshots],
        PlotStyle(title="extracellular concentration", x_label="x",
                  y_label="c1"),
        out / "wall_extracellular_profiles.svg",
    )
    emit_svg_plot(
        [(label(s), rec.mesh_m.nodes, s.state.y2) for s in rec.snapshots],
        PlotStyle(title="intracellular concentration", x_label="x",
                  y_label="c2"),
        out / "wall_intracellular_profiles.svg",
    )
    hours_axis = rec.interface.t * TIME_UNIT / 3600.0
    emit_svg_plot(
        [("c1(0, t)", hours_axis, rec.interface.c1_at_0)],
        PlotStyle(title="interface extracellular concentration",
                  x_label="hours", y_label="c1(0)"),
        out / "interface_series.svg",
    )
    peak = rec.interface.t[np.argmax(rec.interface.c1_at_0)]
    print(f"interface concentration peaks at t={peak:.3g} "
          f"({peak * TIME_UNIT / 3600.0:.2f} h)")
    print(f"wrote plots and CSVs under {out}")


if __name__ == "__main__":
    main()
