"""Command-line interface.

Subcommands: simulate, converge, compare-fd, compare-alg, stepping-study,
plot.  Exit codes: 0 success, 1 validation/configuration error, 2
numerical failure (instability or singular solve).  Tables printed to
stdout are also written as CSV files into the configured out_dir.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    compare_algorithms,
    compare_records,
    make_reference,
    stepping_study,
    convergence_study,
)
from .config import dump_config, parse_config
from .errors import ConfigError, NumericsError, ValidationError
from .fdcheck import check_fd, run_fd
from .fem import build_operators
from .output import emit_svg_plot, write_record_csv, write_table_csv
from .stepping import run_simulation, stable_step_count, step_count


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); bad args are not numerics
        raise ConfigError(message)


def _report_rows(report, *key):
    return [(*key, f, n, a, "" if r is None else r)
            for f, n, a, r in report.rows()]


def _print_report(name, report):
    print(f"{name}:")
    print(f"  {'field':5s} {'norm':8s} {'absolute':>13s} {'relative':>13s}")
    for fld, norm, absval, rel in report.rows():
        rel_s = f"{rel:13.6e}" if rel is not None else f"{'n/a':>13s}"
        print(f"  {fld:5s} {norm:8s} {absval:13.6e} {rel_s}")


def _write_reports(path, key, reports):
    """Print each (title, value, report) and write all of them to one CSV
    whose first column, named key, holds the value."""
    rows = []
    for title, value, report in reports:
        _print_report(title, report)
        rows.extend(_report_rows(report, value))
    path = write_table_csv(path, [key, "field", "norm", "absolute",
                                  "relative"], rows)
    print(f"wrote {path}")


def _study_t_end(cfg):
    """The config's t_end, refused if 0: a study compares runs in time."""
    if cfg.scheme.t_end == 0:
        raise ConfigError(f"time.t_end: converge, compare-alg and "
                          f"stepping-study need t_end > 0, got "
                          f"{cfg.scheme.t_end!r}", key="time.t_end")
    return cfg.scheme.t_end


def _reference(cfg, scale):
    """The fine reference of compare-alg and stepping-study: the config's
    meshes refined by ``scale``, a step count that is a multiple of the
    config's, and about ten snapshots on both step grids.  Returns the
    reference, the config's step count and the snapshot times."""
    p, t_end, dt = cfg.params, _study_t_end(cfg), cfg.scheme.dt_m
    n_steps = step_count(t_end, dt)
    stride = max(1, n_steps // 10)
    snaps = [k * stride * dt for k in range(0, n_steps // stride + 1)]
    if abs(snaps[-1] - t_end) > 1e-12 * max(1.0, t_end):
        snaps.append(t_end)
    n_s_ref, n_m_ref = scale * cfg.n_s, scale * cfg.n_m
    n_ref = stable_step_count(p, p.l / n_s_ref, 1.0 / n_m_ref, t_end,
                              multiple_of=n_steps)
    print(f"reference: {n_s_ref}/{n_m_ref} elements, {n_ref} steps")
    ref = make_reference(p, n_s_ref, n_m_ref, n_ref, t_end, snaps)
    return ref, n_steps, snaps


def cmd_simulate(args) -> int:
    cfg = parse_config(args.config)
    out = Path(cfg.out_dir)
    ops = build_operators(cfg.params, cfg.n_s, cfg.n_m)
    rec = run_simulation(
        cfg.params, ops, cfg.scheme, list(cfg.snapshot_times),
        record_every=cfg.record_every,
    )
    paths = write_record_csv(rec, out)
    dump_config(cfg, out / "config_echo.yaml")
    mon = rec.monitors
    print(f"simulated t in [0, {cfg.scheme.t_end}] with {cfg.scheme.variant}, "
          f"dt_m={cfg.scheme.dt_m:.6g}, {len(rec.snapshots)} snapshots")
    print(f"final mass {mon.mass[-1]:.9g} (initial {mon.mass[0]:.9g}), "
          f"final energy {mon.energy[-1]:.9g}")
    print(f"max |mass balance residual| = "
          f"{float(np.max(np.abs(mon.balance_residual))):.3e}")
    for pth in paths:
        print(f"wrote {pth}")
    return 0


def cmd_converge(args) -> int:
    cfg = parse_config(args.config)
    out = Path(cfg.out_dir)
    t_end = _study_t_end(cfg)
    if cfg.n_s % cfg.n_m:
        raise ConfigError(
            f"mesh.n_s: converge refines n_s and n_m together and needs "
            f"n_s to be a multiple of n_m, got {cfg.n_s}/{cfg.n_m}")
    table = convergence_study(
        cfg.params, n_m0=cfg.n_m, levels=args.levels,
        stent_ratio=cfg.n_s // cfg.n_m, t_end=t_end,
        variant=cfg.scheme.variant,
    )
    print(f"{'level':>5s} {'h_m':>10s} {'field':>5s} {'norm':>8s} "
          f"{'error':>13s} {'rate':>7s}")
    rows = []
    for level, h, fld, norm, err, rel, rate in table.rows():
        rate_s = f"{rate:7.3f}" if rate != "" else f"{'':7s}"
        print(f"{level:5d} {h:10.5f} {fld:>5s} {norm:>8s} {err:13.6e} {rate_s}")
        rows.append((level, h, fld, norm, err, rate))
    path = write_table_csv(out / "convergence.csv",
                           ["level", "h_m", "field", "norm", "error",
                            "rate_to_next"], rows)
    print(f"wrote {path}")
    return 0


def cmd_compare_fd(args) -> int:
    cfg = parse_config(args.config)
    out = Path(cfg.out_dir)
    scheme, snaps = cfg.scheme, list(cfg.snapshot_times)
    # refuse an FD-invalid config before the finite-element run steps
    check_fd(cfg.params, cfg.n_s, cfg.n_m, scheme.dt_m)
    ops = build_operators(cfg.params, cfg.n_s, cfg.n_m)
    fem = run_simulation(cfg.params, ops, scheme, snaps,
                         record_every=cfg.record_every)
    fd = run_fd(cfg.params, cfg.n_s, cfg.n_m, scheme.dt_m, scheme.t_end,
                snaps, record_every=cfg.record_every)
    report = compare_records(fd, fem)
    _print_report("finite-difference vs finite-element", report)
    path = write_table_csv(out / "fd_comparison.csv",
                           ["field", "norm", "absolute", "relative"],
                           _report_rows(report))
    print(f"wrote {path}")
    return 0


def cmd_compare_alg(args) -> int:
    cfg = parse_config(args.config)
    ref, n_steps, snaps = _reference(cfg, args.ref_scale)
    comp = compare_algorithms(cfg.params, ref, cfg.n_s, cfg.n_m,
                              n_steps, cfg.scheme.t_end, snaps)
    _write_reports(Path(cfg.out_dir) / "algorithm_comparison.csv", "variant",
                   [(name, name, getattr(comp, name))
                    for name in ("alg1", "alg2", "monolithic")])
    return 0


def cmd_stepping_study(args) -> int:
    cfg = parse_config(args.config)
    n_s_ref = args.ref_scale * cfg.n_s
    for q in args.ratios:
        if n_s_ref % (q * cfg.n_m):
            raise ConfigError(
                f"--ratios: ratio {q} needs {q * cfg.n_m} stent elements, "
                f"which the reference's {n_s_ref} do not refine")
    ref, n_steps, snaps = _reference(cfg, args.ref_scale)
    reports = stepping_study(cfg.params, ref, cfg.n_m, args.ratios, n_steps,
                             cfg.scheme.t_end, snaps,
                             variant=cfg.scheme.variant)
    _write_reports(Path(cfg.out_dir) / "stepping_study.csv", "ratio",
                   [(f"stent/media element ratio {q} (n_s={q * cfg.n_m})",
                     q, reports[q]) for q in args.ratios])
    return 0


def cmd_plot(args) -> int:
    path = Path(args.input)
    if not path.exists():
        raise ConfigError(f"input file not found: {path}")
    with path.open() as fh:
        header = next(csv.reader([fh.readline()]), [])
        if not fh.readline().strip():
            raise ConfigError(f"no data rows in {path}")
    # the config echo simulate writes beside its CSVs gives the time unit
    echo = path.with_name("config_echo.yaml")
    time_unit = parse_config(echo).time_unit if echo.exists() else None
    if header[:5] == ["t", "domain", "x", "field", "value"]:
        # long-format snapshots: one profile per snapshot time
        want = args.field
        series = {}
        with path.open() as fh:
            for row in csv.DictReader(fh):
                if row["field"] != want:
                    continue
                series.setdefault(float(row["t"]), []).append(
                    (float(row["x"]), float(row["value"]))
                )
        if not series:
            raise ConfigError(f"field {want!r} not present in {path}")
        plot_series = []
        for t in sorted(series):
            pairs = sorted(series[t])
            label = (f"t={t:.6g}" if time_unit is None
                     else f"{t * time_unit / 3600.0:.6g} h")
            plot_series.append((label,
                                np.array([a for a, _ in pairs]),
                                np.array([b for _, b in pairs])))
        labels = dict(title=f"{want} profiles", x_label="x", y_label=want)
    else:
        if args.field not in header:
            raise ConfigError(
                f"column {args.field!r} not in {path} (has {header})"
            )
        if "t" not in header:
            raise ConfigError(f"{path} has no t column to plot against")
        t, y = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                          usecols=(header.index("t"),
                                   header.index(args.field))).T
        x_label = "t"
        if time_unit is not None:
            t, x_label = t * time_unit / 3600.0, "hours"
        plot_series = [(args.field, t, y)]
        labels = dict(title=args.field, x_label=x_label, y_label=args.field)
    out = emit_svg_plot(plot_series, args.out, **labels)
    print(f"wrote {out}")
    return 0


def _positive_int(text):
    """argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return value


def _ratios(text):
    """argparse type: comma-separated distinct positive integers, such
    as 1,2."""
    ratios = [_positive_int(v) for v in text.split(",")]
    if len(set(ratios)) < len(ratios):
        raise argparse.ArgumentTypeError(f"repeated ratio in {text!r}")
    return ratios


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stentsim",
                     description="1D stent drug-release simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(func=func)
        return sp

    sp = add("simulate", cmd_simulate, help="run one simulation to CSV")
    sp.add_argument("--config", required=True)

    sp = add("converge", cmd_converge, help="mesh refinement rate study")
    sp.add_argument("--config", required=True)
    sp.add_argument("--levels", type=int, default=3)

    sp = add("compare-fd", cmd_compare_fd,
             help="cross-check against the finite-difference solver")
    sp.add_argument("--config", required=True)

    sp = add("compare-alg", cmd_compare_alg,
             help="accuracy of the two decoupling strategies")
    sp.add_argument("--config", required=True)
    sp.add_argument("--ref-scale", type=_positive_int, default=4)

    sp = add("stepping-study", cmd_stepping_study,
             help="stent/media mesh ratio study")
    sp.add_argument("--config", required=True)
    sp.add_argument("--ratios", type=_ratios, default="1,2")
    sp.add_argument("--ref-scale", type=_positive_int, default=4)

    sp = add("plot", cmd_plot, help="render a CSV column or profile to SVG")
    sp.add_argument("--input", required=True)
    sp.add_argument("--field", required=True)
    sp.add_argument("--out", required=True)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
