"""Command-line interface.

Subcommands: simulate, converge, compare-fd, compare-alg, stepping-study,
plot.  Exit codes: 0 success, 1 validation/configuration error, 2
numerical failure (instability or singular solve).  Tables printed to
stdout are also written as CSV files into the configured out_dir.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

import numpy as np

from .analysis import (compare_algorithms, compare_records,
                       convergence_study, make_reference, stepping_study)
from .config import dump_config, parse_config
from .errors import (AllocationError, CflError, ConfigError, NumericsError,
                     ValidationError)
from .fdcheck import check_fd, run_fd
from .fem import build_operators, mesh_widths
from .output import emit_svg_plot, write_record_csv, write_table_csv
from .stepping import run_simulation, stable_step_count, step_count


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); bad args are not numerics
        raise ConfigError(message)


def _write_reports(path, keys, reports):
    """Print each (title, values, report) item and write all of them to
    one CSV whose leading columns, named keys, hold the values."""
    rows = []
    for title, values, report in reports:
        print(f"{title}:")
        print(f"  {'field':5s} {'norm':8s} {'absolute':>13s} {'relative':>13s}")
        for fld, norm, absval, rel in report.rows():
            rel_s = f"{rel:13.6e}" if rel is not None else f"{'n/a':>13s}"
            print(f"  {fld:5s} {norm:8s} {absval:13.6e} {rel_s}")
            rows.append((*values, fld, norm, absval,
                         "" if rel is None else rel))
    path = write_table_csv(path, [*keys, "field", "norm", "absolute",
                                  "relative"], rows)
    print(f"wrote {path}")


def _report_moved_snapshots(rec, dt):
    """Print each snapshot of rec taken more than 1e-9 * dt from its
    requested time, with both times."""
    for snap in rec.snapshots:
        if abs(snap.t - snap.t_request) > 1e-9 * dt:
            print(f"snapshot requested at t={snap.t_request!r} taken at "
                  f"t={snap.t!r}, the nearest step")


def _directory(path, key: str, file_name: str = "") -> Path:
    """path as a Path, refused with a ConfigError keyed ``key`` if it or
    its nearest existing ancestor is a file, or if the OS cannot name it,
    or the file file_name in it: a null byte, a failed lookup, a name
    that the file system's encoding cannot encode or one longer than its
    file system allows.  So nothing is computed for a directory that
    cannot be made or a file that cannot be written."""
    path = Path(path)
    target = path / file_name
    if "\0" in str(target):
        raise ConfigError(f"{key}: {str(target)!r} holds a null byte",
                          key=key)
    try:
        known = next(p for p in (path, *path.parents) if p.exists())
        limit = os.pathconf(known, "PC_NAME_MAX")
        names = list(map(os.fsencode, target.relative_to(known).parts))
    except OSError as exc:
        raise ConfigError(f"{key}: {target} cannot be looked up "
                          f"({exc.strerror})", key=key) from None
    except UnicodeEncodeError:
        raise ConfigError(f"{key}: {target} cannot be named in the file "
                          f"system's encoding "
                          f"({sys.getfilesystemencoding()})", key=key) from None
    if not known.is_dir():
        raise ConfigError(f"{key}: {known} is a file, not a directory",
                          key=key)
    for name in names:
        if len(name) > limit:
            raise ConfigError(f"{key}: {target} has a name of {len(name)} "
                              f"bytes, above the {limit} its file system "
                              f"allows", key=key)
    return path


def _study_t_end(cfg):
    """The config's t_end, refused if 0: a study compares runs in time.
    A substep_ratio other than 1 is refused too, since every study run is
    single-rate, and so are snapshot_times and record_every, since the
    studies choose their own snapshots and records."""
    if cfg.scheme.t_end == 0:
        raise ConfigError(f"time.t_end: converge, compare-alg and "
                          f"stepping-study need t_end > 0, got "
                          f"{cfg.scheme.t_end!r}", key="time.t_end")
    if cfg.scheme.substep_ratio != 1:
        raise ConfigError(f"time.substep_ratio: converge, compare-alg and "
                          f"stepping-study run single-rate and need "
                          f"substep_ratio 1, got {cfg.scheme.substep_ratio}",
                          key="time.substep_ratio")
    for key in ("output.snapshot_times", "output.record_every"):
        if key in cfg.set_keys:
            raise ConfigError(f"{key}: converge, compare-alg and "
                              f"stepping-study choose their own snapshots "
                              f"and records; remove the key", key=key)
    return cfg.scheme.t_end


def _reference(cfg, scale, tests):
    """The fine reference of compare-alg and stepping-study: the config's
    meshes refined by ``scale``, a step count that is a multiple of the
    config's, and about ten snapshots on both step grids.  Returns the
    reference, the config's step count and the snapshot times, once each
    test mesh passes the gate: tests holds (name, n_s) pairs, with the
    config's n_m, and a refusal names the mesh."""
    p, t_end, dt = cfg.params, _study_t_end(cfg), cfg.scheme.dt_m
    for name, n_s in tests:
        try:
            cfg.scheme.check_cfl(p, *mesh_widths(p, n_s, cfg.n_m))
        except CflError as exc:
            raise CflError(f"{name} (n_s/n_m = {n_s}/{cfg.n_m}): "
                           f"{exc}") from None
    n_steps = step_count(t_end, dt)
    stride = max(1, n_steps // 10)
    snaps = [k * dt for k in (*range(0, n_steps, stride), n_steps)]
    n_s_ref, n_m_ref = scale * cfg.n_s, scale * cfg.n_m
    n_ref = stable_step_count(p, *mesh_widths(p, n_s_ref, n_m_ref), t_end,
                              multiple_of=n_steps)
    print(f"reference: {n_s_ref}/{n_m_ref} elements, {n_ref} steps")
    try:  # the run's arrays, allocated before its first step
        ref = make_reference(p, n_s_ref, n_m_ref, n_ref, t_end, snaps)
    except (MemoryError, AllocationError) as exc:
        raise ConfigError(f"--ref-scale {scale}: the reference of "
                          f"{n_s_ref}/{n_m_ref} elements cannot be allocated "
                          f"({exc})", key="--ref-scale") from None
    return ref, n_steps, snaps


def _operators(cfg):
    """The config's operators, built once its step passes the stability
    gate, which needs only the mesh widths, so that an unstable step on a
    huge mesh allocates nothing (``run_simulation`` gates the built
    operators again); a mesh that numpy cannot allocate is refused with a
    ConfigError naming the mesh keys."""
    p = cfg.params
    cfg.scheme.check_cfl(p, *mesh_widths(p, cfg.n_s, cfg.n_m))
    try:
        return build_operators(p, cfg.n_s, cfg.n_m)
    except (MemoryError, AllocationError) as exc:
        raise ConfigError(f"mesh.n_s, mesh.n_m: the mesh of {cfg.n_s}/"
                          f"{cfg.n_m} elements cannot be allocated ({exc})",
                          key="mesh.n_s") from None


def cmd_simulate(args) -> int:
    cfg = parse_config(args.config)
    out = _directory(cfg.out_dir, "output.out_dir")
    ops = _operators(cfg)
    rec = run_simulation(
        cfg.params, ops, cfg.scheme, list(cfg.snapshot_times),
        record_every=cfg.record_every,
    )
    paths = write_record_csv(rec, out)
    dump_config(cfg, out / "config_echo.yaml")
    mon = rec.monitors
    print(f"simulated t in [0, {cfg.scheme.t_end}] with {cfg.scheme.variant}, "
          f"dt_m={cfg.scheme.dt_m:.6g}, {len(rec.snapshots)} snapshots")
    _report_moved_snapshots(rec, cfg.scheme.dt_m)
    print(f"final mass {mon.mass[-1]:.9g} (initial {mon.mass[0]:.9g}), "
          f"final energy {mon.energy[-1]:.9g}")
    print(f"max |mass balance residual| = "
          f"{float(np.max(np.abs(mon.balance_residual))):.3e}")
    for pth in paths:
        print(f"wrote {pth}")
    return 0


def cmd_converge(args) -> int:
    cfg = parse_config(args.config)
    out = _directory(cfg.out_dir, "output.out_dir")
    t_end = _study_t_end(cfg)
    if cfg.n_s % cfg.n_m:
        raise ConfigError(
            f"mesh.n_s: converge refines n_s and n_m together and needs "
            f"n_s to be a multiple of n_m, got {cfg.n_s}/{cfg.n_m}")
    try:
        table = convergence_study(
            cfg.params, n_m0=cfg.n_m, levels=args.levels,
            stent_ratio=cfg.n_s // cfg.n_m, t_end=t_end,
            variant=cfg.scheme.variant,
        )
    except ValidationError as exc:
        if exc.key != "levels":
            raise
        raise ConfigError(f"--levels {args.levels}: {exc}",
                          key="--levels") from None
    print(f"{'level':>5s} {'h_m':>10s} {'field':>5s} {'norm':>8s} "
          f"{'error':>13s} {'rate':>7s}")
    rows = table.rows()
    for level, h, fld, norm, err, rate in rows:
        rate_s = f"{rate:7.3f}" if rate != "" else f"{'':7s}"
        print(f"{level:5d} {h:10.5f} {fld:>5s} {norm:>8s} {err:13.6e} {rate_s}")
    path = write_table_csv(out / "convergence.csv",
                           ["level", "h_m", "field", "norm", "error",
                            "rate_to_next"], rows)
    print(f"wrote {path}")
    return 0


def cmd_compare_fd(args) -> int:
    cfg = parse_config(args.config)
    out = _directory(cfg.out_dir, "output.out_dir")
    scheme, snaps = cfg.scheme, list(cfg.snapshot_times)
    # refuse what the comparison cannot use before the finite-element run
    # steps: it pairs the runs' snapshots, and the finite-difference
    # solver is single-rate
    if not snaps:
        raise ConfigError("output.snapshot_times: compare-fd compares the "
                          "two runs at their snapshots and needs at least "
                          "one, got []", key="output.snapshot_times")
    if scheme.substep_ratio != 1:
        raise ConfigError(f"time.substep_ratio: compare-fd compares with "
                          f"the single-rate finite-difference solver and "
                          f"needs substep_ratio 1, got "
                          f"{scheme.substep_ratio}", key="time.substep_ratio")
    check_fd(cfg.params, cfg.n_s, cfg.n_m, scheme.dt_m)
    ops = _operators(cfg)
    fem = run_simulation(cfg.params, ops, scheme, snaps,
                         record_every=cfg.record_every)
    fd = run_fd(cfg.params, cfg.n_s, cfg.n_m, scheme.dt_m, scheme.t_end,
                snaps, record_every=cfg.record_every)
    _report_moved_snapshots(fem, scheme.dt_m)  # both runs snap alike
    _write_reports(out / "fd_comparison.csv", (),
                   [("finite-difference vs finite-element", (),
                     compare_records(fd, fem))])
    return 0


def cmd_compare_alg(args) -> int:
    cfg = parse_config(args.config)
    out = _directory(cfg.out_dir, "output.out_dir")
    ref, n_steps, snaps = _reference(cfg, args.ref_scale,
                                     [("test mesh", cfg.n_s)])
    reports = compare_algorithms(cfg.params, ref, cfg.n_s, cfg.n_m,
                                 n_steps, cfg.scheme.t_end, snaps)
    _write_reports(out / "algorithm_comparison.csv",
                   ("variant",),
                   [(name, (name,), rep) for name, rep in reports.items()])
    return 0


def cmd_stepping_study(args) -> int:
    cfg = parse_config(args.config)
    out = _directory(cfg.out_dir, "output.out_dir")
    n_s_ref = args.ref_scale * cfg.n_s
    for q in args.ratios:
        if n_s_ref % (q * cfg.n_m):
            raise ConfigError(
                f"--ratios: ratio {q} needs {q * cfg.n_m} stent elements, "
                f"which the reference's {n_s_ref} do not refine")
    ref, n_steps, snaps = _reference(
        cfg, args.ref_scale, [(f"ratio {q}", q * cfg.n_m) for q in args.ratios])
    reports = stepping_study(cfg.params, ref, cfg.n_m, args.ratios, n_steps,
                             cfg.scheme.t_end, snaps,
                             variant=cfg.scheme.variant)
    _write_reports(out / "stepping_study.csv", ("ratio",),
                   [(f"stent/media element ratio {q} (n_s={q * cfg.n_m})",
                     (q,), rep) for q, rep in reports.items()])
    return 0


def _malformed(path, line, row, columns) -> ConfigError:
    return ConfigError(f"{path}, line {line}: malformed row "
                       f"{','.join(row)!r}: expected numbers for {columns}")


def _bad_row(fh, path, header, names, exc) -> ConfigError:
    """The refusal of path's CSV, open as fh, that numpy failed to read
    (exc): it names the first data row whose columns names are missing or
    not numbers, or passes numpy's message on when every row reads."""
    cols = [header.index(name) for name in names]
    fh.seek(0)
    rows = csv.reader(fh)
    next(rows)
    for row in filter(None, rows):
        try:
            for c in cols:
                float(row[c])
        except (IndexError, ValueError):
            return _malformed(path, rows.line_num, row, " and ".join(names))
    return ConfigError(f"{path}: {exc}")


def cmd_plot(args) -> int:
    path, out = Path(args.input), Path(args.out)
    # the input is refused by what its open raises, with no look-up first
    try:
        fh = path.open(encoding="utf-8")
    except (FileNotFoundError, NotADirectoryError):
        raise ConfigError(f"input file not found: {path}") from None
    except IsADirectoryError:
        raise ConfigError(f"--input: {path} is a directory, not a CSV file",
                          key="--input") from None
    except OSError as exc:
        raise ConfigError(f"--input: {path} cannot be read ({exc.strerror})",
                          key="--input") from None
    except UnicodeEncodeError:
        raise ConfigError(f"--input: {path} cannot be named in the file "
                          f"system's encoding ({sys.getfilesystemencoding()})",
                          key="--input") from None
    with fh:
        _directory(out.parent, "--out", out.name)
        if out.is_dir():
            raise ConfigError(f"--out: {out} is a directory, not an SVG "
                              f"file", key="--out")
        try:
            plot_series, labels = _plot_series(fh, path, args.field)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"--input: {path} is not UTF-8 text ({exc})",
                              key="--input") from None
    out = emit_svg_plot(plot_series, out, **labels)
    print(f"wrote {out}")
    return 0


def _plot_series(fh, path, field):
    """The series of path's CSV, open as fh, to plot for the field, and
    the chart's labels: a profile per snapshot time from the long format,
    or the field's column against t."""
    header = next(csv.reader([fh.readline()]), [])
    if not any(line.strip() for line in fh):
        raise ConfigError(f"no data rows in {path}")
    fh.seek(0)
    # the config echo simulate writes beside its CSVs gives the time unit
    echo = path.with_name("config_echo.yaml")
    time_unit = parse_config(echo).time_unit if echo.exists() else None
    if header[:5] == ["t", "domain", "x", "field", "value"]:
        # long-format snapshots: one profile per snapshot time
        series = {}
        rows = csv.reader(fh)
        next(rows)
        for row in filter(None, rows):
            try:
                if row[3] != field:
                    continue
                series.setdefault(float(row[0]), []).append(
                    (float(row[2]), float(row[4])))
            except (IndexError, ValueError):
                raise _malformed(path, rows.line_num, row,
                                 "t, x and value") from None
        if not series:
            raise ConfigError(f"field {field!r} not present in {path}")
        plot_series = []
        for t in sorted(series):
            label = (f"t={t:.6g}" if time_unit is None
                     else f"{t * time_unit / 3600.0:.6g} h")
            plot_series.append((label, *np.array(sorted(series[t])).T))
        labels = dict(title=f"{field} profiles", x_label="x", y_label=field)
    else:
        if field not in header:
            raise ConfigError(
                f"column {field!r} not in {path} (has {header})"
            )
        if "t" not in header:
            raise ConfigError(f"{path} has no t column to plot against")
        names = ("t", field)
        try:
            t, y = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2,
                              usecols=[header.index(n) for n in names]).T
        except ValueError as exc:
            raise _bad_row(fh, path, header, names, exc) from None
        x_label = "t"
        if time_unit is not None:
            t, x_label = t * time_unit / 3600.0, "hours"
        plot_series = [(field, t, y)]
        labels = dict(title=field, x_label=x_label, y_label=field)
    return plot_series, labels


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
