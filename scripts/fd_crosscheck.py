#!/usr/bin/env python3
"""Cross-validate the finite-element solver against the independent
finite-difference solver on identical grids and time steps."""

import argparse

from stentsim import (
    build_operators,
    compare_records,
    paper_params,
    run_fd,
    run_simulation,
)
from stentsim.stepping import SchemeConfig, stable_step_count


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-s", type=int, default=100)
    ap.add_argument("--n-m", type=int, default=100)
    ap.add_argument("--t-end", type=float, default=1.0)
    args = ap.parse_args()
    p = paper_params()

    n_steps = stable_step_count(p, p.l / args.n_s, 1.0 / args.n_m,
                                args.t_end, multiple_of=10)
    dt = args.t_end / n_steps
    snaps = [k * args.t_end / 10 for k in range(11)]
    print(f"{n_steps} common steps, dt={dt:.4g}")

    ops = build_operators(p, args.n_s, args.n_m)
    cfg = SchemeConfig("monolithic", dt, t_end=args.t_end)
    fem = run_simulation(p, ops, cfg, snaps, record_every=max(1, n_steps // 100))
    fd = run_fd(p, args.n_s, args.n_m, dt, args.t_end, snaps,
                record_every=max(1, n_steps // 100))

    rep = compare_records(fd, fem)
    print(f"{'field':>5s} {'Linf(L2) diff':>15s}")
    for name in ("c", "c1", "c2"):
        print(f"{name:>5s} {rep.field(name).linf_l2:15.4e}")


if __name__ == "__main__":
    main()
