"""Set-up cost of one fresh interpreter: import stentsim.cli, parse a
config and build the operators for the given meshes.  Prints the seconds,
then the calibration kernel's seconds right after.

    python3 setup_probe.py SRC_DIR CONFIG N_S:N_M [N_S:N_M ...]
"""

import sys
from time import perf_counter


def main(argv):
    t0 = perf_counter()
    sys.path.insert(0, argv[0])
    from stentsim.cli import build_operators, parse_config

    cfg = parse_config(argv[1])
    for mesh in argv[2:]:
        n_s, n_m = (int(v) for v in mesh.split(":"))
        build_operators(cfg.params, n_s, n_m)
    setup = perf_counter() - t0

    from calibrate import kernel_seconds

    print(setup, kernel_seconds())


if __name__ == "__main__":
    main(sys.argv[1:])
