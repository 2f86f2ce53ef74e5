"""Run configuration: a small YAML schema mapping onto the solver types.

Schema (keys and nesting are normative):

    params: paper_defaults            # or a mapping of the seven constants;
                                      # a mapping may set use_paper_defaults
    mesh:
      n_s: 50                         # stent elements
      n_m: 25                         # media elements
    time:
      t_end: 1.0
      dt_m: 1.25e-4                   # macro step
      substep_ratio: 1                # optional, default 1
      substep_domain: stent           # optional, stent|media
      cfl_safety: 1.0                 # optional, default 1: fraction of
                                      # the sharp stability limit
    scheme: monolithic                # monolithic | alg1 | alg2
    output:
      out_dir: out/run1
      snapshot_times: [0.0, 0.5, 1.0] # optional, default [0, t_end]
      record_every: 1                 # optional, default 1
    time_unit: 4320.0                 # optional, seconds per unit of t;
                                      # plot then draws time in hours
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import yaml

from .errors import ConfigError, ValidationError
from .params import ModelParams, validate_params
from .stepping import SchemeConfig, check_snapshot_times


@dataclass(frozen=True)
class RunConfig:
    """A parsed run configuration.  ``scheme`` holds the ``time`` keys and
    the ``scheme`` key as the SchemeConfig that every command steps with."""

    params: ModelParams
    n_s: int
    n_m: int
    scheme: SchemeConfig
    out_dir: str
    snapshot_times: tuple[float, ...] = field(default=())
    record_every: int = 1
    time_unit: float | None = None


# the keys each mapping may hold, "" being the root; validate_params
# checks the params names
KNOWN_KEYS = {
    "": ("params", "mesh", "time", "scheme", "output", "time_unit"),
    "mesh": ("n_s", "n_m"),
    "time": ("t_end", "dt_m", "substep_ratio", "substep_domain",
             "cfl_safety"),
    "output": ("out_dir", "snapshot_times", "record_every"),
}


def _need(tree: dict, path: str, kind):
    node = tree
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"{path}: missing required key")
        node = node[part]
    return _typed(node, kind, path)


def _typed(value, kind, key_path: str):
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{key_path}: expected a number, got {value!r}")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{key_path}: expected an integer, got {value!r}")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{key_path}: expected a string, got {value!r}")
        return value
    raise AssertionError(kind)


def _optional(tree: dict, name: str, kind, default, key_path: str):
    if not isinstance(tree, dict) or name not in tree or tree[name] is None:
        return default
    return _typed(tree[name], kind, key_path)


def parse_config(path) -> RunConfig:
    """Load and validate a YAML run configuration."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        tree = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        raise ConfigError(f"config parse failure{where}: {exc}") from None
    if not isinstance(tree, dict):
        raise ConfigError("config root must be a mapping")
    return config_from_dict(tree)


def config_from_dict(tree: dict) -> RunConfig:
    for section, known in KNOWN_KEYS.items():
        node = tree.get(section) if section else tree
        for key in node if isinstance(node, dict) else ():
            if key not in known:
                where = f"{section}.{key}" if section else key
                raise ConfigError(f"{where}: unknown key")  # not ignored
    raw_params = tree.get("params")
    if raw_params == "paper_defaults":
        params = validate_params({}, use_paper_defaults=True)
    elif isinstance(raw_params, dict):
        raw = dict(raw_params)
        use_defaults = raw.pop("use_paper_defaults", False)
        if not isinstance(use_defaults, bool):
            raise ConfigError(f"params.use_paper_defaults: expected true or "
                              f"false, got {use_defaults!r}")
        try:
            params = validate_params(raw, use_paper_defaults=use_defaults)
        except Exception as exc:
            raise ConfigError(f"params: {exc}") from None
    elif raw_params is None:
        raise ConfigError("params: missing required key")
    else:
        raise ConfigError(
            'params: expected "paper_defaults" or a mapping of values'
        )

    n_s = _need(tree, "mesh.n_s", int)
    n_m = _need(tree, "mesh.n_m", int)
    if n_s < 1 or n_m < 1:
        raise ConfigError("mesh.n_s and mesh.n_m must be at least 1")

    t_end = _need(tree, "time.t_end", float)
    dt_m = _need(tree, "time.dt_m", float)
    time_tree = tree.get("time", {})
    optional = {}  # the keys that are set; SchemeConfig has the defaults
    for name, kind in (("substep_ratio", int), ("substep_domain", str),
                       ("cfl_safety", float)):
        value = _optional(time_tree, name, kind, None, f"time.{name}")
        if value is not None:
            optional[name] = value

    variant = _need(tree, "scheme", str)
    try:
        scheme = SchemeConfig(variant=variant, dt_m=dt_m, t_end=t_end,
                              **optional)
    except ValidationError as exc:  # exc.key names the SchemeConfig field
        path = "scheme" if exc.key == "variant" else f"time.{exc.key}"
        raise ConfigError(f"{path}: {exc}") from None

    out_dir = _need(tree, "output.out_dir", str)
    out_tree = tree.get("output", {})
    record_every = _optional(out_tree, "record_every", int, 1,
                             "output.record_every")
    if record_every < 1:
        raise ConfigError("output.record_every must be at least 1")
    snaps = out_tree.get("snapshot_times") if isinstance(out_tree, dict) else None
    if snaps is None:
        snapshot_times = (0.0, t_end)
    else:
        if not isinstance(snaps, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in snaps
        ):
            raise ConfigError("output.snapshot_times: expected a list of numbers")
        snapshot_times = tuple(float(v) for v in snaps)
    try:
        check_snapshot_times(snapshot_times, t_end)
    except ValidationError as exc:
        raise ConfigError(f"output.snapshot_times: {exc}") from None

    time_unit = tree.get("time_unit")
    if time_unit is not None:
        time_unit = _typed(time_unit, float, "time_unit")
        if not (math.isfinite(time_unit) and time_unit > 0):
            raise ConfigError(
                f"time_unit must be positive and finite, got {time_unit}")

    return RunConfig(
        params=params,
        n_s=n_s,
        n_m=n_m,
        scheme=scheme,
        out_dir=out_dir,
        snapshot_times=snapshot_times,
        record_every=record_every,
        time_unit=time_unit,
    )


def config_to_dict(cfg: RunConfig) -> dict:
    time = asdict(cfg.scheme)
    tree = {
        "params": asdict(cfg.params),
        "mesh": {"n_s": cfg.n_s, "n_m": cfg.n_m},
        "time": time,
        "scheme": time.pop("variant"),
        "output": {
            "out_dir": cfg.out_dir,
            "snapshot_times": list(cfg.snapshot_times),
            "record_every": cfg.record_every,
        },
    }
    if cfg.time_unit is not None:
        tree["time_unit"] = cfg.time_unit
    return tree


def dump_config(cfg: RunConfig, path) -> None:
    """Write a config echo that parse_config reads back to an equal value."""
    Path(path).write_text(
        yaml.safe_dump(config_to_dict(cfg), sort_keys=True)
    )
