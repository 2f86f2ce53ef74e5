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
from .params import ModelParams, number_hint, validate_params
from .stepping import SchemeConfig, check_snapshot_times, whole_number


@dataclass(frozen=True)
class RunConfig:
    """A parsed run configuration.  ``scheme`` holds the ``time`` keys and
    the ``scheme`` key as the SchemeConfig that every command steps with;
    ``set_keys`` names the dotted keys the file set, defaults aside."""

    params: ModelParams
    n_s: int
    n_m: int
    scheme: SchemeConfig
    out_dir: str
    snapshot_times: tuple[float, ...]
    record_every: int
    time_unit: float | None
    set_keys: frozenset = field(default=frozenset(), repr=False,
                                compare=False)


# every key a config may hold, by dotted path: its type (tuple is a list
# of numbers) and whether it is required; validate_params checks the
# names under params, and SchemeConfig holds the time keys' defaults
SCHEMA = {
    "params": (ModelParams, True),
    "mesh.n_s": (int, True),
    "mesh.n_m": (int, True),
    "time.t_end": (float, True),
    "time.dt_m": (float, True),
    "time.substep_ratio": (int, False),
    "time.substep_domain": (str, False),
    "time.cfl_safety": (float, False),
    "scheme": (str, True),
    "output.out_dir": (str, True),
    "output.snapshot_times": (tuple, False),
    "output.record_every": (int, False),
    "time_unit": (float, False),
}
SECTIONS = {path.split(".")[0] for path in SCHEMA if "." in path}


def _set_keys(tree: dict) -> dict:
    """The keys tree sets (a null sets nothing) by dotted path, typed;
    raises ConfigError for an unknown key or a missing required one."""
    flat = []
    for key, value in tree.items():
        node = value if isinstance(value, dict) else {}
        flat += ([(f"{key}.{name}", name, v) for name, v in node.items()]
                 if key in SECTIONS else [(f"{key}", key, value)])
    keys = {}
    for path, name, value in flat:
        # a dotted name, such as a root key "mesh.n_s", is no schema key
        if path not in SCHEMA or "." in f"{name}":
            raise ConfigError(f"{path}: unknown key")  # not ignored
        if value is not None:
            keys[path] = _typed(value, SCHEMA[path][0], path)
    for path, (_, required) in SCHEMA.items():
        if required and path not in keys:
            raise ConfigError(f"{path}: missing required key")
    return keys


def _typed(value, kind, path: str):
    if kind is ModelParams:
        return _params(value)
    if kind is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list of numbers")
        return tuple(_typed(v, float, path) for v in value)
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    ok, what = {float: (number, "a number"),
                int: (number and isinstance(value, int), "an integer"),
                str: (isinstance(value, str), "a string")}[kind]
    if not ok:
        hint = number_hint(value) if kind is float else ""
        raise ConfigError(f"{path}: expected {what}, got {value!r}{hint}")
    return float(value) if kind is float else value


def _params(raw) -> ModelParams:
    if raw == "paper_defaults":
        return validate_params({}, use_paper_defaults=True)
    if not isinstance(raw, dict):
        raise ConfigError(
            'params: expected "paper_defaults" or a mapping of values')
    raw = dict(raw)
    use_defaults = raw.pop("use_paper_defaults", False)
    if not isinstance(use_defaults, bool):
        raise ConfigError(f"params.use_paper_defaults: expected true or "
                          f"false, got {use_defaults!r}")
    try:
        return validate_params(raw, use_paper_defaults=use_defaults)
    except Exception as exc:
        raise ConfigError(f"params: {exc}") from None


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
    keys = _set_keys(tree)
    n_s, n_m = (whole_number(keys[path], path)
                for path in ("mesh.n_s", "mesh.n_m"))
    try:
        scheme = SchemeConfig(variant=keys["scheme"], **{
            path.removeprefix("time."): v for path, v in keys.items()
            if path.startswith("time.")})
    except ValidationError as exc:  # exc.key names the SchemeConfig field
        path = "scheme" if exc.key == "variant" else f"time.{exc.key}"
        raise ConfigError(f"{path}: {exc}") from None
    snapshot_times = keys.get("output.snapshot_times", (0.0, scheme.t_end))
    try:
        check_snapshot_times(snapshot_times, scheme.t_end)
    except ValidationError as exc:
        raise ConfigError(f"output.snapshot_times: {exc}") from None
    time_unit = keys.get("time_unit")
    if time_unit is not None and not (math.isfinite(time_unit) and time_unit > 0):
        raise ConfigError(
            f"time_unit must be positive and finite, got {time_unit}")
    return RunConfig(
        params=keys["params"], n_s=n_s, n_m=n_m, scheme=scheme,
        out_dir=keys["output.out_dir"], snapshot_times=snapshot_times,
        record_every=whole_number(keys.get("output.record_every", 1),
                                  "output.record_every"),
        time_unit=time_unit, set_keys=frozenset(keys))


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
