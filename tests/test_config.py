import re
from pathlib import Path

import pytest

from stentsim import ConfigError, ValidationError, paper_params
from stentsim.config import SCHEMA, config_to_dict, dump_config, parse_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
GOOD = """\
params: paper_defaults
mesh:
  n_s: 50
  n_m: 25
time:
  t_end: 1.0
  dt_m: 1.25e-4
scheme: monolithic
output:
  out_dir: {out}
  snapshot_times: [0.0, 0.5, 1.0]
"""


def write_cfg(tmp_path, text):
    path = tmp_path / "run.yaml"
    path.write_text(text)
    return path


def test_paper_defaults_expand(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, GOOD.format(out=tmp_path / "o")))
    assert cfg.params == paper_params()
    assert cfg.n_s == 50 and cfg.n_m == 25
    assert cfg.scheme.variant == "monolithic"
    assert cfg.scheme.substep_ratio == 1
    assert cfg.snapshot_times == (0.0, 0.5, 1.0)
    assert cfg.time_unit is None


def test_inline_params_with_overrides(tmp_path):
    text = GOOD.format(out=tmp_path / "o").replace(
        "params: paper_defaults",
        "params:\n  use_paper_defaults: true\n  pe: 0.2",
    )
    cfg = parse_config(write_cfg(tmp_path, text))
    assert cfg.params.pe == 0.2
    assert cfg.params.phi == 0.61


def test_missing_t_end_names_key(tmp_path):
    text = GOOD.format(out=tmp_path / "o").replace("  t_end: 1.0\n", "")
    with pytest.raises(ConfigError, match="time.t_end"):
        parse_config(write_cfg(tmp_path, text))


def test_snapshot_beyond_t_end_rejected(tmp_path):
    text = GOOD.format(out=tmp_path / "o").replace(
        "[0.0, 0.5, 1.0]", "[0.0, 1.5]"
    )
    with pytest.raises(ConfigError, match="snapshot_times"):
        parse_config(write_cfg(tmp_path, text))


def test_unsorted_snapshots_rejected(tmp_path):
    text = GOOD.format(out=tmp_path / "o").replace(
        "[0.0, 0.5, 1.0]", "[0.5, 0.0]"
    )
    with pytest.raises(ConfigError, match="sorted"):
        parse_config(write_cfg(tmp_path, text))


@pytest.mark.parametrize("times", ["[0.0, .nan]", "[.nan, 1.0]",
                                   "[0.0, .inf]", "[-.inf, 0.0]"])
def test_non_finite_snapshot_time_rejected(tmp_path, times):
    text = GOOD.format(out=tmp_path / "o").replace("[0.0, 0.5, 1.0]", times)
    with pytest.raises(ConfigError, match="^output.snapshot_times: .*finite"):
        parse_config(write_cfg(tmp_path, text))


@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf", "0.0", "-1.0"])
def test_bad_time_unit_rejected(tmp_path, value):
    text = GOOD.format(out=tmp_path / "o") + f"time_unit: {value}\n"
    with pytest.raises(ConfigError,
                       match="time_unit must be positive and finite"):
        parse_config(write_cfg(tmp_path, text))


def test_bad_scheme_and_bad_params(tmp_path):
    text = GOOD.format(out=tmp_path / "o").replace("monolithic", "rk4")
    with pytest.raises(ConfigError, match="scheme"):
        parse_config(write_cfg(tmp_path, text))
    text = GOOD.format(out=tmp_path / "o").replace(
        "params: paper_defaults", "params:\n  phi: 1.5\n  use_paper_defaults: true"
    )
    with pytest.raises(ConfigError, match="phi"):
        parse_config(write_cfg(tmp_path, text))


@pytest.mark.parametrize("params", [
    "{use_paper_defaults: true, pe: true}",
    "{use_paper_defaults: true, da: \"0.5\"}",
], ids=["bool", "string"])
def test_non_numeric_params_rejected(tmp_path, params):
    text = GOOD.format(out=tmp_path / "o").replace(
        "params: paper_defaults", f"params: {params}")
    with pytest.raises(ConfigError, match="^params: .* must be a number"):
        parse_config(write_cfg(tmp_path, text))


@pytest.mark.parametrize("value,shown", [('"no"', "'no'"), ("1", "1"),
                                         ("null", "None"),
                                         ('"true"', "'true'")],
                         ids=["no", "int", "null", "string"])
def test_use_paper_defaults_must_be_boolean(tmp_path, value, shown):
    # bool() would read "no" as true and fill in all seven defaults
    text = GOOD.format(out=tmp_path / "o").replace(
        "params: paper_defaults", f"params: {{use_paper_defaults: {value}}}")
    with pytest.raises(ConfigError, match="^" + re.escape(
            f"params.use_paper_defaults: expected true or false, got {shown}")
            + "$"):
        parse_config(write_cfg(tmp_path, text))


@pytest.mark.parametrize("time_lines,key", [
    ("  dt_m: -1.0\n", "time.dt_m"),
    ("  dt_m: 0.003\n", "time.dt_m"),  # t_end = 333.3 steps
    ("  dt_m: 1.5494e-4\n  substep_ratio: 0\n", "time.substep_ratio"),
    ("  dt_m: 1.5494e-4\n  cfl_safety: 1.5\n", "time.cfl_safety"),
    ("  dt_m: 1.5494e-4\n  substep_domain: lumen\n", "time.substep_domain"),
    ("  dt_m: .nan\n", "time.dt_m"),
    ("  dt_m: .inf\n", "time.dt_m"),
    ("  dt_m: 1.25e-4\n  t_end: .nan\n", "time.t_end"),
    ("  dt_m: 1.25e-4\n  t_end: .inf\n", "time.t_end"),
])
def test_bad_time_values_name_key_path(tmp_path, time_lines, key):
    # 1.5494e-4 does not divide t_end, but each named field is checked
    # before the step count; a case that sets t_end replaces GOOD's
    text = GOOD.format(out=tmp_path / "o")
    if "t_end" in time_lines:
        text = text.replace("  t_end: 1.0\n", "")
    text = text.replace("  dt_m: 1.25e-4\n", time_lines)
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
        parse_config(write_cfg(tmp_path, text))


@pytest.mark.parametrize("old,new,key", [
    ("  dt_m: 1.25e-4\n", "  dt_m: 1.25e-4\n  substep_ration: 4\n",
     "time.substep_ration"),
    ("  snapshot_times:", "  record_evry: 5\n  snapshot_times:",
     "output.record_evry"),
    ("  n_m: 25\n", "  n_m: 25\n  n_x: 3\n", "mesh.n_x"),
    ("scheme: monolithic\n", "scheme: monolithic\nsheme: alg1\n", "sheme"),
])
def test_unknown_keys_refused(tmp_path, old, new, key):
    # a misspelled optional key used to be ignored: the run went ahead
    # single-rate, or recording every step
    text = GOOD.format(out=tmp_path / "o").replace(old, new)
    assert new in text
    with pytest.raises(ConfigError, match="^" + re.escape(key)
                       + ": unknown key$"):
        parse_config(write_cfg(tmp_path, text))


def test_schema_holds_the_thirteen_keys():
    assert set(SCHEMA) == {
        "params", "mesh.n_s", "mesh.n_m", "time.t_end", "time.dt_m",
        "time.substep_ratio", "time.substep_domain", "time.cfl_safety",
        "scheme", "output.out_dir", "output.snapshot_times",
        "output.record_every", "time_unit"}
    assert {path for path, (_, required) in SCHEMA.items() if required} == {
        "params", "mesh.n_s", "mesh.n_m", "time.t_end", "time.dt_m",
        "scheme", "output.out_dir"}


def test_dotted_root_key_refused(tmp_path):
    # "mesh.n_s" at the root is not mesh: {n_s}, beside a mesh or without
    text = GOOD.format(out=tmp_path / "o")
    for old, new in (("mesh:", '"mesh.n_s": 50\nmesh:'),
                     ("mesh:\n  n_s: 50\n  n_m: 25\n",
                      '"mesh.n_s": 50\n"mesh.n_m": 25\n')):
        assert old in text
        with pytest.raises(ConfigError, match=r"^mesh\.n_s: unknown key$"):
            parse_config(write_cfg(tmp_path, text.replace(old, new)))


@pytest.mark.parametrize("old,new,key", [
    ("  t_end: 1.0\n", "  t_end:\n", "time.t_end"),
    ("scheme: monolithic", "scheme: null", "scheme"),
    ("params: paper_defaults", "params:", "params"),
    ("  n_m: 25\n", "", "mesh.n_m"),
], ids=["t_end", "scheme", "params", "n_m"])
def test_null_or_absent_required_key_refused(tmp_path, old, new, key):
    text = GOOD.format(out=tmp_path / "o")
    assert old in text
    with pytest.raises(ConfigError, match="^" + re.escape(key)
                       + ": missing required key$"):
        parse_config(write_cfg(tmp_path, text.replace(old, new)))


@pytest.mark.parametrize("old,new,message", [
    ("  snapshot_times:", "  record_every: 0\n  snapshot_times:",
     "output.record_every must be a whole number >= 1, got 0"),
    ("  n_s: 50", "  n_s: 0", "mesh.n_s must be a whole number >= 1, got 0"),
    ("  n_m: 25", "  n_m: -3", "mesh.n_m must be a whole number >= 1, got -3"),
], ids=["record_every", "n_s", "n_m"])
def test_counts_below_one_refused(tmp_path, old, new, message):
    text = GOOD.format(out=tmp_path / "o")
    assert old in text
    with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
        parse_config(write_cfg(tmp_path, text.replace(old, new)))


def test_snapshot_times_must_be_numbers(tmp_path):
    text = GOOD.format(out=tmp_path / "o")
    for times, message in (("0.5", "expected a list of numbers"),
                           ("[0.0, true]", "expected a number, got True")):
        with pytest.raises(ConfigError, match="^output.snapshot_times: "
                           + message + "$"):
            parse_config(write_cfg(tmp_path, text.replace("[0.0, 0.5, 1.0]",
                                                          times)))


YAML_HINT = (" (YAML 1.1 reads a float without a dot, or with an unsigned "
             "exponent, as a string; write {})")
DEFAULTS_WITH = "params: {{use_paper_defaults: true, da: {}}}"


@pytest.mark.parametrize("old,new,message", [
    ("  t_end: 1.0", "  t_end: 4.0e3", "time.t_end: expected a number, got "
     "'4.0e3'" + YAML_HINT.format("4000.0")),
    ("  dt_m: 1.25e-4", "  dt_m: 1e-4", "time.dt_m: expected a number, got "
     "'1e-4'" + YAML_HINT.format("0.0001")),
    ("[0.0, 0.5, 1.0]", "[0.0, 5e-1]", "output.snapshot_times: expected a "
     "number, got '5e-1'" + YAML_HINT.format("0.5")),
    ("params: paper_defaults", DEFAULTS_WITH.format("1e-300"), "params: da "
     "must be a number, got '1e-300'" + YAML_HINT.format("1.0e-300")),
    ("  t_end: 1.0", "  t_end: fast",
     "time.t_end: expected a number, got 'fast'"),
    ("params: paper_defaults", DEFAULTS_WITH.format("4.0e3x"),
     "params: da must be a number, got '4.0e3x'"),
], ids=["t_end", "dt_m", "snapshot_times", "params", "word", "no-float"])
def test_float_read_as_string_refused_with_hint(tmp_path, old, new, message):
    # the refusal stays; a string float() reads gets the YAML 1.1 hint
    text = GOOD.format(out=tmp_path / "o")
    assert old in text
    with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
        parse_config(write_cfg(tmp_path, text.replace(old, new)))


PAPER = ("params=ModelParams(delta=4e-07, p_tilde=45000.0, pe=0.1044, "
         "da=0.0162, k_part=15.0, phi=0.61, l=0.028), ")
# repr(parse_config(path)) of each shipped config, as parsed before the
# config schema became one table
SHIPPED_REPRS = {
    "convergence.yaml": (
        "RunConfig(" + PAPER + "n_s=20, n_m=10, scheme=SchemeConfig("
        "variant='monolithic', dt_m=0.0009615384615384616, t_end=1.0, "
        "substep_ratio=1, cfl_safety=1.0, substep_domain='stent'), "
        "out_dir='out/convergence', snapshot_times=(0.0, 1.0), "
        "record_every=1, time_unit=None)"),
    "crosscheck.yaml": (
        "RunConfig(" + PAPER + "n_s=100, n_m=100, scheme=SchemeConfig("
        "variant='monolithic', dt_m=9.677731539727089e-06, t_end=1.0, "
        "substep_ratio=1, cfl_safety=1.0, substep_domain='stent'), "
        "out_dir='out/crosscheck', snapshot_times=(0.0, 0.1, 0.2, 0.3, "
        "0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0), record_every=1000, "
        "time_unit=None)"),
    "release.yaml": (
        "RunConfig(" + PAPER + "n_s=100, n_m=25, scheme=SchemeConfig("
        "variant='alg1', dt_m=0.0006172839506172839, t_end=20.0, "
        "substep_ratio=4, cfl_safety=1.0, substep_domain='media'), "
        "out_dir='out/release', snapshot_times=(0.0, 0.1388888888888889, "
        "0.4166666666666667, 0.8333333333333334, 5.0, 20.0), "
        "record_every=10, time_unit=4320.0)"),
    "study.yaml": (
        "RunConfig(" + PAPER + "n_s=50, n_m=25, scheme=SchemeConfig("
        "variant='alg1', dt_m=0.0001549426712116517, t_end=1.0, "
        "substep_ratio=1, cfl_safety=1.0, substep_domain='stent'), "
        "out_dir='out/study', snapshot_times=(0.0, 1.0), record_every=1, "
        "time_unit=None)"),
}


@pytest.mark.parametrize("name", sorted(SHIPPED_REPRS))
def test_shipped_configs_parse_as_before(name):
    assert repr(parse_config(CONFIGS / name)) == SHIPPED_REPRS[name]


def test_parse_failure_reports_position(tmp_path):
    with pytest.raises(ConfigError, match="line"):
        parse_config(write_cfg(tmp_path, "mesh: [unclosed\n"))


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "nope.yaml")


def test_roundtrip_equality(tmp_path):
    src = parse_config(write_cfg(tmp_path, GOOD.format(out=tmp_path / "o")))
    echo_path = tmp_path / "echo.yaml"
    dump_config(src, echo_path)
    again = parse_config(echo_path)
    assert again == src


def test_roundtrip_with_all_optionals(tmp_path):
    text = GOOD.format(out=tmp_path / "o") + (
        "time_unit: 4320.0\n"
    )
    text = text.replace(
        "  dt_m: 1.25e-4\n",
        "  dt_m: 1.25e-4\n  substep_ratio: 3\n  substep_domain: media\n"
        "  cfl_safety: 0.25\n",
    )
    src = parse_config(write_cfg(tmp_path, text))
    assert src.scheme.substep_ratio == 3
    assert src.scheme.substep_domain == "media"
    assert src.time_unit == 4320.0
    echo = tmp_path / "echo.yaml"
    dump_config(src, echo)
    assert parse_config(echo) == src


def test_config_dict_shape(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, GOOD.format(out=tmp_path / "o")))
    tree = config_to_dict(cfg)
    assert tree["mesh"] == {"n_s": 50, "n_m": 25}
    assert tree["scheme"] == "monolithic"
    assert "time_unit" not in tree
