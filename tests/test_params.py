import pytest
from hypothesis import given, strategies as st

from stentsim import (
    PAPER_DEFAULTS,
    ParameterError,
    energy_growth_rate,
    paper_params,
    validate_params,
)
from stentsim.params import number_hint
from stentsim.stepping import sharp_dt_limit

FULL = {
    "phi": 0.61,
    "k_part": 15.0,
    "delta": 4.0e-7,
    "l": 0.028,
    "p_tilde": 4.5e4,
    "pe": 0.1044,
    "da": 0.0162,
}


def test_default_set_is_valid():
    p = validate_params(FULL)
    assert p.phi == 0.61
    assert p.k_part == 15.0
    assert p.delta == 4.0e-7
    assert p.l == 0.028
    assert p.p_tilde == 4.5e4
    assert p.pe == 0.1044
    assert p.da == 0.0162
    assert paper_params() == p


def test_defaults_only_with_explicit_flag():
    assert validate_params({}, use_paper_defaults=True) == paper_params()
    with pytest.raises(ParameterError, match="missing required parameter"):
        validate_params({})
    partial = dict(FULL)
    del partial["pe"]
    with pytest.raises(ParameterError, match="pe"):
        validate_params(partial)
    # override on top of defaults
    p = validate_params({"pe": 0.5}, use_paper_defaults=True)
    assert p.pe == 0.5 and p.phi == PAPER_DEFAULTS["phi"]


def test_phi_boundary_rejected():
    bad = dict(FULL, phi=0.0)
    with pytest.raises(ParameterError, match="phi must lie strictly between 0 and 1"):
        validate_params(bad)
    with pytest.raises(ParameterError):
        validate_params(dict(FULL, phi=1.0))


def test_negative_delta_rejected():
    with pytest.raises(ParameterError, match="delta must be positive"):
        validate_params(dict(FULL, delta=-1.0))


@pytest.mark.parametrize("name", sorted(FULL))
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_non_finite_parameter_rejected(name, value):
    with pytest.raises(ParameterError, match=f"^{name} must "):
        validate_params(dict(FULL, **{name: value}))


def test_unknown_and_nonnumeric_names_rejected():
    with pytest.raises(ParameterError, match="unknown parameter"):
        validate_params(dict(FULL, banana=1.0))
    with pytest.raises(ParameterError, match="must be a number"):
        validate_params(dict(FULL, pe="fast"))
    # float() would take both; a config refuses them for time and mesh keys
    with pytest.raises(ParameterError, match="^pe must be a number, got True"):
        validate_params(dict(FULL, pe=True))
    with pytest.raises(ParameterError, match="^da must be a number, got '0.5'"):
        validate_params(dict(FULL, da="0.5"))


@pytest.mark.parametrize("value,hint", [
    ("4.0e3", " (YAML 1.1 reads a float without a dot, or with an unsigned "
              "exponent, as a string; write 4000.0)"),
    ("1e+300", " (YAML 1.1 reads a float without a dot, or with an unsigned "
               "exponent, as a string; write 1.0e+300)"),
    ("fast", ""), ("inf", ""), ("1e999", ""), (4.0, ""), (None, ""),
])
def test_number_hint_for_floats_read_as_strings(value, hint):
    assert number_hint(value) == hint
    if isinstance(value, str):
        with pytest.raises(ParameterError) as err:
            validate_params(dict(FULL, pe=value))
        assert str(err.value) == f"pe must be a number, got {value!r}{hint}"


def test_derived_constants_default_set():
    # gamma = min(0.61, 0.39)/2 = 0.195; M = (1+da)/(2*gamma) = 1.0162/0.39
    growth = energy_growth_rate(paper_params())
    assert growth == pytest.approx(1.0162 / 0.39, rel=1e-15)
    assert growth == pytest.approx(2.605641025641026, rel=1e-12)


def test_symmetric_porosity_gamma():
    # gamma takes its largest value 1/4 at phi = 1/2, so M = 2*(1+da)
    p = validate_params(dict(FULL, phi=0.5))
    assert energy_growth_rate(p) == 2.0 * (1.0 + p.da)


def test_reference_step_count_respects_media_bound():
    # the baseline run uses 6454 steps over unit time on the N_m=25 mesh,
    # where the media term of the sharp limit binds:
    # phi*h_m^2 / (6 + 2*h_m*(delta*P + pe) + da*h_m^2)
    p = paper_params()
    h_m = 1.0 / 25
    media = p.phi * h_m ** 2 / (
        6.0 + 2.0 * h_m * (p.delta * p.p_tilde + p.pe) + p.da * h_m ** 2)
    limit = sharp_dt_limit(p, 0.028 / 50, h_m)
    assert limit == pytest.approx(media, rel=1e-15)
    assert 1.0 / 6454 < limit


@given(phi=st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_gamma_capped_at_quarter(phi):
    # gamma <= 1/4, with equality only at phi = 1/2: M >= 2*(1+da)
    p = validate_params(dict(FULL, phi=phi))
    growth = energy_growth_rate(p)
    assert growth >= 2.0 * (1.0 + p.da)
    if phi != 0.5:
        assert growth > 2.0 * (1.0 + p.da)
