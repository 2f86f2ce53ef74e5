"""Model parameters and the energy growth rate they imply.

All quantities are nondimensional.  The stent coating occupies (-l, 0) and
the tissue (media) occupies (0, 1).  ``time_unit`` (seconds of physical
time per unit of nondimensional t) is deliberately not part of the model:
it lives in the run configuration, and only ``plot`` reads it, to put
time in hours.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import ParameterError

# Default nondimensional parameter set for a drug-eluting stent against
# arterial media (porosity phi, partition coefficient K, coating
# diffusivity delta, coating thickness l, interface permeability P,
# Peclet and Damkohler numbers).
PAPER_DEFAULTS: dict[str, float] = {
    "phi": 0.61,
    "k_part": 15.0,
    "delta": 4.0e-7,
    "l": 0.028,
    "p_tilde": 4.5e4,
    "pe": 0.1044,
    "da": 0.0162,
}

_PARAM_NAMES = ("delta", "p_tilde", "pe", "da", "k_part", "phi", "l")


@dataclass(frozen=True)
class ModelParams:
    """The seven nondimensional constants of the release model.

    delta    -- stent-coating diffusivity
    p_tilde  -- interface permeability (Kedem-Katchalsky coefficient)
    pe       -- Peclet number of the transmural advection
    da       -- Damkohler number of the cell-uptake reaction
    k_part   -- partition coefficient (uptake equilibrium c2/c1)
    phi      -- media porosity, strictly inside (0, 1)
    l        -- coating thickness, so the stent domain is (-l, 0)
    """

    delta: float
    p_tilde: float
    pe: float
    da: float
    k_part: float
    phi: float
    l: float

    def __post_init__(self):
        for name in ("delta", "p_tilde", "pe", "da", "k_part", "l"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ParameterError(
                    f"{name} must be positive and finite, got {value}")
        if not 0.0 < self.phi < 1.0:
            raise ParameterError(
                f"phi must lie strictly between 0 and 1, got {self.phi}"
            )


def number_hint(value) -> str:
    """A hint to append to a "not a number" refusal of ``value``: empty
    unless it is a string that float() reads as a finite number.  YAML 1.1
    reads a float as a number only with a dot and, if it has an exponent,
    a signed one, so an unquoted 4.0e3 or 1e-3 arrives as a string."""
    if not isinstance(value, str):
        return ""
    try:
        number = float(value)
    except ValueError:
        return ""
    if not math.isfinite(number):
        return ""
    mantissa, e, exponent = repr(number).partition("e")
    if "." not in mantissa:
        mantissa += ".0"
    return (f" (YAML 1.1 reads a float without a dot, or with an unsigned "
            f"exponent, as a string; write {mantissa}{e}{exponent})")


def validate_params(raw: dict, use_paper_defaults: bool = False) -> ModelParams:
    """Build a validated ModelParams from a name->value mapping.

    Every one of the seven parameters must be present unless
    ``use_paper_defaults`` is set, in which case missing names fall back to
    the shipped default set.  Unknown names are rejected.
    """
    unknown = sorted(set(raw) - set(_PARAM_NAMES))
    if unknown:
        raise ParameterError(f"unknown parameter name(s): {', '.join(unknown)}")
    values = {}
    for name in _PARAM_NAMES:
        if name in raw:
            value = raw[name]
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ParameterError(f"{name} must be a number, got "
                                     f"{value!r}{number_hint(value)}")
            values[name] = float(value)
        elif use_paper_defaults:
            values[name] = PAPER_DEFAULTS[name]
        else:
            raise ParameterError(f"{name}: missing required parameter")
    return ModelParams(**values)


def paper_params() -> ModelParams:
    """The shipped default parameter set as a ModelParams."""
    return validate_params({}, use_paper_defaults=True)


def energy_growth_rate(p: ModelParams) -> float:
    """Gronwall rate M = (1+da)/(2*gamma) of the energy bound
    E(t) <= E(0)*exp(2*M*t), with the energy weight
    gamma = min(phi, 1-phi)/2 <= 1/4 (the stable step is
    ``stepping.sharp_dt_limit``)."""
    return (1.0 + p.da) / min(p.phi, 1.0 - p.phi)
