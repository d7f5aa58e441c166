"""Laboratory-unit estimates for a vacuum-gap voltage-fluctuation experiment.

Models an electron accelerated across a small vacuum cavity bounded by metal
layers: a thick mirror on one side and a thin electrode stack (insulator plus
coating) on the other. Converts between laboratory units (nm, eV, volts) and
the natural units the fluctuation formulas live in, estimates the
boundary-induced energy spread, compares it against the boundary-free
(Minkowski) thermal-scale spread, and classifies how each metal layer acts
as a mirror at the frequencies that dominate the fluctuations.
"""
from __future__ import annotations

import math

from . import _EXPORTS
from .errors import _NORMAL_MIN, DomainError, check_positive_finite, record
from .units import CONSTANTS, length_to_natural, speed_from_kinetic

__all__ = list(_EXPORTS["experiment"])

# a layer thinner than this many reduced plasma wavelengths is treated as
# transparent; one much thicker reflects at its plasma frequency
_TRANSPARENT_THRESHOLD = 1.0 / 3.0
_PERFECT_THRESHOLD = 1.0


@record
class MaterialMirror:
    """A metal layer characterized by its plasma frequency and thickness.

    distance_nm is the layer's separation from the fluctuation region; None
    means the layer bounds the cavity itself, so the cavity size applies.
    """

    name: str
    plasma_frequency_eV: float
    thickness_nm: float
    distance_nm: float | None = None

    def __post_init__(self) -> None:
        check_positive_finite("plasma frequency", self.plasma_frequency_eV)
        check_positive_finite("thickness", self.thickness_nm)
        if self.distance_nm is not None:
            check_positive_finite("distance", self.distance_nm)

    def skin_depth_nm(self) -> float:
        """Penetration depth 1/omega_p expressed in nm."""
        return CONSTANTS.hbar_c_eV_nm / self.plasma_frequency_eV


@record
class ExperimentConfig:
    """One cavity geometry of the layered experiment."""

    cavity_nm: float
    insulator_nm: float
    electrode_nm: float
    mirrors: tuple[MaterialMirror, ...]
    applied_voltage_V: float

    def __post_init__(self) -> None:
        for label in ("cavity_nm", "insulator_nm", "electrode_nm", "applied_voltage_V"):
            check_positive_finite(label, getattr(self, label))
        if not self.mirrors:
            raise DomainError("at least one mirror layer is required")

    @property
    def kinetic_energy_eV(self) -> float:
        """Kinetic energy gained by a unit charge crossing the applied voltage."""
        return self.applied_voltage_V


def rms_estimate_eV(kinetic_eV: float, z0_nm: float) -> float:
    """Boundary-induced rms energy spread for an electron near one mirror.

    Delta U_rms = e v / (2 pi z0) with v = sqrt(2 K / m), all in natural
    units, reported in eV. z0 is the distance from the mirror in nm. A
    spread below the least normal double raises DomainError.
    """
    check_positive_finite("kinetic energy", kinetic_eV)
    v = speed_from_kinetic(kinetic_eV, CONSTANTS.electron_mass_eV)
    z0_nat = length_to_natural(z0_nm)
    rms = CONSTANTS.elementary_charge_natural * v / (2.0 * math.pi * z0_nat)
    if rms < _NORMAL_MIN:
        raise _underflow(rms)
    return rms


def minkowski_rms(kinetic_eV: float, a_nm: float) -> float:
    """Boundary-free rms spread over a flight distance a: e^2 K / (m^2 a^2).

    The same worldline in empty space, with only the vacuum's own light-cone
    fluctuations; serves as the baseline the mirror enhancement is measured
    against. A spread below the least normal double raises DomainError.
    """
    check_positive_finite("kinetic energy", kinetic_eV)
    a_nat = length_to_natural(a_nm)
    e = CONSTANTS.elementary_charge_natural
    m = CONSTANTS.electron_mass_eV
    rms = e * e * kinetic_eV / (m * m * a_nat * a_nat)
    if rms < _NORMAL_MIN:
        raise _underflow(rms)
    return rms


def _underflow(rms: float) -> DomainError:
    """The refusal of a lab-unit spread below the least normal double."""
    return DomainError(
        f"rms energy spread underflows: {rms!r} eV lies below the least normal double "
        f"{_NORMAL_MIN:g}; the kinetic energy and lengths put it out of range")


@record
class EnhancementRatio:
    """Mirror-to-free-space enhancement, twice over.

    formula_value is the closed-form ratio a^2 m^(3/2) / (pi e z0 sqrt(K));
    quotient_value divides the two rms estimates directly. The two must agree
    up to the exact factor sqrt(2): formula_value = sqrt(2) * quotient_value.
    """

    formula_value: float
    quotient_value: float


def enhancement_ratio(kinetic_eV: float, z0_nm: float, a_nm: float) -> EnhancementRatio:
    """How much a mirror at distance z0 beats free flight over distance a."""
    z0_nat = length_to_natural(z0_nm)
    a_nat = length_to_natural(a_nm)
    e = CONSTANTS.elementary_charge_natural
    m = CONSTANTS.electron_mass_eV
    check_positive_finite("kinetic energy", kinetic_eV)
    formula = a_nat * a_nat * m**1.5 / (math.pi * e * z0_nat * math.sqrt(kinetic_eV))
    quotient = rms_estimate_eV(kinetic_eV, z0_nm) / minkowski_rms(kinetic_eV, a_nm)
    return EnhancementRatio(formula_value=formula, quotient_value=quotient)


@record
class RegimeReport:
    """How a metal layer behaves as a mirror for the dominant fluctuations."""

    regime: str  # "perfect_mirror", "partial", or "transparent"
    omega_p_distance: float
    omega_p_thickness: float


def regime_classify(mirror: MaterialMirror, distance_nm: float) -> RegimeReport:
    """Classify a layer at a given separation from the fluctuation region.

    The fluctuations that matter have wavelengths of order the separation, so
    the layer reflects them like a perfect mirror when omega_p * distance >= 1
    (frequencies ~ 1/distance lie below the plasma frequency). Independently,
    a layer much thinner than its own penetration depth passes those modes:
    omega_p * thickness <= 1/3 marks it transparent. In between it reflects
    partially.
    """
    check_positive_finite("distance", distance_nm)
    hbar_c = CONSTANTS.hbar_c_eV_nm
    product_distance = mirror.plasma_frequency_eV * distance_nm / hbar_c
    product_thickness = mirror.plasma_frequency_eV * mirror.thickness_nm / hbar_c
    if product_thickness <= _TRANSPARENT_THRESHOLD:
        regime = "transparent"
    elif product_distance >= _PERFECT_THRESHOLD:
        regime = "perfect_mirror"
    else:
        regime = "partial"
    return RegimeReport(regime, product_distance, product_thickness)


DEFAULT_SCENARIO: dict = {
    "applied_voltage_V": 1e-4,
    "cavities_nm": [33.0, 79.0, 230.0, 1100.0],
    "insulator_nm": 2.3,
    "electrode_nm": 8.3,
    "mirrors": [
        {"name": "Al", "plasma_frequency_eV": 15.0, "thickness_nm": 150.0},
        {
            "name": "Pd",
            "plasma_frequency_eV": 7.4,
            "thickness_nm": 8.3,
            "distance_nm": 2.3,
        },
        {
            "name": "Ni",
            "plasma_frequency_eV": 9.5,
            "thickness_nm": 38.0,
            "distance_nm": 2.3,
        },
    ],
}


def _require(data: dict, key: str, kind, context: str):
    if key not in data:
        raise DomainError(f"scenario is missing required key {key!r} in {context}")
    value = data[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DomainError(
                f"scenario key {key!r} in {context} must be a number, got {value!r}"
            )
        return float(value)
    if not isinstance(value, kind):
        raise DomainError(
            f"scenario key {key!r} in {context} must be {kind.__name__}, got {value!r}"
        )
    return value


def load_scenario(data: dict) -> tuple[ExperimentConfig, ...]:
    """Validate a scenario mapping and expand it into one config per cavity.

    Schema: applied_voltage_V (number), cavities_nm (non-empty list of
    numbers), insulator_nm (number), electrode_nm (number), mirrors
    (non-empty list of {name, plasma_frequency_eV, thickness_nm,
    optional distance_nm}). Malformed input raises DomainError naming the
    offending key. Mirror names must differ: the table has one regime and
    one skin-depth column per name.
    """
    if not isinstance(data, dict):
        raise DomainError(f"scenario must be a mapping, got {type(data).__name__}")
    voltage = _require(data, "applied_voltage_V", float, "scenario")
    cavities = _require(data, "cavities_nm", list, "scenario")
    if not cavities:
        raise DomainError("scenario key 'cavities_nm' must be a non-empty list")
    insulator = _require(data, "insulator_nm", float, "scenario")
    electrode = _require(data, "electrode_nm", float, "scenario")
    raw_mirrors = _require(data, "mirrors", list, "scenario")
    if not raw_mirrors:
        raise DomainError("scenario key 'mirrors' must be a non-empty list")
    mirrors = []
    first_index: dict[str, int] = {}
    for index, entry in enumerate(raw_mirrors):
        context = f"mirrors[{index}]"
        if not isinstance(entry, dict):
            raise DomainError(f"scenario {context} must be a mapping, got {entry!r}")
        distance = None
        if "distance_nm" in entry:
            distance = _require(entry, "distance_nm", float, context)
        mirror = MaterialMirror(
            name=_require(entry, "name", str, context),
            plasma_frequency_eV=_require(entry, "plasma_frequency_eV", float, context),
            thickness_nm=_require(entry, "thickness_nm", float, context),
            distance_nm=distance,
        )
        if mirror.name in first_index:
            raise DomainError(
                f"scenario {context} repeats the mirror name {mirror.name!r} "
                f"of mirrors[{first_index[mirror.name]}]"
            )
        first_index[mirror.name] = index
        mirrors.append(mirror)
    configs = []
    for index, cavity in enumerate(cavities):
        if isinstance(cavity, bool) or not isinstance(cavity, (int, float)):
            raise DomainError(
                f"scenario cavities_nm[{index}] must be a number, got {cavity!r}"
            )
        configs.append(
            ExperimentConfig(
                cavity_nm=float(cavity),
                insulator_nm=insulator,
                electrode_nm=electrode,
                mirrors=tuple(mirrors),
                applied_voltage_V=voltage,
            )
        )
    return tuple(configs)


@record
class ModdelRow:
    """One cavity size of the layered-capacitor fluctuation table."""

    cavity_nm: float
    kinetic_energy_eV: float
    rms_energy_eV: float
    rms_over_kinetic: float
    mirror_regimes: tuple[tuple[str, str], ...]
    skin_depths_nm: tuple[tuple[str, float], ...]


def moddel_report(
    configs: tuple[ExperimentConfig, ...] | list[ExperimentConfig],
) -> tuple[ModdelRow, ...]:
    """Fluctuation estimates and mirror regimes for each cavity size.

    The rms spread uses the cavity size as the mirror distance (the particle
    crosses the whole vacuum gap, so the gap sets the dominant distance
    scale). Each mirror layer is classified at its own separation, defaulting
    to the cavity when none is fixed by the stack. Penetration depths are
    computed from the plasma frequencies, never tabulated.
    """
    rows = []
    for config in configs:
        kinetic = config.kinetic_energy_eV
        rms = rms_estimate_eV(kinetic, config.cavity_nm)
        regimes = tuple(
            (
                mirror.name,
                regime_classify(
                    mirror,
                    mirror.distance_nm if mirror.distance_nm is not None else config.cavity_nm,
                ).regime,
            )
            for mirror in config.mirrors
        )
        depths = tuple((mirror.name, mirror.skin_depth_nm()) for mirror in config.mirrors)
        rows.append(
            ModdelRow(
                cavity_nm=config.cavity_nm,
                kinetic_energy_eV=kinetic,
                rms_energy_eV=rms,
                rms_over_kinetic=rms / kinetic,
                mirror_regimes=regimes,
                skin_depths_nm=depths,
            )
        )
    return tuple(rows)
