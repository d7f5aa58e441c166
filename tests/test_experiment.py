"""Laboratory-unit experiment estimates."""
import math

import pytest

from casvolt import (
    DEFAULT_SCENARIO,
    DomainError,
    ExperimentConfig,
    MaterialMirror,
    enhancement_ratio,
    load_scenario,
    minkowski_rms,
    moddel_report,
    regime_classify,
    rms_estimate_eV,
)


def test_rms_estimate_golden():
    # 1 eV electron at 100 nm from a mirror: spread ~ 1.9e-4 eV
    assert rms_estimate_eV(1.0, 100.0) == pytest.approx(1.88147820861e-4, rel=1e-11, abs=0.0)


def test_rms_relative_spread_goldens():
    # 0.1 mV acceleration in a 33 nm cavity: ~6% relative spread
    low = rms_estimate_eV(1e-4, 33.0) / 1e-4
    assert low == pytest.approx(0.05701449117, rel=1e-9, abs=0.0)
    # 0.2 V acceleration: relative spread drops with 1/sqrt(K)
    high = rms_estimate_eV(0.2, 33.0) / 0.2
    assert high == pytest.approx(0.00127488277959, rel=1e-9, abs=0.0)


def test_rms_estimate_scaling():
    # rms ~ sqrt(K) / z0
    base = rms_estimate_eV(1.0, 100.0)
    assert rms_estimate_eV(4.0, 100.0) == pytest.approx(2.0 * base, rel=1e-12, abs=0.0)
    assert rms_estimate_eV(1.0, 200.0) == pytest.approx(0.5 * base, rel=1e-12, abs=0.0)
    with pytest.raises(DomainError):
        rms_estimate_eV(0.0, 100.0)


def test_minkowski_rms_golden():
    assert minkowski_rms(1.0, 1.0) == pytest.approx(1.36743949309e-8, rel=1e-11, abs=0.0)
    with pytest.raises(DomainError):
        minkowski_rms(-1.0, 1.0)


def test_enhancement_ratio_goldens():
    ratio = enhancement_ratio(1.0, 100.0, 1.0)
    assert ratio.formula_value == pytest.approx(19458.3527342, rel=1e-11, abs=0.0)
    assert ratio.quotient_value == pytest.approx(13759.1331691, rel=1e-11, abs=0.0)
    # the closed-form ratio is exactly sqrt(2) times the direct quotient
    assert ratio.formula_value / ratio.quotient_value == pytest.approx(
        math.sqrt(2.0), rel=1e-14, abs=0.0
    )


def test_mirror_validation():
    with pytest.raises(DomainError):
        MaterialMirror("X", plasma_frequency_eV=0.0, thickness_nm=10.0)
    with pytest.raises(DomainError):
        MaterialMirror("X", plasma_frequency_eV=1.0, thickness_nm=-1.0)
    with pytest.raises(DomainError):
        MaterialMirror("X", plasma_frequency_eV=1.0, thickness_nm=1.0, distance_nm=0.0)


def test_skin_depth_computed_from_plasma_frequency():
    al = MaterialMirror("Al", 15.0, 150.0)
    assert al.skin_depth_nm() == pytest.approx(197.3269804 / 15.0, rel=1e-14, abs=0.0)


def test_regime_classification():
    al = MaterialMirror("Al", 15.0, 150.0)
    pd = MaterialMirror("Pd", 7.4, 8.3, 2.3)
    ni = MaterialMirror("Ni", 9.5, 38.0, 2.3)
    # thick aluminum across a 33 nm cavity reflects ~all relevant modes
    assert regime_classify(al, 33.0).regime == "perfect_mirror"
    # a palladium film much thinner than its penetration depth passes them
    assert regime_classify(pd, 2.3).regime == "transparent"
    # nickel is thick enough to matter but too close to reflect fully
    assert regime_classify(ni, 2.3).regime == "partial"


def test_regime_products_and_thresholds():
    ni = MaterialMirror("Ni", 9.5, 38.0, 2.3)
    report = regime_classify(ni, 2.3)
    assert report.omega_p_thickness == pytest.approx(9.5 * 38.0 / 197.3269804, rel=1e-12, abs=0.0)
    assert report.omega_p_distance == pytest.approx(9.5 * 2.3 / 197.3269804, rel=1e-12, abs=0.0)
    with pytest.raises(DomainError):
        regime_classify(ni, 0.0)


def test_load_scenario_default():
    configs = load_scenario(DEFAULT_SCENARIO)
    assert len(configs) == 4
    assert [c.cavity_nm for c in configs] == [33.0, 79.0, 230.0, 1100.0]
    assert configs[0].kinetic_energy_eV == pytest.approx(1e-4)
    assert {m.name for m in configs[0].mirrors} == {"Al", "Pd", "Ni"}


def test_load_scenario_rejects_malformed():
    with pytest.raises(DomainError, match="cavities_nm"):
        load_scenario({"applied_voltage_V": 1e-4})
    bad_type = dict(DEFAULT_SCENARIO)
    bad_type["applied_voltage_V"] = "high"
    with pytest.raises(DomainError, match="applied_voltage_V"):
        load_scenario(bad_type)
    empty = dict(DEFAULT_SCENARIO)
    empty["cavities_nm"] = []
    with pytest.raises(DomainError, match="cavities_nm"):
        load_scenario(empty)
    boolean = dict(DEFAULT_SCENARIO)
    boolean["insulator_nm"] = True
    with pytest.raises(DomainError, match="insulator_nm"):
        load_scenario(boolean)
    with pytest.raises(DomainError):
        load_scenario([1, 2, 3])


def test_experiment_config_validation():
    with pytest.raises(DomainError):
        ExperimentConfig(
            cavity_nm=-1.0,
            insulator_nm=2.3,
            electrode_nm=8.3,
            mirrors=(MaterialMirror("Al", 15.0, 150.0),),
            applied_voltage_V=1e-4,
        )
    with pytest.raises(DomainError):
        ExperimentConfig(
            cavity_nm=33.0,
            insulator_nm=2.3,
            electrode_nm=8.3,
            mirrors=(),
            applied_voltage_V=1e-4,
        )


def test_moddel_report_rows():
    rows = moddel_report(load_scenario(DEFAULT_SCENARIO))
    assert len(rows) == 4
    first = rows[0]
    assert first.cavity_nm == 33.0
    assert first.rms_over_kinetic == pytest.approx(0.05701449117, rel=1e-9, abs=0.0)
    assert dict(first.mirror_regimes) == {
        "Al": "perfect_mirror",
        "Pd": "transparent",
        "Ni": "partial",
    }
    assert dict(first.skin_depths_nm)["Al"] == pytest.approx(13.1551320267, rel=1e-10, abs=0.0)
    # relative spread falls monotonically as the cavity grows
    spreads = [row.rms_over_kinetic for row in rows]
    assert all(x > y for x, y in zip(spreads, spreads[1:]))


def test_moddel_report_voltage_scaling():
    scenario = dict(DEFAULT_SCENARIO)
    scenario["applied_voltage_V"] = 0.2
    rows = moddel_report(load_scenario(scenario))
    assert rows[0].rms_over_kinetic == pytest.approx(0.00127488277959, rel=1e-9, abs=0.0)
