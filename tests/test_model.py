import math

import numpy as np
import pytest

from qcmachine import (
    BathSpec,
    ConfigError,
    MachineParams,
    ancilla_state,
    coherence_relative_entropy,
    coupling_strength,
    dissipation_rates,
    max_coherence_tau,
    params_from_config,
    params_to_config,
    thermal_occupation,
)
from qcmachine.model import get_param, params_from_mapping, with_param


# ---------------------------------------------------------------------------
# occupations, rates, couplings
# ---------------------------------------------------------------------------

def test_occupation_cold_bath_value():
    # independent scalar evaluation of 1/(exp(2*0.9/2.5) - 1)
    expected = 1.0 / (math.exp(0.72) - 1.0)
    assert abs(expected - 0.9483768055724952) < 1e-15
    assert abs(thermal_occupation(BathSpec(T=2.5, B=0.9)) - expected) < 1e-14


def test_occupation_hot_bath_value():
    expected = 1.0 / (math.exp(2.0 * 1.2 / 3.0) - 1.0)
    assert abs(expected - 0.8159662209160943) < 1e-15
    assert abs(thermal_occupation(BathSpec(T=3.0, B=1.2)) - expected) < 1e-14


def test_occupation_zero_temperature_limit():
    assert thermal_occupation(BathSpec(T=1e-3, B=1.0)) < 1e-300


def test_occupation_monotonic(rng):
    for _ in range(50):
        t = rng.uniform(0.5, 5.0)
        b = rng.uniform(0.5, 2.0)
        assert thermal_occupation(BathSpec(T=t * 1.01, B=b)) > thermal_occupation(BathSpec(T=t, B=b))
        assert thermal_occupation(BathSpec(T=t, B=b * 1.01)) < thermal_occupation(BathSpec(T=t, B=b))


def test_detailed_balance_identity(rng):
    for _ in range(100):
        bath = BathSpec(T=rng.uniform(0.5, 5.0), B=rng.uniform(0.1, 3.0))
        n = thermal_occupation(bath)
        assert abs(n / (n + 1.0) - math.exp(-2.0 * bath.B / bath.T)) < 1e-12


def test_rates_zero_temperature():
    gp, gm = dissipation_rates(BathSpec(T=1e-4, B=1.0), gamma=0.7)
    assert gp == pytest.approx(0.0, abs=1e-300)
    assert gm == pytest.approx(2 * 0.7)


def test_rates_hot_bath_value():
    n = thermal_occupation(BathSpec(T=3.0, B=1.2))
    gp, gm = dissipation_rates(BathSpec(T=3.0, B=1.2), gamma=1.0)
    assert gp == pytest.approx(2 * n, rel=1e-14)
    assert gm == pytest.approx(2 * (n + 1), rel=1e-14)


def test_rates_detailed_balance_ratio(rng):
    for _ in range(50):
        bath = BathSpec(T=rng.uniform(0.5, 5.0), B=rng.uniform(0.1, 3.0))
        gp, gm = dissipation_rates(bath, gamma=rng.uniform(0.1, 3.0))
        assert abs(gp / gm - math.exp(-2.0 * bath.B / bath.T)) < 1e-12


def test_coupling_zero_occupation():
    assert coupling_strength(BathSpec(T=1e-4, B=1.0), gamma=1.0) == pytest.approx(math.sqrt(2.0))


def test_coupling_cold_bath_value():
    n = thermal_occupation(BathSpec(T=2.5, B=0.9))
    g = coupling_strength(BathSpec(T=2.5, B=0.9), gamma=1.0)
    assert g == pytest.approx(math.sqrt(2.0 * (2.0 * n + 1.0)), rel=1e-14)
    assert g == pytest.approx(2.40697, abs=1e-5)


def test_coupling_monotone_in_temperature():
    values = [coupling_strength(BathSpec(T=t, B=1.0), gamma=1.0) for t in np.linspace(0.5, 5.0, 20)]
    assert all(b > a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# ancilla state
# ---------------------------------------------------------------------------

def test_ancilla_state_thermal_limit():
    bath = BathSpec(T=2.0, B=0.8, epsilon=0.0)
    rho = ancilla_state(bath, tau=0.01)
    beta_b = 0.8 / 2.0
    z = 2.0 * math.cosh(beta_b)
    np.testing.assert_allclose(rho, np.diag([math.exp(-beta_b) / z, math.exp(beta_b) / z]), atol=1e-14)
    assert coherence_relative_entropy(rho) == 0.0


def test_ancilla_state_coherent_entries():
    bath = BathSpec(T=2.5, B=0.9, epsilon=0.3, phi=0.0)
    rho = ancilla_state(bath, tau=0.01)
    assert rho[0, 1] == pytest.approx(0.03)
    assert rho[1, 0] == pytest.approx(0.03)
    n = thermal_occupation(bath)
    assert rho[0, 0].real == pytest.approx(n / (2 * n + 1), rel=1e-14)


def test_ancilla_state_infinite_temperature_limit():
    bath = BathSpec(T=1e9, B=1.0, epsilon=0.2, phi=0.5)
    rho = ancilla_state(bath, tau=0.01)
    assert rho[0, 0].real == pytest.approx(0.5, abs=1e-8)
    assert abs(rho[0, 1]) == pytest.approx(math.sqrt(0.01) * 0.2, rel=1e-12)


def test_ancilla_state_phase_convention():
    bath = BathSpec(T=2.0, B=1.0, epsilon=0.4, phi=math.pi / 2)
    rho = ancilla_state(bath, tau=0.01)
    # chi = sin(phi) sigma_y at phi = pi/2: upper entry -i * sqrt(tau) eps
    assert rho[0, 1] == pytest.approx(-0.04j)


def test_ancilla_state_positivity_guard():
    bath = BathSpec(T=1.0, B=2.0, epsilon=1.0)
    tau_max = max_coherence_tau(bath)
    with pytest.raises(ConfigError, match="maximal admissible tau"):
        ancilla_state(bath, tau=tau_max * 1.01)
    rho = ancilla_state(bath, tau=tau_max * 0.99)
    assert np.min(np.linalg.eigvalsh(rho)) >= 0.0


def test_ancilla_state_eigenvalues_nonnegative(rng):
    for _ in range(50):
        bath = BathSpec(T=rng.uniform(0.5, 5.0), B=rng.uniform(0.5, 2.0),
                        epsilon=rng.uniform(0.0, 1.0), phi=rng.uniform(0.0, 2 * math.pi))
        tau = min(0.01, 0.9 * max_coherence_tau(bath))
        assert np.min(np.linalg.eigvalsh(ancilla_state(bath, tau))) >= -1e-15


def test_ancilla_state_requires_positive_tau():
    with pytest.raises(ValueError, match="tau"):
        ancilla_state(BathSpec(T=1.0, B=1.0), tau=0.0)


# ---------------------------------------------------------------------------
# validation and serialization
# ---------------------------------------------------------------------------

def test_bath_validation_collects_all():
    with pytest.raises(ConfigError) as err:
        BathSpec(T=-1.0, B=0.0, epsilon=-0.5)
    msg = str(err.value)
    assert "T must be" in msg and "B must be" in msg and "epsilon must be" in msg


def test_machine_validation_collects_all():
    bath = BathSpec(T=1.0, B=1.0)
    with pytest.raises(ConfigError) as err:
        MachineParams(B=0.0, gamma=-1.0, bath1=bath, bath2=bath)
    msg = str(err.value)
    assert "B must be" in msg and "gamma must be" in msg


def test_phi_normalized_mod_2pi():
    bath = BathSpec(T=1.0, B=1.0, epsilon=0.1, phi=2.0 * math.pi + 0.3)
    assert bath.phi == pytest.approx(0.3)


def test_config_roundtrip(cold_coherence_params):
    text = params_to_config(cold_coherence_params)
    back = params_from_config(text)
    assert back == cold_coherence_params


def test_config_parse_reports_all_problems():
    bad = "B = 1.0\nwhat\nbath1.T = oops\n"
    with pytest.raises(ConfigError) as err:
        params_from_config(bad)
    msg = str(err.value)
    assert "line 2" in msg and "line 3" in msg


def test_config_missing_and_unknown_keys():
    with pytest.raises(ConfigError) as err:
        params_from_mapping({"B": 1.0, "nope": 2.0})
    msg = str(err.value)
    assert "unknown key 'nope'" in msg and "missing required key" in msg


def test_config_comments_and_defaults():
    text = """
    # minimal machine
    B = 1.0
    gamma = 1.0   # shared rate
    bath1.T = 2.5
    bath1.B = 0.9
    bath2.T = 3.0
    bath2.B = 1.2
    """
    params = params_from_config(text)
    assert params.bath1.epsilon == 0.0
    assert params.bath2.phi == 0.0


def test_get_and_with_param(cold_coherence_params):
    assert get_param(cold_coherence_params, "bath1.epsilon") == 0.3
    updated = with_param(cold_coherence_params, "bath1.epsilon", 0.7)
    assert updated.bath1.epsilon == 0.7
    assert cold_coherence_params.bath1.epsilon == 0.3
    with pytest.raises(ConfigError, match="unknown parameter key"):
        get_param(cold_coherence_params, "bath3.T")


def test_array_fields_validated_elementwise():
    with pytest.raises(ConfigError, match="T must be finite and > 0, got -1.0"):
        BathSpec(T=np.array([1.0, -1.0, 2.0]), B=1.0)
    with pytest.raises(ConfigError, match="thermal occupation"):
        BathSpec(T=2.5, B=np.array([0.9, 1e-320]))
    bath = BathSpec(T=2.5, B=1.0)
    with pytest.raises(ConfigError, match="gamma must be finite and > 0, got 0.0"):
        MachineParams(B=1.0, gamma=np.linspace(0.0, 2.0, 5), bath1=bath, bath2=bath)
    with pytest.raises(ConfigError, match="phi must be finite"):
        BathSpec(T=2.5, B=1.0, phi=np.array([0.0, np.inf]))


def test_array_closed_forms_match_scalar_calls(cold_coherence_params):
    fields = np.linspace(0.5, 2.0, 7)
    grid = with_param(cold_coherence_params, "bath1.B", fields)
    assert isinstance(thermal_occupation(grid.bath1), np.ndarray)
    assert isinstance(thermal_occupation(cold_coherence_params.bath1), float)
    assert isinstance(coupling_strength(cold_coherence_params.bath1, 1.0), float)
    for k, b1 in enumerate(fields):
        point = with_param(cold_coherence_params, "bath1.B", b1)
        assert thermal_occupation(grid.bath1)[k] == thermal_occupation(point.bath1)
        assert coupling_strength(grid.bath1, grid.gamma)[k] == coupling_strength(point.bath1, point.gamma)
    assert with_param(cold_coherence_params, "bath1.phi", np.array([2.0 * math.pi + 0.3]))\
        .bath1.phi[0] == pytest.approx(0.3)
