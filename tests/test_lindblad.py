import math

import numpy as np
import pytest

from qcmachine import (
    BathSpec,
    MachineParams,
    coherence_relative_entropy,
    effective_coherence,
    generator_apply,
    generator_matrix,
    hamiltonian_correction,
    integrate,
    steady_state_analytic,
    steady_state_numeric,
    thermal_occupation,
    validate_density_matrix,
    with_param,
)
from qcmachine.linalg import SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Y, SIGMA_Z

from conftest import random_machine, random_qubit_state


def hand_expanded_generator(params, rho):
    """Term-by-term oracle: each master-equation piece written out explicitly."""
    n1 = thermal_occupation(params.bath1)
    n2 = thermal_occupation(params.bath2)
    g_minus = params.gamma * (n1 + n2 + 2.0)
    g_plus = params.gamma * (n1 + n2)
    h = params.B * SIGMA_Z
    for bath in params.baths:
        n = thermal_occupation(bath)
        amp = math.sqrt(2.0 * params.gamma) * bath.epsilon * math.sqrt(2.0 * n + 1.0)
        h = h + amp * (math.cos(bath.phi) * SIGMA_X + math.sin(bath.phi) * SIGMA_Y)
    sm, sp = SIGMA_MINUS, SIGMA_PLUS
    out = -1j * (h @ rho - rho @ h)
    out += g_minus * (2.0 * sm @ rho @ sp - sp @ sm @ rho - rho @ sp @ sm)
    out += g_plus * (2.0 * sp @ rho @ sm - sm @ sp @ rho - rho @ sm @ sp)
    return out


def thermal_qubit(n):
    return np.diag([n / (2 * n + 1), (n + 1) / (2 * n + 1)]).astype(complex)


# ---------------------------------------------------------------------------
# Hamiltonian correction
# ---------------------------------------------------------------------------

def test_correction_vanishes_without_coherence():
    p = MachineParams(B=1.0, gamma=1.0, bath1=BathSpec(T=2.0, B=1.0), bath2=BathSpec(T=3.0, B=1.5))
    np.testing.assert_array_equal(hamiltonian_correction(p), np.zeros((2, 2)))


def test_correction_single_coherence_amplitude():
    p = MachineParams(B=1.0, gamma=1.0,
                      bath1=BathSpec(T=2.5, B=0.9, epsilon=0.3, phi=0.0),
                      bath2=BathSpec(T=3.0, B=1.2))
    n1 = thermal_occupation(p.bath1)
    amp = math.sqrt(2.0) * 0.3 * math.sqrt(2.0 * n1 + 1.0)
    assert amp == pytest.approx(0.72209, abs=1e-5)
    np.testing.assert_allclose(hamiltonian_correction(p), amp * SIGMA_X, atol=1e-14)


def test_correction_phase_rotation():
    base = dict(B=1.0, gamma=1.0, bath2=BathSpec(T=3.0, B=1.2))
    p_x = MachineParams(bath1=BathSpec(T=2.5, B=0.9, epsilon=0.3, phi=0.0), **base)
    p_y = MachineParams(bath1=BathSpec(T=2.5, B=0.9, epsilon=0.3, phi=math.pi / 2), **base)
    gx = hamiltonian_correction(p_x)
    gy = hamiltonian_correction(p_y)
    np.testing.assert_allclose(gy, gx[0, 1].real * SIGMA_Y, atol=1e-12)


def test_correction_traceless_hermitian(rng):
    for _ in range(20):
        g = hamiltonian_correction(random_machine(rng))
        assert abs(np.trace(g)) < 1e-14
        np.testing.assert_allclose(g, g.conj().T, atol=1e-14)


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------

def test_generator_traceless_hermitian_output(rng):
    for _ in range(20):
        p = random_machine(rng)
        out = generator_apply(p, random_qubit_state(rng))
        assert abs(np.trace(out)) < 1e-12
        np.testing.assert_allclose(out, out.conj().T, atol=1e-12)


def test_generator_zero_at_analytic_steady_state(rng):
    for _ in range(20):
        p = random_machine(rng)
        out = generator_apply(p, steady_state_analytic(p).rho)
        assert np.max(np.abs(out)) < 1e-10


def test_generator_equilibrates_to_average_occupation(rng):
    for _ in range(20):
        p = random_machine(rng, eps1=0.0, eps2=0.0)
        n = 0.5 * (thermal_occupation(p.bath1) + thermal_occupation(p.bath2))
        out = generator_apply(p, thermal_qubit(n))
        assert np.max(np.abs(out)) < 1e-13


def test_generator_excited_state_decay_vs_hand_expansion(rng):
    p = random_machine(rng, eps1=0.0, eps2=0.0)
    excited = np.diag([1.0, 0.0]).astype(complex)
    out = generator_apply(p, excited)
    np.testing.assert_allclose(out, hand_expanded_generator(p, excited), atol=1e-14)
    n1 = thermal_occupation(p.bath1)
    n2 = thermal_occupation(p.bath2)
    assert out[0, 0].real == pytest.approx(-2.0 * p.gamma * (n1 + n2 + 2.0), rel=1e-13)


def test_generator_matches_hand_expansion_random(rng):
    for _ in range(20):
        p = random_machine(rng)
        rho = random_qubit_state(rng)
        np.testing.assert_allclose(generator_apply(p, rho), hand_expanded_generator(p, rho), atol=1e-13)


def test_generator_matrix_consistent(rng):
    p = random_machine(rng)
    mat = generator_matrix(p)
    rho = random_qubit_state(rng)
    np.testing.assert_allclose((mat @ rho.reshape(4)).reshape(2, 2), generator_apply(p, rho), atol=1e-13)


# ---------------------------------------------------------------------------
# steady states
# ---------------------------------------------------------------------------

def test_steady_state_thermal_without_coherence(rng):
    for _ in range(10):
        p = random_machine(rng, eps1=0.0, eps2=0.0)
        n = 0.5 * (thermal_occupation(p.bath1) + thermal_occupation(p.bath2))
        for ss in (steady_state_analytic(p), steady_state_numeric(p)):
            np.testing.assert_allclose(ss.rho, thermal_qubit(n), atol=1e-12)
            assert coherence_relative_entropy(ss.rho) < 1e-12


def test_steady_state_strong_driving_saturation(cold_coherence_params):
    p = with_param(cold_coherence_params, "bath1.epsilon", 1e6)
    rho = steady_state_analytic(p).rho
    assert rho[0, 0].real == pytest.approx(0.5, abs=1e-9)


def test_steady_state_analytic_vs_numeric_reference_point(cold_coherence_params):
    a = steady_state_analytic(cold_coherence_params)
    n = steady_state_numeric(cold_coherence_params)
    assert a.method == "analytic" and n.method == "numeric"
    assert np.max(np.abs(a.rho - n.rho)) < 1e-10


def test_steady_state_random_sweep(rng):
    worst = 0.0
    for _ in range(100):
        p = random_machine(rng)
        dev = np.max(np.abs(steady_state_analytic(p).rho - steady_state_numeric(p).rho))
        worst = max(worst, float(dev))
    assert worst < 1e-10


def test_steady_state_is_valid_density_matrix(rng):
    for _ in range(20):
        p = random_machine(rng)
        validate_density_matrix(steady_state_analytic(p).rho)
        validate_density_matrix(steady_state_numeric(p).rho)


def test_steady_state_depends_only_on_effective_coherence(rng):
    # same effective coherence from different per-bath splittings (fixed occupations)
    t1, b1, t2, b2 = 2.5, 0.9, 3.0, 1.2
    n1 = thermal_occupation(BathSpec(T=t1, B=b1))
    n2 = thermal_occupation(BathSpec(T=t2, B=b2))
    z_target = 0.25 * np.exp(0.4j)
    # all coherence in bath 1
    e1 = abs(z_target) / math.sqrt(1 + 2 * n1)
    pa = MachineParams(B=1.0, gamma=1.0,
                       bath1=BathSpec(T=t1, B=b1, epsilon=e1, phi=0.4),
                       bath2=BathSpec(T=t2, B=b2))
    # all coherence in bath 2
    e2 = abs(z_target) / math.sqrt(1 + 2 * n2)
    pb = MachineParams(B=1.0, gamma=1.0,
                       bath1=BathSpec(T=t1, B=b1),
                       bath2=BathSpec(T=t2, B=b2, epsilon=e2, phi=0.4))
    ca, cb = effective_coherence(pa), effective_coherence(pb)
    assert ca.eps_eff == pytest.approx(cb.eps_eff, rel=1e-12)
    assert ca.phi == pytest.approx(cb.phi, abs=1e-12)
    np.testing.assert_allclose(steady_state_analytic(pa).rho, steady_state_analytic(pb).rho, atol=1e-13)


def test_effective_coherence_invariant(rng):
    for _ in range(20):
        p = random_machine(rng)
        eff = effective_coherence(p)
        n1 = thermal_occupation(p.bath1)
        n2 = thermal_occupation(p.bath2)
        z = (p.bath1.epsilon * np.exp(1j * p.bath1.phi) * math.sqrt(1 + 2 * n1)
             + p.bath2.epsilon * np.exp(1j * p.bath2.phi) * math.sqrt(1 + 2 * n2)) \
            / (math.sqrt(2.0) * math.sqrt(1 + n1 + n2))
        assert abs(eff.eps_eff * np.exp(1j * eff.phi) - z) < 1e-12
        assert eff.gamma_eff == 2.0 * p.gamma
        assert eff.n_avg == pytest.approx(0.5 * (n1 + n2), rel=1e-14)


def test_degenerate_kernel_guard_not_triggered(rng):
    # gamma > 0 keeps the kernel one-dimensional across the tested domain
    for _ in range(20):
        steady_state_numeric(random_machine(rng))


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_integrate_zero_time(cold_coherence_params, rng):
    rho0 = random_qubit_state(rng)
    np.testing.assert_array_equal(integrate(cold_coherence_params, rho0, 0.0), rho0)


def test_integrate_reaches_steady_state(cold_coherence_params, rng):
    rho0 = random_qubit_state(rng)
    rho_t = integrate(cold_coherence_params, rho0, t_final=12.0)
    np.testing.assert_allclose(rho_t, steady_state_analytic(cold_coherence_params).rho, atol=1e-8)


def test_integrate_preserves_trace(cold_coherence_params, rng):
    rho_t = integrate(cold_coherence_params, random_qubit_state(rng), t_final=5.0)
    assert abs(np.trace(rho_t) - 1.0) < 1e-9


def rk4_reference(params, rho0, t_final):
    """Classical RK4 on the term-by-term generator with steps of 0.002/gamma_eff."""
    n_steps = int(math.ceil(t_final * 2.0 * params.gamma / 0.002))
    h = t_final / n_steps
    rho = np.asarray(rho0, dtype=complex)
    for _ in range(n_steps):
        k1 = hand_expanded_generator(params, rho)
        k2 = hand_expanded_generator(params, rho + 0.5 * h * k1)
        k3 = hand_expanded_generator(params, rho + 0.5 * h * k2)
        k4 = hand_expanded_generator(params, rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


def test_integrate_matches_fine_step_rk4(cold_coherence_params, rng):
    for p in (cold_coherence_params, random_machine(rng)):
        rho0 = random_qubit_state(rng)
        dev = np.max(np.abs(integrate(p, rho0, 0.5) - rk4_reference(p, rho0, 0.5)))
        assert dev < 1e-10


def test_integrate_rejects_negative_or_non_finite_time(cold_coherence_params, rng):
    for t in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="t_final"):
            integrate(cold_coherence_params, random_qubit_state(rng), t)
