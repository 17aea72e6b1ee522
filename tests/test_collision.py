import math

import numpy as np
import pytest

from qcmachine import (
    NumericalError,
    ancilla_state,
    coherence_relative_entropy,
    collide,
    common_factor_V,
    convergence_to_steady_state,
    discrete_fixed_point,
    env_mutual_information,
    heat_currents,
    joint_hamiltonian,
    joint_hamiltonian_from_couplings,
    rate_extrapolate,
    relative_entropy,
    run,
    steady_state_analytic,
    thermal_occupation,
    validate_density_matrix,
    von_neumann_entropy,
    with_param,
    write_trajectory_csv,
)
from qcmachine.collision import DEFAULT_TAU_LADDER
from qcmachine.model import coupling_strength

from conftest import random_density_matrix, random_machine, random_qubit_state


def thermal_qubit(n):
    return np.diag([n / (2 * n + 1), (n + 1) / (2 * n + 1)]).astype(complex)


def kron3_oracle(a, b, c):
    return np.kron(np.kron(a, b), c)


# ---------------------------------------------------------------------------
# joint Hamiltonian
# ---------------------------------------------------------------------------

def test_joint_hamiltonian_zero_coupling_is_diagonal():
    h = joint_hamiltonian_from_couplings(1.0, 0.9, 1.2, 0.0, 0.0, tau=0.01)
    np.testing.assert_allclose(h, np.diag(np.diag(h)), atol=1e-15)
    # Zeeman sums: first diagonal entry is B + B1 + B2
    assert h[0, 0].real == pytest.approx(1.0 + 0.9 + 1.2)
    assert h[-1, -1].real == pytest.approx(-(1.0 + 0.9 + 1.2))


def test_joint_hamiltonian_vs_kron_oracle(cold_coherence_params):
    tau = 0.01
    sz = np.diag([1.0, -1.0]).astype(complex)
    sp = np.array([[0, 1], [0, 0]], dtype=complex)
    sm = sp.conj().T
    eye = np.eye(2, dtype=complex)
    g1 = coupling_strength(cold_coherence_params.bath1, cold_coherence_params.gamma)
    g2 = coupling_strength(cold_coherence_params.bath2, cold_coherence_params.gamma)
    expected = 1.0 * kron3_oracle(sz, eye, eye) + 0.9 * kron3_oracle(eye, sz, eye) + 1.2 * kron3_oracle(eye, eye, sz)
    expected += (g1 / math.sqrt(tau)) * (kron3_oracle(sp, sm, eye) + kron3_oracle(sm, sp, eye))
    expected += (g2 / math.sqrt(tau)) * (kron3_oracle(sp, eye, sm) + kron3_oracle(sm, eye, sp))
    np.testing.assert_allclose(joint_hamiltonian(cold_coherence_params, tau), expected, atol=1e-12)


def test_interaction_violates_local_energy_conservation(cold_coherence_params):
    # off resonance (B != B_i) the coupling does not commute with the bare Hamiltonians
    tau = 0.01
    h = joint_hamiltonian(cold_coherence_params, tau)
    h0 = joint_hamiltonian_from_couplings(cold_coherence_params.B, 0.9, 1.2, 0.0, 0.0, tau)
    h_int = h - h0
    comm = h_int @ h0 - h0 @ h_int
    assert np.max(np.abs(comm)) > 1.0
    # on resonance it does commute
    hr = joint_hamiltonian_from_couplings(1.0, 1.0, 1.0, 1.3, 0.7, tau)
    hr0 = joint_hamiltonian_from_couplings(1.0, 1.0, 1.0, 0.0, 0.0, tau)
    hri = hr - hr0
    np.testing.assert_allclose(hri @ hr0 - hr0 @ hri, np.zeros((8, 8)), atol=1e-12)


# ---------------------------------------------------------------------------
# single collisions
# ---------------------------------------------------------------------------

def test_collide_preserves_state_validity(cold_coherence_params, rng):
    rho = random_qubit_state(rng)
    for tau in (0.1, 0.01):
        rho_next, ledger = collide(rho, cold_coherence_params, tau)
        validate_density_matrix(rho_next)
        validate_density_matrix(ledger.anc1_post)
        validate_density_matrix(ledger.env_post)


def test_collide_first_law_identity(cold_coherence_params, rng):
    for _ in range(10):
        rho = random_qubit_state(rng)
        _, ledger = collide(rho, cold_coherence_params, 0.05)
        assert ledger.d_e_sys == pytest.approx(ledger.work + ledger.heat1 + ledger.heat2, abs=1e-12)


def test_collide_thermal_fixed_point_deviation_order(rng):
    # without coherence the average-occupation thermal state moves at most at O(tau^2)
    p = random_machine(rng, eps1=0.0, eps2=0.0)
    n = 0.5 * (thermal_occupation(p.bath1) + thermal_occupation(p.bath2))
    rho = thermal_qubit(n)
    devs = []
    for tau in (0.02, 0.01, 0.005):
        rho_next, _ = collide(rho, p, tau)
        devs.append(np.max(np.abs(rho_next - rho)))
    assert devs[0] < 1e-5
    assert devs[0] / devs[1] > 3.5  # halving tau shrinks the defect at least quadratically
    assert devs[1] / devs[2] > 3.5


def test_collide_heat_rate_near_closed_form(cold_coherence_params):
    rho_ss = steady_state_analytic(cold_coherence_params).rho
    q1_closed = sum(heat_currents(cold_coherence_params, rho_ss)[0])
    taus = (4e-3, 1e-3, 2.5e-4)
    errors = []
    for tau in taus:
        _, ledger = collide(rho_ss, cold_coherence_params, tau)
        errors.append(abs(ledger.heat1 / tau - q1_closed))
    # rate residual decays at least as fast as sqrt(tau) (measured: ~tau)
    assert errors[0] / errors[1] > 1.8
    assert errors[1] / errors[2] > 1.8
    assert errors[0] < 0.5 * math.sqrt(taus[0])
    assert errors[2] < 1e-4


def test_zero_coupling_collision_is_identity(rng):
    # zero coupling (possible only through the explicit-couplings builder): only
    # local Zeeman precession remains, so diagonal states and all bare energies freeze
    from qcmachine.linalg import hermitian_propagator, partial_trace, tensor_product

    tau = 0.05
    h = joint_hamiltonian_from_couplings(1.0, 0.9, 1.2, 0.0, 0.0, tau)
    u = hermitian_propagator(h, tau)
    pops = rng.uniform(0.1, 0.9)
    rho = np.diag([pops, 1.0 - pops]).astype(complex)
    anc1 = thermal_qubit(0.7)
    anc2 = thermal_qubit(0.9)
    joint = tensor_product(tensor_product(rho, anc1), anc2)
    joint_post = u @ joint @ u.conj().T
    np.testing.assert_allclose(partial_trace(joint_post, (2, 2, 2), (0,)), rho, atol=1e-14)
    # a coherent system state still precesses, but every ledger energy stays zero
    rho_c = random_qubit_state(rng)
    joint_c = tensor_product(tensor_product(rho_c, anc1), anc2)
    joint_c_post = u @ joint_c @ u.conj().T
    delta = joint_c_post - joint_c
    sz = np.diag([1.0, -1.0]).astype(complex)
    eye = np.eye(2, dtype=complex)
    for h_bare in (
        1.0 * kron3_oracle(sz, eye, eye),
        0.9 * kron3_oracle(eye, sz, eye),
        1.2 * kron3_oracle(eye, eye, sz),
    ):
        assert np.trace(h_bare @ delta).real == pytest.approx(0.0, abs=1e-14)


# ---------------------------------------------------------------------------
# repeated collisions
# ---------------------------------------------------------------------------

def test_run_equilibrium_currents_vanish(rng):
    p = random_machine(rng, eps1=0.0, eps2=0.0)
    p = with_param(with_param(p, "bath1.T", 2.5), "bath2.T", 2.5)
    p = with_param(with_param(p, "bath1.B", 1.0), "bath2.B", 1.0)
    n = thermal_occupation(p.bath1)
    tau = 0.01
    traj = run(thermal_qubit(n), p, tau, 200)
    # cumulative heat stays at the O(tau) noise floor: rates vanish
    assert abs(traj.heat1[-1]) / (200 * tau) < 1e-4
    assert abs(traj.heat2[-1]) / (200 * tau) < 1e-4


def test_run_signs_match_refrigerator(cold_coherence_params):
    p = with_param(cold_coherence_params, "bath1.epsilon", 0.0)
    tau = 0.01
    traj = run(steady_state_analytic(p).rho, p, tau, 400)
    assert traj.heat1[-1] > 0  # out of the cold bath
    assert traj.heat2[-1] < 0  # into the hot bath
    assert traj.work[-1] > 0   # work injected
    assert common_factor_V(p) > 0


def test_run_trajectory_shapes(cold_coherence_params, rng):
    traj = run(random_qubit_state(rng), cold_coherence_params, 0.05, 25)
    assert traj.states.shape == (26, 2, 2)
    assert traj.heat1.shape == (25,)
    assert np.all(np.diff(traj.mutual_information) > -1e-12) or True  # per-collision values, no monotonicity required
    for state in traj.states[1:]:
        validate_density_matrix(state)


def test_discrete_fixed_point_converges_to_lindblad(cold_coherence_params):
    rho_ss = steady_state_analytic(cold_coherence_params).rho
    distances = convergence_to_steady_state(cold_coherence_params, rho_ss, (0.1, 0.05, 0.025))
    assert all(b < a for a, b in zip(distances, distances[1:]))
    assert distances[-1] < 2e-3


def test_fixed_point_is_collision_invariant(cold_coherence_params):
    tau = 0.05
    fp = discrete_fixed_point(cold_coherence_params, tau)
    fp_next, _ = collide(fp, cold_coherence_params, tau)
    assert np.max(np.abs(fp_next - fp)) < 1e-12


def test_fixed_point_residual_at_slow_contraction(cold_coherence_params):
    # the map contracts by only ~1 - 7e-3 per collision here, so a stopping rule on
    # the step size would leave an error ~100x larger than the step
    tau = 1.25e-3
    fp = discrete_fixed_point(cold_coherence_params, tau)
    fp_next, _ = collide(fp, cold_coherence_params, tau)
    assert np.max(np.abs(fp_next - fp)) < 1e-15


def test_discrete_fixed_point_rejects_vanishing_gap(cold_coherence_params):
    # T - I is O(tau): at tau = 1e-12 its null space is not resolved
    with pytest.raises(NumericalError, match="degenerate collision-map kernel"):
        discrete_fixed_point(cold_coherence_params, 1e-12)


def test_run_matches_chained_collisions(cold_coherence_params, rng):
    tau, n = 0.01, 50
    rho = random_qubit_state(rng)
    traj = run(rho, cold_coherence_params, tau, n)
    q1 = q2 = w = 0.0
    for k in range(n):
        rho, ledger = collide(rho, cold_coherence_params, tau)
        q1, q2, w = q1 + ledger.heat1, q2 + ledger.heat2, w + ledger.work
        np.testing.assert_allclose(traj.states[k + 1], rho, rtol=0, atol=1e-12)
        np.testing.assert_allclose([traj.heat1[k], traj.heat2[k], traj.work[k]], [q1, q2, w], rtol=0, atol=1e-12)
        assert traj.mutual_information[k] == pytest.approx(ledger.mutual_information, rel=0, abs=1e-12)


# ---------------------------------------------------------------------------
# mutual information
# ---------------------------------------------------------------------------

def test_mutual_information_product_state(rng):
    a = thermal_qubit(0.3)
    b = thermal_qubit(1.1)
    assert env_mutual_information(np.kron(a, b)) == pytest.approx(0.0, abs=1e-12)


def test_stacked_entropy_and_mutual_information_match_per_matrix(rng):
    stack = np.array([random_density_matrix(rng, 4) for _ in range(6)])
    stack[0] = np.kron(thermal_qubit(0.3), thermal_qubit(1.1))
    entropies = von_neumann_entropy(stack)
    mutual = env_mutual_information(stack)
    assert entropies.shape == mutual.shape == (6,)
    for k, state in enumerate(stack):
        assert entropies[k] == pytest.approx(von_neumann_entropy(state), rel=0, abs=1e-15)
        assert mutual[k] == pytest.approx(env_mutual_information(state), rel=0, abs=1e-15)


def test_mutual_information_correlated_state():
    # Bell-diagonal mixture with maximally mixed marginals
    psi = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    bell = np.outer(psi, psi.conj())
    p_mix = 0.25
    rho = (1 - p_mix) * bell + p_mix * np.eye(4) / 4
    expected = 2 * math.log(2) - von_neumann_entropy(rho)  # marginals are I/2 by symmetry
    assert env_mutual_information(rho) == pytest.approx(expected, rel=1e-12)


def test_post_collision_environment_balance(cold_coherence_params):
    # exact finite-tau identity: S(env'||env) = I(env') + sum_i S(anc_i'||anc_i)
    rho_ss = steady_state_analytic(cold_coherence_params).rho
    for tau in (0.05, 0.01):
        anc1 = ancilla_state(cold_coherence_params.bath1, tau)
        anc2 = ancilla_state(cold_coherence_params.bath2, tau)
        _, ledger = collide(rho_ss, cold_coherence_params, tau)
        assert ledger.mutual_information >= -1e-10
        lhs = relative_entropy(ledger.env_post, np.kron(anc1, anc2))
        rhs = (ledger.mutual_information
               + relative_entropy(ledger.anc1_post, anc1)
               + relative_entropy(ledger.anc2_post, anc2))
        assert lhs == pytest.approx(rhs, abs=1e-12)


# ---------------------------------------------------------------------------
# rate extrapolation
# ---------------------------------------------------------------------------

def test_extrapolate_constant():
    res = rate_extrapolate(lambda tau: 3.25, DEFAULT_TAU_LADDER)
    assert res.limit == pytest.approx(3.25, abs=1e-12)
    assert res.error < 1e-12


def test_extrapolate_sqrt_model():
    res = rate_extrapolate(lambda tau: 1.5 - 0.8 * math.sqrt(tau), DEFAULT_TAU_LADDER)
    assert res.limit == pytest.approx(1.5, abs=1e-6)
    assert res.dominant_power == 0.5


def test_extrapolate_linear_model():
    res = rate_extrapolate(lambda tau: 2.0 + 0.5 * tau, DEFAULT_TAU_LADDER)
    assert res.limit == pytest.approx(2.0, abs=1e-9)
    assert res.dominant_power == 1.0


def test_extrapolate_rejects_bad_ladders():
    with pytest.raises(ValueError, match="at least 3"):
        rate_extrapolate(lambda tau: tau, (0.1, 0.05))
    with pytest.raises(ValueError, match="decreasing"):
        rate_extrapolate(lambda tau: tau, (0.05, 0.1, 0.2))
    with pytest.raises(ValueError, match="geometric"):
        rate_extrapolate(lambda tau: tau, (0.1, 0.05, 0.04))


def test_extrapolate_diverging_sequence_raises():
    with pytest.raises(NumericalError, match="not converging"):
        rate_extrapolate(lambda tau: 1.0 / tau, (1e-2, 5e-3, 2.5e-3, 1.25e-3))


def test_entropy_relation_extrapolates_to_zero(cold_coherence_params):
    # relative-entropy rate = beta1 * coherent heat + coherence rate, bath 1
    rho_ss = steady_state_analytic(cold_coherence_params).rho
    beta1 = 1.0 / cold_coherence_params.bath1.T
    q1_coh = heat_currents(cold_coherence_params, rho_ss)[0][0]

    def residual(tau):
        anc1 = ancilla_state(cold_coherence_params.bath1, tau)
        _, ledger = collide(rho_ss, cold_coherence_params, tau)
        s_rate = relative_entropy(ledger.anc1_post, anc1) / tau
        c_rate = (coherence_relative_entropy(ledger.anc1_post) - coherence_relative_entropy(anc1)) / tau
        return s_rate - beta1 * q1_coh - c_rate

    res = rate_extrapolate(residual, DEFAULT_TAU_LADDER)
    assert abs(res.limit) < 1e-4


def test_local_bound_at_extrapolated_rates(cold_coherence_params):
    rho_ss = steady_state_analytic(cold_coherence_params).rho
    beta1 = 1.0 / cold_coherence_params.bath1.T
    q1_coh = heat_currents(cold_coherence_params, rho_ss)[0][0]

    def c_rate(tau):
        anc1 = ancilla_state(cold_coherence_params.bath1, tau)
        _, ledger = collide(rho_ss, cold_coherence_params, tau)
        return (coherence_relative_entropy(ledger.anc1_post) - coherence_relative_entropy(anc1)) / tau

    limit = rate_extrapolate(c_rate, DEFAULT_TAU_LADDER).limit
    assert beta1 * q1_coh + limit >= -1e-6


# ---------------------------------------------------------------------------
# trajectory CSV
# ---------------------------------------------------------------------------

def test_trajectory_csv_schema(cold_coherence_params, rng, tmp_path):
    traj = run(random_qubit_state(rng), cold_coherence_params, 0.05, 10)
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, path, header_lines=["demo = 1"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# demo = 1"
    header = lines[1].split(",")
    assert header[:2] == ["collision", "rho_ee"]
    assert len(lines) == 2 + 10
    first = lines[2].split(",")
    assert int(first[0]) == 1
    assert len(first) == len(header)
