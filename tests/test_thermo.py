import json
import math

import numpy as np
import pytest

from qcmachine import (
    BathSpec,
    MachineParams,
    ancilla_state,
    coherence_rate_closed_form,
    coherence_relative_entropy,
    collide,
    common_factor_V,
    common_factor_V2,
    equivalent_single_bath_coherence,
    generator_apply,
    heat_currents,
    heat_currents_trace,
    internal_energy_rate,
    power,
    power_trace,
    rate_extrapolate,
    second_law_residuals,
    steady_state_analytic,
    steady_state_numeric,
    thermal_occupation,
    thermo_report,
    with_param,
)
from qcmachine.collision import DEFAULT_TAU_LADDER
from qcmachine.linalg import SIGMA_Z
from qcmachine.thermo import ThermoReport

from conftest import random_machine, random_qubit_state


def thermal_qubit(n):
    return np.diag([n / (2 * n + 1), (n + 1) / (2 * n + 1)]).astype(complex)


def v_scalar_oracle(params):
    """Direct scalar evaluation of the single-coherence common factor."""
    n1 = thermal_occupation(params.bath1)
    n2 = thermal_occupation(params.bath2)
    g, b = params.gamma, params.B
    nn = 1.0 + n1 + n2
    e2 = params.bath1.epsilon**2
    num = b * b * (n1 - n2) + g * nn * ((n1 - n2) * nn * g + (2 * n1 + 1) * e2)
    return 2 * g * num / (nn * (b * b + nn * nn * g * g + (2 * n1 + 1) * g * e2))


# ---------------------------------------------------------------------------
# closed forms vs microscopic trace forms (arbitrary states)
# ---------------------------------------------------------------------------

def test_closed_vs_trace_forms_random(rng):
    worst = 0.0
    for _ in range(100):
        p = random_machine(rng)
        rho = random_qubit_state(rng)
        closed = np.array([*heat_currents(p, rho)[0], *heat_currents(p, rho)[1], *power(p, rho)])
        traced = np.array([*heat_currents_trace(p, rho)[0], *heat_currents_trace(p, rho)[1], *power_trace(p, rho)])
        worst = max(worst, float(np.max(np.abs(closed - traced))))
    assert worst < 1e-10


def test_equilibrium_zero_currents(rng):
    for _ in range(10):
        p = random_machine(rng, eps1=0.0, eps2=0.0)
        p = with_param(with_param(p, "bath1.T", 2.0), "bath2.T", 2.0)
        p = with_param(with_param(p, "bath1.B", 1.1), "bath2.B", 1.1)
        rho = thermal_qubit(thermal_occupation(p.bath1))
        (q1c, q1i), (q2c, q2i) = heat_currents(p, rho)
        w = sum(power(p, rho))
        assert max(abs(q1c), abs(q1i), abs(q2c), abs(q2i), abs(w)) < 1e-13


def test_internal_energy_rate_matches_generator_trace(rng):
    # closed form against tr(B sigma_z L(rho)) through the master-equation generator
    worst = 0.0
    for _ in range(200):
        p = random_machine(rng)
        rho = random_qubit_state(rng)
        traced = np.trace(p.B * SIGMA_Z @ generator_apply(p, rho)).real
        worst = max(worst, abs(internal_energy_rate(p, rho) - traced))
    assert worst < 1e-12


def test_first_law_arbitrary_states(rng):
    worst = 0.0
    for _ in range(200):
        p = random_machine(rng)
        rho = random_qubit_state(rng)
        rep = thermo_report(p, rho)
        assert rep.u_dot == pytest.approx(internal_energy_rate(p, rho), rel=1e-12, abs=1e-15)
        worst = max(worst, abs(rep.first_law_residual))
    assert worst < 1e-10


# ---------------------------------------------------------------------------
# cold coherent bath reference point (B1 = 0.9, eps1 = 0)
# ---------------------------------------------------------------------------

def test_reference_currents_without_coherence(cold_coherence_params):
    p = with_param(cold_coherence_params, "bath1.epsilon", 0.0)
    v0 = v_scalar_oracle(p)
    assert v0 == pytest.approx(0.0958, abs=1e-4)
    rho = steady_state_analytic(p).rho
    rep = thermo_report(p, rho)
    assert rep.q1 == pytest.approx(0.9 * v0, rel=1e-10)
    assert rep.q1 == pytest.approx(0.0862, abs=1e-3)
    assert rep.q2 == pytest.approx(-1.2 * v0, rel=1e-10)
    assert rep.q2 == pytest.approx(-0.1150, abs=1e-3)
    assert rep.w == pytest.approx(0.3 * v0, rel=1e-10)
    assert rep.w == pytest.approx(0.0287, abs=1e-3)
    # coherence-free: every coherent piece vanishes
    assert rep.q1_coh == 0.0 and rep.q2_coh == 0.0 and rep.w_coh == pytest.approx(0.0, abs=1e-15)


def test_coherent_heat_overtakes_incoherent_near_02(cold_coherence_params):
    def gap(eps):
        p = with_param(cold_coherence_params, "bath1.epsilon", eps)
        (q1c, q1i), _ = heat_currents(p, steady_state_analytic(p).rho)
        return abs(q1c) - abs(q1i)

    assert gap(0.15) < 0 < gap(0.25)
    lo, hi = 0.15, 0.25
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    crossing = 0.5 * (lo + hi)
    assert crossing == pytest.approx(0.2, abs=0.05)


# ---------------------------------------------------------------------------
# power splits
# ---------------------------------------------------------------------------

def test_collisional_power_vanishes_on_resonance(rng):
    for _ in range(10):
        p = random_machine(rng)
        p = with_param(with_param(p, "bath1.B", p.B), "bath2.B", p.B)
        _, w_col = power(p, random_qubit_state(rng))
        assert abs(w_col) < 1e-13


def test_coherent_power_vanishes_for_diagonal_state(rng):
    for _ in range(10):
        p = random_machine(rng)
        w_coh, _ = power(p, np.diag([0.3, 0.7]).astype(complex))
        assert abs(w_coh) < 1e-15


# ---------------------------------------------------------------------------
# common factors
# ---------------------------------------------------------------------------

def test_common_factor_matches_currents(rng):
    for _ in range(50):
        p = random_machine(rng, eps2=0.0)
        v = common_factor_V(p)
        assert v == pytest.approx(v_scalar_oracle(p), rel=1e-12, abs=1e-15)
        rep = thermo_report(p, steady_state_analytic(p).rho)
        scale = max(abs(rep.q1), abs(rep.q2), abs(rep.w), 1e-30)
        assert abs(rep.q1 - p.bath1.B * v) / scale < 1e-9
        assert abs(rep.q2 + p.bath2.B * v) / scale < 1e-9
        assert abs(rep.w - (p.bath2.B - p.bath1.B) * v) / scale < 1e-9


def test_common_factor_zero_at_epsilon_star(cold_coherence_params):
    from qcmachine import epsilon_star

    p = with_param(cold_coherence_params, "bath1.B", 1.1)
    eps = epsilon_star(p)
    assert abs(common_factor_V(with_param(p, "bath1.epsilon", eps))) < 1e-10


def test_common_factor_zero_at_equal_occupations():
    p = MachineParams(B=1.0, gamma=1.0, bath1=BathSpec(T=2.0, B=1.0), bath2=BathSpec(T=4.0, B=2.0))
    assert thermal_occupation(p.bath1) == pytest.approx(thermal_occupation(p.bath2), rel=1e-14)
    assert abs(common_factor_V(p)) < 1e-14


def test_common_factor_requires_no_bath2_coherence(rng):
    p = random_machine(rng, eps2=0.5)
    with pytest.raises(ValueError, match="common_factor_V2"):
        common_factor_V(p)


def test_common_factor_independent_of_phase(cold_coherence_params):
    values = [common_factor_V(with_param(cold_coherence_params, "bath1.phi", phi))
              for phi in np.linspace(0.0, 2 * math.pi, 9)]
    assert max(values) - min(values) == 0.0
    # steady-state currents share that independence
    reports = [thermo_report(p2, steady_state_analytic(p2).rho)
               for p2 in (with_param(cold_coherence_params, "bath1.phi", phi) for phi in (0.0, 1.1, 4.4))]
    for a, b in zip(reports, reports[1:]):
        assert a.q1 == pytest.approx(b.q1, rel=1e-12)
        assert a.w == pytest.approx(b.w, rel=1e-12)


def test_v2_reduces_to_v(rng):
    for _ in range(50):
        p = random_machine(rng, eps2=0.0)
        assert common_factor_V2(p) == pytest.approx(common_factor_V(p), rel=1e-12, abs=1e-15)


def test_v2_depends_on_relative_phase_only(rng):
    for _ in range(20):
        p = random_machine(rng)
        shift = rng.uniform(0.0, 2 * math.pi)
        shifted = with_param(with_param(p, "bath1.phi", p.bath1.phi + shift),
                             "bath2.phi", p.bath2.phi + shift)
        assert common_factor_V2(shifted) == pytest.approx(common_factor_V2(p), rel=1e-12, abs=1e-15)


def test_v2_matches_numeric_steady_state_currents(rng):
    for _ in range(50):
        p = random_machine(rng)
        v2 = common_factor_V2(p)
        rep = thermo_report(p, steady_state_numeric(p).rho)
        scale = max(abs(rep.q1), abs(rep.q2), abs(rep.w), 1e-30)
        assert abs(rep.q1 - p.bath1.B * v2) / scale < 1e-9
        assert abs(rep.q2 + p.bath2.B * v2) / scale < 1e-9
        assert abs(rep.w - (p.bath2.B - p.bath1.B) * v2) / scale < 1e-9


# ---------------------------------------------------------------------------
# equivalent single-bath coherence
# ---------------------------------------------------------------------------

def test_equivalent_coherence_trivial_reduction(rng):
    for _ in range(20):
        p = random_machine(rng, eps2=0.0)
        assert equivalent_single_bath_coherence(p) == pytest.approx(p.bath1.epsilon, rel=1e-9, abs=1e-12)


def test_equivalent_coherence_symmetric_case():
    # equal amplitudes, equal phases, equal occupations: A1 = 0 and V2 = V(0)
    p = MachineParams(B=1.0, gamma=1.0,
                      bath1=BathSpec(T=2.0, B=1.0, epsilon=0.4, phi=0.3),
                      bath2=BathSpec(T=2.0, B=1.0, epsilon=0.4, phi=0.3))
    eq = equivalent_single_bath_coherence(p)
    assert eq == pytest.approx(0.0, abs=1e-9)
    p0 = with_param(with_param(p, "bath1.epsilon", 0.0), "bath2.epsilon", 0.0)
    assert common_factor_V2(p) == pytest.approx(common_factor_V(p0), abs=1e-12)


def test_equivalent_coherence_identity(rng):
    checked = 0
    for _ in range(200):
        p = random_machine(rng)
        try:
            eps_eq = equivalent_single_bath_coherence(p)
        except ValueError:
            continue
        checked += 1
        p_eq = with_param(with_param(p, "bath2.epsilon", 0.0), "bath1.epsilon", eps_eq)
        assert common_factor_V(p_eq) == pytest.approx(common_factor_V2(p), abs=1e-9)
    assert checked > 50


def test_equivalent_coherence_domain_error():
    # dominant bath-2 coherence has no single-bath-1 representation
    p = MachineParams(B=1.0, gamma=1.0,
                      bath1=BathSpec(T=2.5, B=0.9, epsilon=0.0, phi=0.0),
                      bath2=BathSpec(T=3.0, B=1.2, epsilon=0.8, phi=0.0))
    with pytest.raises(ValueError, match="A1"):
        equivalent_single_bath_coherence(p)


# ---------------------------------------------------------------------------
# coherence rates and the local second-law bound
# ---------------------------------------------------------------------------

def test_coherence_rates_vanish_without_coherence(rng):
    p = random_machine(rng, eps1=0.0, eps2=0.0)
    assert coherence_rate_closed_form(p, 1) == 0.0
    assert coherence_rate_closed_form(p, 2) == 0.0


def test_coherence_rate_signs_along_sweep(cold_coherence_params):
    for eps in np.linspace(0.01, 1.0, 25):
        p = with_param(cold_coherence_params, "bath1.epsilon", eps)
        assert coherence_rate_closed_form(p, 1) < 0.0
        assert coherence_rate_closed_form(p, 2) > 0.0


def test_coherence_rate_signs_random(rng):
    for _ in range(200):
        p = random_machine(rng, eps2=0.0)
        assert coherence_rate_closed_form(p, 1) <= 0.0
        assert coherence_rate_closed_form(p, 2) >= 0.0


def test_coherence_rate_requires_single_coherence(rng):
    with pytest.raises(ValueError, match="eps2"):
        coherence_rate_closed_form(random_machine(rng, eps2=0.3), 1)


def test_coherence_rate_matches_collision_extrapolation(cold_coherence_params):
    rho_ss = steady_state_analytic(cold_coherence_params).rho

    def rate(bath_index):
        def evaluate(tau):
            bath = cold_coherence_params.baths[bath_index - 1]
            pre = ancilla_state(bath, tau)
            _, ledger = collide(rho_ss, cold_coherence_params, tau)
            post = ledger.anc1_post if bath_index == 1 else ledger.anc2_post
            return (coherence_relative_entropy(post) - coherence_relative_entropy(pre)) / tau

        return rate_extrapolate(evaluate, DEFAULT_TAU_LADDER).limit

    assert rate(1) == pytest.approx(coherence_rate_closed_form(cold_coherence_params, 1), abs=1e-4)
    assert rate(2) == pytest.approx(coherence_rate_closed_form(cold_coherence_params, 2), abs=1e-4)


def test_second_law_residuals_zero_without_coherence(rng):
    p = random_machine(rng, eps1=0.0, eps2=0.0)
    r1, r2 = second_law_residuals(p, steady_state_analytic(p).rho)
    assert r1 == 0.0 and r2 == 0.0


def test_bound_pointwise_along_coherence_sweep(cold_coherence_params):
    # -T1 * Cdot_1 lower-bounds the coherent heat along the coherence sweep
    for eps in np.linspace(0.0, 1.0, 41):
        p = with_param(cold_coherence_params, "bath1.epsilon", eps)
        rho = steady_state_analytic(p).rho
        q1_coh = heat_currents(p, rho)[0][0]
        assert q1_coh >= -p.bath1.T * coherence_rate_closed_form(p, 1) - 1e-12


def test_second_law_residuals_fuzz(rng):
    low = 0.0
    for _ in range(1000):
        p = random_machine(rng, eps2=0.0)
        r1, r2 = second_law_residuals(p, steady_state_analytic(p).rho)
        low = min(low, r1, r2)
    assert low >= -1e-9


def test_residual_equals_relative_entropy_rate(cold_coherence_params):
    # independent closed form: residual_i = 4 gamma beta_i B_i |rho_eg|^2
    rho = steady_state_analytic(cold_coherence_params).rho
    r1, r2 = second_law_residuals(cold_coherence_params, rho)
    c = 4.0 * cold_coherence_params.gamma * abs(rho[0, 1]) ** 2
    assert r1 == pytest.approx(c * cold_coherence_params.bath1.B / cold_coherence_params.bath1.T, rel=1e-10)
    assert r2 == pytest.approx(c * cold_coherence_params.bath2.B / cold_coherence_params.bath2.T, rel=1e-10)


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------

def test_report_serialization(cold_coherence_params):
    rep = thermo_report(cold_coherence_params, steady_state_analytic(cold_coherence_params).rho)
    doc = json.loads(rep.to_json())
    assert set(doc) == set(ThermoReport.CSV_COLUMNS)
    assert doc["q1"] == pytest.approx(rep.q1_coh + rep.q1_inc)
    row = rep.to_csv_row()
    assert len(row.split(",")) == len(ThermoReport.CSV_COLUMNS)
    assert "nan" not in row


def test_report_none_fields_with_double_coherence(rng):
    p = random_machine(rng, eps2=0.5)
    rep = thermo_report(p, steady_state_analytic(p).rho)
    assert rep.c_rate_1 is None and rep.bound_residual_2 is None
    assert "nan" in rep.to_csv_row()
    assert json.loads(rep.to_json())["c_rate_1"] is None


def test_report_steady_state_power_balance(rng):
    for _ in range(20):
        p = random_machine(rng)
        rep = thermo_report(p, steady_state_analytic(p).rho)
        assert abs(rep.u_dot) < 1e-10
        assert rep.w == pytest.approx(-(rep.q1 + rep.q2), abs=1e-10)
