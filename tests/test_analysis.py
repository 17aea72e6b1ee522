import math
from pathlib import Path

import numpy as np
import pytest

from qcmachine import (
    AxisSpec,
    BathSpec,
    MachineParams,
    Regime,
    classify,
    common_factor_V,
    cop,
    efficiency,
    epsilon_star,
    max_efficiency,
    power_efficiency_curve,
    reference_bounds,
    steady_state_analytic,
    sweep_diagram,
    thermal_occupation,
    thermo_report,
    params_from_config,
    with_param,
)
from qcmachine.analysis import otto_cop, otto_efficiency
from qcmachine.thermo import ThermoReport

from conftest import random_machine

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def cold_diagram_template():
    """Cold coherent bath diagram template: B=1, B2=1.2, T1=2.5, T2=3, gamma=1."""
    return MachineParams(B=1.0, gamma=1.0,
                         bath1=BathSpec(T=2.5, B=1.0, epsilon=0.0),
                         bath2=BathSpec(T=3.0, B=1.2))


def hot_diagram_template():
    """Hot coherent bath diagram template: B=1, B1=1.2, T1=3, T2=2.5, gamma=1."""
    return MachineParams(B=1.0, gamma=1.0,
                         bath1=BathSpec(T=3.0, B=1.2, epsilon=0.0),
                         bath2=BathSpec(T=2.5, B=1.0))


def label_at(params):
    return classify(thermo_report(params, steady_state_analytic(params).rho), params)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_refrigerator_cold_reference(cold_coherence_params):
    p = with_param(cold_coherence_params, "bath1.epsilon", 0.0)
    label = label_at(p)
    assert label.base is Regime.REFRIGERATOR
    assert not label.beyond_carnot  # n1 > n2 here: the classically allowed zone


def test_classify_flips_across_effective_carnot_point():
    p = with_param(cold_diagram_template(), "bath1.B", 1.1)
    eps = epsilon_star(p)
    assert eps == pytest.approx(0.360, abs=1e-3)
    below = label_at(with_param(p, "bath1.epsilon", eps - 0.05))
    above = label_at(with_param(p, "bath1.epsilon", eps + 0.05))
    assert below.base is Regime.ENGINE
    assert above.base is Regime.REFRIGERATOR
    assert above.beyond_carnot  # refrigeration survives where n1 < n2
    near = label_at(with_param(p, "bath1.epsilon", eps))
    assert near.base is Regime.CARNOT_POINT


def test_classify_carnot_point_when_all_currents_vanish():
    p = MachineParams(B=1.0, gamma=1.0, bath1=BathSpec(T=2.0, B=1.0), bath2=BathSpec(T=4.0, B=2.0))
    assert label_at(p).base is Regime.CARNOT_POINT


def test_classify_scale_consistent(cold_coherence_params):
    from dataclasses import replace

    rho = steady_state_analytic(cold_coherence_params).rho
    report = thermo_report(cold_coherence_params, rho)
    base_label = classify(report, cold_coherence_params)
    for factor in (1e-3, 1e3):
        scaled = replace(report,
                         q1_coh=report.q1_coh * factor, q1_inc=report.q1_inc * factor,
                         q2_coh=report.q2_coh * factor, q2_inc=report.q2_inc * factor,
                         w_coh=report.w_coh * factor, w_col=report.w_col * factor,
                         u_dot=report.u_dot * factor)
        assert classify(scaled, cold_coherence_params) == base_label


def test_classify_all_four_regimes_cold_coherence():
    grid = {}
    for b1, eps in [(0.9, 0.2), (1.1, 0.2), (1.1, 0.6), (1.4, 0.2), (1.4, 0.9)]:
        p = with_param(with_param(cold_diagram_template(), "bath1.B", b1), "bath1.epsilon", eps)
        grid[(b1, eps)] = label_at(p).base
    assert grid[(0.9, 0.2)] is Regime.REFRIGERATOR
    assert grid[(1.1, 0.2)] is Regime.ENGINE
    assert grid[(1.1, 0.6)] is Regime.REFRIGERATOR
    assert grid[(1.4, 0.2)] is Regime.ACCELERATOR
    assert grid[(1.4, 0.9)] is Regime.HYBRID_REFRIGERATOR


# ---------------------------------------------------------------------------
# epsilon_star
# ---------------------------------------------------------------------------

def test_epsilon_star_value_and_sign_change():
    p = with_param(cold_diagram_template(), "bath1.B", 1.1)
    eps = epsilon_star(p)
    n1 = thermal_occupation(p.bath1)
    n2 = thermal_occupation(p.bath2)
    nn = 1.0 + n1 + n2
    # independent scalar evaluation
    expected = math.sqrt(n2 - n1) * math.sqrt(1.0 + nn**2) / math.sqrt((1 + 2 * n1) * nn)
    assert eps == pytest.approx(expected, rel=1e-14)
    assert abs(common_factor_V(with_param(p, "bath1.epsilon", eps))) < 1e-12
    assert common_factor_V(with_param(p, "bath1.epsilon", eps * 0.9)) < 0
    assert common_factor_V(with_param(p, "bath1.epsilon", eps * 1.1)) > 0


def test_epsilon_star_equal_occupations_is_zero():
    # exactly representable ratio: 2*1/2 = 2*2/4, so n1 = n2 bitwise
    p = MachineParams(B=1.0, gamma=1.0, bath1=BathSpec(T=2.0, B=1.0), bath2=BathSpec(T=4.0, B=2.0))
    assert epsilon_star(p) == 0.0
    # float-rounded near-boundary point: the root collapses toward zero
    assert epsilon_star(cold_diagram_template()) == pytest.approx(0.0, abs=1e-7)


def test_epsilon_star_none_when_v_has_no_zero():
    p = with_param(cold_diagram_template(), "bath1.B", 0.9)  # n1 > n2
    assert epsilon_star(p) is None


# ---------------------------------------------------------------------------
# figures of merit
# ---------------------------------------------------------------------------

def test_efficiency_hot_coherence_engine():
    p = with_param(with_param(hot_diagram_template(), "bath2.B", 1.0), "bath1.epsilon", 0.1)
    eta = efficiency(p)
    assert eta == pytest.approx(1.0 - 1.0 / 1.2, rel=1e-12)
    # dual route: current ratio at the steady state
    rep = thermo_report(p, steady_state_analytic(p).rho)
    q_in = max(rep.q1, 0.0) + max(rep.q2, 0.0)
    assert eta == pytest.approx(-rep.w / q_in, rel=1e-10)


def test_efficiency_zero_at_equal_fields():
    p = with_param(with_param(hot_diagram_template(), "bath2.B", 1.2), "bath1.epsilon", 0.3)
    assert otto_efficiency(p) == 0.0


def test_efficiency_requires_engine(cold_coherence_params):
    with pytest.raises(ValueError, match="not as an engine"):
        efficiency(with_param(cold_coherence_params, "bath1.epsilon", 0.0))


def test_cop_cold_coherence_value(cold_coherence_params):
    p = with_param(cold_coherence_params, "bath1.epsilon", 0.0)
    assert cop(p) == pytest.approx(0.9 / 0.3, rel=1e-12)
    rep = thermo_report(p, steady_state_analytic(p).rho)
    assert cop(p) == pytest.approx(rep.q1 / rep.w, rel=1e-10)


def test_cop_monotone_divergence_toward_equal_fields():
    values = []
    for b1 in (0.9, 1.0, 1.1, 1.18):
        p = with_param(cold_diagram_template(), "bath1.B", b1)
        values.append(otto_cop(p))
    assert all(b > a for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError, match="diverges"):
        otto_cop(with_param(cold_diagram_template(), "bath1.B", 1.2))


def test_reference_bounds_values(hot_coherence_params):
    eta_c, cop_c, eta_ca = reference_bounds(hot_coherence_params)
    assert eta_c == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert cop_c == pytest.approx(2.5 / 0.5, rel=1e-12)
    assert eta_ca == pytest.approx(1.0 - math.sqrt(2.5 / 3.0), rel=1e-12)
    assert eta_ca == pytest.approx(0.0871, abs=1e-4)


def test_reference_bounds_carnot_cop(cold_coherence_params):
    _, cop_c, _ = reference_bounds(cold_coherence_params)
    assert cop_c == pytest.approx(2.5 / 0.5, rel=1e-12)


def test_reference_bounds_limits():
    p = MachineParams(B=1.0, gamma=1.0, bath1=BathSpec(T=1e-9, B=1.0), bath2=BathSpec(T=3.0, B=1.2))
    eta_c, _, _ = reference_bounds(p)
    assert eta_c == pytest.approx(1.0, abs=1e-9)
    p_eq = MachineParams(B=1.0, gamma=1.0, bath1=BathSpec(T=2.0, B=1.0), bath2=BathSpec(T=2.0, B=1.2))
    with pytest.raises(ValueError, match="diverges"):
        reference_bounds(p_eq)


def test_classical_draws_never_beyond_carnot(rng):
    violations = 0
    for _ in range(300):
        p = random_machine(rng, eps1=0.0, eps2=0.0)
        label = label_at(p)
        if label.base in (Regime.ENGINE, Regime.REFRIGERATOR) and label.beyond_carnot:
            violations += 1
    assert violations == 0


def test_engine_never_in_wrong_occupation_order(rng):
    # cold coherent bath: no engine point with n2 < n1, coherence or not
    for _ in range(300):
        p = random_machine(rng, eps2=0.0)
        if p.bath1.T > p.bath2.T:
            p = with_param(p, "bath1.T", p.bath2.T * 0.9)
        label = label_at(p)
        if label.base is Regime.ENGINE:
            assert thermal_occupation(p.bath2) > thermal_occupation(p.bath1)


# ---------------------------------------------------------------------------
# diagram sweeps
# ---------------------------------------------------------------------------

def test_sweep_cold_diagram_boundaries_and_regimes():
    result = sweep_diagram(cold_diagram_template(),
                           AxisSpec("bath1.B", 0.8, 1.5, 29),
                           AxisSpec("bath1.epsilon", 0.0, 1.0, 21))
    assert len(result.records) == 29 * 21
    # vertical boundaries at B1 = B2 T1/T2 = 1.0 and B1 = B2 = 1.2
    assert result.boundaries["n_equal"][0][0] == pytest.approx(1.0, rel=1e-12)
    assert result.boundaries["b_equal"][0][0] == pytest.approx(1.2, rel=1e-12)
    star = result.boundaries["epsilon_star"]
    assert star.shape[1] == 2 and star.shape[0] > 50
    assert np.all(star[:, 0] > 1.0)  # defined only where n1 < n2
    bases = {r.label.base for r in result.records}
    assert {Regime.REFRIGERATOR, Regime.HYBRID_REFRIGERATOR, Regime.ACCELERATOR, Regime.ENGINE} <= bases
    # beyond-Carnot refrigerator cells exist exactly in the n1 < n2 region
    r_prime = [r for r in result.records
               if r.label.base is Regime.REFRIGERATOR and r.label.beyond_carnot]
    assert r_prime and all(r.axis1_value > 1.0 for r in r_prime)
    plain_r = [r for r in result.records
               if r.label.base is Regime.REFRIGERATOR and not r.label.beyond_carnot]
    assert plain_r and all(r.axis1_value <= 1.0 for r in plain_r)
    # in the n1 < n2 region, beyond-Carnot refrigeration happens iff eps1 > eps1*(B1)
    for r in result.records:
        if r.axis1_value <= 1.0:
            continue
        eps = epsilon_star(with_param(cold_diagram_template(), "bath1.B", r.axis1_value))
        if r.label.base is Regime.REFRIGERATOR:
            assert r.label.beyond_carnot
            assert r.axis2_value > eps
        elif r.label.base in (Regime.ENGINE, Regime.ACCELERATOR):
            assert r.axis2_value < eps


def test_sweep_hot_diagram_has_no_hybrid():
    result = sweep_diagram(hot_diagram_template(),
                           AxisSpec("bath2.B", 0.5, 1.5, 41),
                           AxisSpec("bath1.epsilon", 0.0, 1.0, 21))
    bases = [r.label.base for r in result.records]
    assert Regime.HYBRID_REFRIGERATOR not in bases
    assert Regime.ENGINE in bases and Regime.REFRIGERATOR in bases and Regime.ACCELERATOR in bases
    # beyond-Carnot engine cells exist (coherence-enabled zone at B2 < B1 T2/T1)
    e_prime = [r for r in result.records if r.label.base is Regime.ENGINE and r.label.beyond_carnot]
    assert e_prime and all(r.axis1_value < 1.0 for r in e_prime)


def test_sweep_degenerate_grid_schema(cold_coherence_params):
    result = sweep_diagram(cold_coherence_params,
                           AxisSpec("bath1.B", 0.9, 1.0, 2),
                           AxisSpec("bath1.epsilon", 0.0, 0.1, 2))
    assert len(result.records) == 4
    rec = result.records[0]
    assert rec.axis1_value == 0.9 and rec.axis2_value == 0.0
    assert rec.report.first_law_residual == pytest.approx(0.0, abs=1e-10)
    # records carry at most one applicable figure of merit
    for r in result.records:
        if r.label.base is Regime.REFRIGERATOR:
            assert r.cop is not None and r.efficiency is None


def test_sweep_hybrid_metrics_emitted():
    p = with_param(with_param(cold_diagram_template(), "bath1.B", 1.4), "bath1.epsilon", 0.9)
    assert label_at(p).base is Regime.HYBRID_REFRIGERATOR
    result = sweep_diagram(p, AxisSpec("bath1.B", 1.4, 1.45, 2), AxisSpec("bath1.epsilon", 0.9, 0.95, 2))
    hybrids = [r for r in result.records if r.label.base is Regime.HYBRID_REFRIGERATOR]
    assert hybrids
    for r in hybrids:
        assert r.hybrid_cooling_per_work > 0
        assert r.hybrid_work_output > 0
        assert r.cop < 0  # work flows out: the plain Otto ratio goes negative


def test_sweep_no_boundaries_for_other_axes(cold_coherence_params):
    result = sweep_diagram(cold_coherence_params,
                           AxisSpec("B", 0.5, 1.5, 3),
                           AxisSpec("gamma", 0.5, 1.5, 3))
    assert result.boundaries == {}


# ---------------------------------------------------------------------------
# power-efficiency curves and the coherence-limited efficiency bound
# ---------------------------------------------------------------------------

def test_curve_without_coherence_ends_at_carnot():
    p = with_param(hot_diagram_template(), "bath1.epsilon", 0.0)
    result = power_efficiency_curve(p, AxisSpec("bath2.B", 0.93, 1.199, 250))
    eta_c, _, eta_ca = reference_bounds(p)
    etas = [s[1] for s in result.samples]
    powers = [-s[2] for s in result.samples]
    assert max(etas) < eta_c
    # the efficiency endpoint approaches Carnot as the power dies
    top = max(result.samples, key=lambda s: s[1])
    assert top[1] == pytest.approx(eta_c, abs=2e-3)
    assert -top[2] == pytest.approx(0.0, abs=1e-3)
    assert all(pw > 0 for pw in powers)
    assert result.eta_at_max_power == pytest.approx(eta_ca, abs=2e-3)


def test_curve_with_coherence_beats_carnot():
    p = with_param(hot_diagram_template(), "bath1.epsilon", 0.1)
    result = power_efficiency_curve(p, AxisSpec("bath2.B", 0.93, 1.199, 250))
    eta_c, _, eta_ca = reference_bounds(p)
    beyond = [s for s in result.samples if s[1] > eta_c and -s[2] > 1e-4]
    assert beyond  # finite power beyond the Carnot efficiency
    assert result.eta_at_max_power > eta_ca
    assert result.skipped > 0  # the refrigerator part of the range is reported, not silently dropped


def test_curve_empty_engine_region(cold_coherence_params):
    p = with_param(cold_coherence_params, "bath1.epsilon", 0.0)  # refrigerator everywhere nearby
    result = power_efficiency_curve(p, AxisSpec("bath1.B", 0.85, 0.95, 5))
    assert result.samples == []
    assert result.skipped == 5
    assert result.field_at_max_power is None


def test_max_efficiency_matches_root_condition():
    p = hot_diagram_template()
    eta_max, b2_root = max_efficiency(p, 0.1)
    eps_at_root = epsilon_star(with_param(with_param(p, "bath1.epsilon", 0.1), "bath2.B", b2_root))
    assert abs(eps_at_root - 0.1) < 1e-10
    assert eta_max == pytest.approx(1.0 - b2_root / 1.2, rel=1e-12)
    # V changes sign across the root
    pc = with_param(p, "bath1.epsilon", 0.1)
    assert common_factor_V(with_param(pc, "bath2.B", b2_root - 1e-4)) < 0
    assert common_factor_V(with_param(pc, "bath2.B", b2_root + 1e-4)) > 0


def test_max_efficiency_recovers_carnot_at_small_coherence():
    p = hot_diagram_template()
    eta_c, _, _ = reference_bounds(p)
    eta_max, _ = max_efficiency(p, 1e-3)
    assert eta_max == pytest.approx(eta_c, abs=1e-3)
    eta_big, _ = max_efficiency(p, 0.1)
    assert eta_big > eta_c


def test_max_efficiency_preconditions(cold_coherence_params):
    with pytest.raises(ValueError, match="hot bath"):
        max_efficiency(cold_coherence_params, 0.1)  # T1 < T2 here
    with pytest.raises(ValueError, match="epsilon1"):
        max_efficiency(hot_diagram_template(), 0.0)


def test_max_efficiency_root_exists_for_every_amplitude():
    p = hot_diagram_template()
    for eps in (1e-4, 0.05, 0.3, 1.0, 3.0, 30.0):
        eta_max, b2_root = max_efficiency(p, eps)
        assert 0.0 < b2_root < 1.0
        assert eta_max > 0.0


def _bisected_b2_root(params, eps1):
    """B2 where eps1*(B2) = eps1, by bisection on epsilon_star; eps1* falls from +inf at B2 -> 0 to 0 at n1 = n2."""
    p0 = with_param(params, "bath1.epsilon", eps1)
    a, b = 0.0, params.bath1.B * params.bath2.T / params.bath1.T
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid in (a, b):
            break
        if epsilon_star(with_param(p0, "bath2.B", mid)) > eps1:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _hot_bath_machines():
    rng = np.random.default_rng(20261019)
    machines = [params_from_config((CONFIGS / "hot_bath.cfg").read_text())]
    while len(machines) < 9:
        p = random_machine(rng)
        if p.bath1.T > p.bath2.T:
            machines.append(p)
    return machines


@pytest.mark.parametrize("params", _hot_bath_machines())
def test_max_efficiency_closed_form_matches_bisection(params):
    eps1 = np.linspace(0.05, 1.5, 12)
    eta_max, b2_root = max_efficiency(params, eps1)  # one array call over the amplitudes
    for k, eps in enumerate(eps1):
        want = _bisected_b2_root(params, eps)
        assert abs(b2_root[k] - want) <= 1e-12 * want, f"eps1 = {eps}"
        assert eta_max[k] == pytest.approx(1.0 - want / params.bath1.B, rel=1e-12)
        assert max_efficiency(params, float(eps)) == pytest.approx((eta_max[k], b2_root[k]), rel=1e-14)


# ---------------------------------------------------------------------------
# array path against a per-point loop over the scalar functions
# ---------------------------------------------------------------------------

def _per_point(params, rel_tol=1e-9):
    """Report, label and figures of merit of one machine through the scalar functions."""
    report = thermo_report(params, steady_state_analytic(params).rho)
    label = classify(report, params, rel_tol)
    merits = {"efficiency": None, "cop": None, "hybrid_cooling_per_work": None, "hybrid_work_output": None}
    if label.base is Regime.ENGINE:
        merits["efficiency"] = otto_efficiency(params)
    elif label.base in (Regime.REFRIGERATOR, Regime.HYBRID_REFRIGERATOR):
        merits["cop"] = otto_cop(params)
    if label.base is Regime.HYBRID_REFRIGERATOR:
        q_cold = report.q1 if params.bath1.T <= params.bath2.T else report.q2
        merits["hybrid_cooling_per_work"] = abs(q_cold) / abs(report.w)
        merits["hybrid_work_output"] = -report.w
    return report, label, merits


def _assert_close(got, want, tol, what):
    if want is None:
        assert math.isnan(got), what
    else:
        assert abs(got - want) <= tol, f"{what}: {got!r} vs {want!r}"


def _diagram_cases():
    rng = np.random.default_rng(20261018)
    cases = [
        (cold_diagram_template(), AxisSpec("bath1.B", 0.8, 1.5, 15), AxisSpec("bath1.epsilon", 0.0, 1.0, 11)),
        (hot_diagram_template(), AxisSpec("bath2.B", 0.5, 1.5, 13), AxisSpec("bath1.epsilon", 0.0, 1.0, 9)),
    ]
    for _ in range(2):
        cases.append((random_machine(rng, eps2=0.0), AxisSpec("B", 0.5, 2.0, 7), AxisSpec("gamma", 0.5, 2.0, 6)))
    for _ in range(2):
        cases.append((random_machine(rng), AxisSpec("bath1.B", 0.5, 2.0, 7), AxisSpec("bath1.phi", 0.0, 6.0, 5)))
    cases.append((random_machine(rng), AxisSpec("bath2.epsilon", 0.0, 0.8, 5), AxisSpec("bath2.T", 1.0, 5.0, 7)))
    # phases only: the coherence rates do not vary over the grid
    cases.append((random_machine(rng), AxisSpec("bath1.phi", 0.0, 6.0, 4), AxisSpec("bath2.phi", 0.0, 6.0, 3)))
    cases.append((random_machine(rng, eps2=0.0), AxisSpec("bath1.phi", 0.0, 6.0, 4), AxisSpec("bath2.phi", 0.0, 6.0, 3)))
    return cases


@pytest.mark.parametrize("params, axis1, axis2", _diagram_cases())
def test_sweep_diagram_matches_per_point_loop(params, axis1, axis2):
    result = sweep_diagram(params, axis1, axis2)
    for i, v1 in enumerate(axis1.values()):
        for j, v2 in enumerate(axis2.values()):
            p = with_param(with_param(params, axis1.key, v1), axis2.key, v2)
            report, label, merits = _per_point(p)
            tol = 1e-12 * p.gamma * max(p.B, p.bath1.B, p.bath2.B)
            for name in ThermoReport.CSV_COLUMNS:
                _assert_close(getattr(result.report, name)[i, j], getattr(report, name), tol, f"{name} at {i},{j}")
            assert result.label.base[i, j] is label.base
            assert result.label.beyond_carnot[i, j] == label.beyond_carnot
            for name, want in merits.items():
                _assert_close(getattr(result, name)[i, j], want, tol, f"{name} at {i},{j}")
    # the derived per-point view carries the same values, with None where undefined
    for rec in result.records[:5]:
        p = with_param(with_param(params, axis1.key, rec.axis1_value), axis2.key, rec.axis2_value)
        report, label, merits = _per_point(p)
        assert rec.label == label
        assert (rec.report.c_rate_1 is None) == (report.c_rate_1 is None)
        assert {name: getattr(rec, name) is None for name in merits} == {k: v is None for k, v in merits.items()}


_CURVE_CASES = [
    (with_param(hot_diagram_template(), "bath1.epsilon", 0.1), AxisSpec("bath2.B", 0.93, 1.199, 60)),
    (with_param(hot_diagram_template(), "bath1.epsilon", 0.0), AxisSpec("bath2.B", 0.5, 1.5, 41)),
    (random_machine(np.random.default_rng(7)), AxisSpec("bath2.B", 0.5, 2.0, 41)),
]


@pytest.mark.parametrize("params, axis", _CURVE_CASES)
def test_power_efficiency_curve_matches_per_point_loop(params, axis):
    result = power_efficiency_curve(params, axis)
    want = []
    for v in axis.values():
        p = with_param(params, axis.key, v)
        report, label, _ = _per_point(p)
        if label.base is Regime.ENGINE:
            want.append((float(v), otto_efficiency(p), report.w))
    assert want, "the case should contain engine points"
    assert len(result.samples) == len(want)
    assert result.skipped == axis.steps - len(want)
    tol = 1e-12 * params.gamma * max(params.B, params.bath1.B, params.bath2.B)
    for got, ref in zip(result.samples, want):
        assert got[0] == ref[0]
        assert all(abs(g - r) <= tol for g, r in zip(got[1:], ref[1:]))
    best = max(want, key=lambda s: -s[2])
    step = (axis.stop - axis.start) / (axis.steps - 1)
    assert abs(result.field_at_max_power - best[0]) <= step


def _curve_cases():
    rng = np.random.default_rng(20261020)
    cases = _CURVE_CASES + [
        # fields of 1e5, where doubles are spaced wider than an absolute 1e-12 bracket
        (MachineParams(B=1e5, gamma=1.0, bath1=BathSpec(T=3e5, B=1.2e5, epsilon=0.1), bath2=BathSpec(T=2.5e5, B=1e5)),
         AxisSpec("bath2.B", 9e4, 1.199e5, 50)),
    ]
    axis = AxisSpec("bath2.B", 0.5, 2.0, 41)
    while len(cases) < 7:
        p = random_machine(rng)
        if any(label_at(with_param(p, axis.key, v)).base is Regime.ENGINE for v in axis.values()):
            cases.append((p, axis))
    return cases


@pytest.mark.parametrize("params, axis", _curve_cases())
def test_curve_maximum_matches_dense_scalar_scan(params, axis):
    result = power_efficiency_curve(params, axis)
    assert result.field_at_max_power is not None, "the case should contain engine points"

    def output(v):
        p = with_param(params, axis.key, v)
        return -thermo_report(p, steady_state_analytic(p).rho).w

    values = axis.values()
    best = int(np.flatnonzero(values == max(result.samples, key=lambda s: -s[2])[0])[0])
    dense = np.linspace(values[max(best - 1, 0)], values[min(best + 1, len(values) - 1)], 2001)
    tol = 1e-14 * params.gamma * max(params.B, params.bath1.B, params.bath2.B)
    assert result.max_power_output >= max(output(v) for v in dense) - tol
    assert abs(result.max_power_output - output(result.field_at_max_power)) <= tol
    assert result.eta_at_max_power == otto_efficiency(with_param(params, axis.key, result.field_at_max_power))


def test_tolerance_reaches_sweeps():
    p = with_param(cold_diagram_template(), "bath1.B", 0.9)
    axis = AxisSpec("bath1.epsilon", 0.0, 0.5, 3)
    loose = sweep_diagram(p, AxisSpec("bath1.B", 0.9, 1.0, 2), axis, rel_tol=0.5)
    assert {r.label.base for r in loose.records} == {Regime.CARNOT_POINT}
    assert np.all(np.isnan(loose.cop))
    curve = power_efficiency_curve(hot_diagram_template(), AxisSpec("bath2.B", 0.93, 1.199, 20), rel_tol=0.5)
    assert curve.samples == [] and curve.skipped == 20
