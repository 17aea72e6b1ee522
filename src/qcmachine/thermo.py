"""Heat currents, power and entropic rates of the qubit machine.

Sign convention: currents are positive when energy flows into the system.

Every current is available along two independent routes:

* closed forms in the entries of the qubit state rho (functions below), and
* "trace" evaluations that assemble the full system + two-ancilla operators
  and take the collision-limit of the microscopic expressions directly. The
  1/sqrt(tau) of the interaction either cancels against the sqrt(tau)-scaled
  ancilla coherence (coherent pieces) or pairs up in a double commutator
  (incoherent and collisional pieces), so no tau appears.

At the steady state all currents share a common scalar factor

    (Q1, Q2, W) = (B1, -B2, B2 - B1) * V,

so only the field ratios enter efficiencies (Otto-like behaviour).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .linalg import IDENTITY_2, SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Y, SIGMA_Z
from .model import (
    BathSpec,
    MachineParams,
    as_optional,
    as_result,
    coupling_strength,
    gibbs_populations,
    thermal_occupation,
)

FIRST_LAW_TOL = 1e-10


def _entries(rho: np.ndarray):
    """(rho_ee, rho_eg, rho_ge, rho_gg) of a state or of a stack (..., 2, 2)."""
    rho = np.asarray(rho, dtype=complex)
    return rho[..., 0, 0], rho[..., 0, 1], rho[..., 1, 0], rho[..., 1, 1]


def heat_currents(params: MachineParams, rho: np.ndarray) -> tuple[tuple[float, float], tuple[float, float]]:
    """Per-bath (coherent, incoherent) heat currents for an arbitrary qubit state.

    Bath i with occupation n_i and coupling g_i = sqrt(2 gamma (1+2 n_i)):
        Qdot_i_coh = 2 i eps_i B_i g_i (e^{i phi_i} rho_eg - e^{-i phi_i} rho_ge)
        Qdot_i_inc = -4 B_i gamma [rho_ee + n_i (rho_ee - rho_gg)]
    params and rho may be a grid of machines and a stack of states; the currents broadcast.
    """
    r_ee, r_eg, r_ge, r_gg = _entries(rho)
    out = []
    for bath in params.baths:
        n = thermal_occupation(bath)
        g = coupling_strength(bath, params.gamma)
        coh = 2j * bath.epsilon * bath.B * g * (np.exp(1j * bath.phi) * r_eg - np.exp(-1j * bath.phi) * r_ge)
        inc = -4.0 * bath.B * params.gamma * (r_ee + n * (r_ee - r_gg))
        out.append((as_result(coh.real), as_result(inc.real)))
    return out[0], out[1]


def power(params: MachineParams, rho: np.ndarray) -> tuple[float, float]:
    """(coherent, collisional) power for an arbitrary qubit state.

        Wdot_coh = sum_i 2 i eps_i (B - B_i) g_i (e^{i phi_i} rho_eg - e^{-i phi_i} rho_ge)
        Wdot_col = -4 gamma sum_i (B - B_i) [(1+n_i) rho_ee - n_i rho_gg]

    The collisional term exists only off resonance (B != B_i): it measures the
    energy cost of an interaction that does not conserve the local energy.
    """
    r_ee, r_eg, r_ge, r_gg = _entries(rho)
    w_coh = 0.0
    w_col = 0.0
    for bath in params.baths:
        n = thermal_occupation(bath)
        g = coupling_strength(bath, params.gamma)
        detune = params.B - bath.B
        w_coh += (2j * bath.epsilon * detune * g * (np.exp(1j * bath.phi) * r_eg - np.exp(-1j * bath.phi) * r_ge)).real
        w_col += (-4.0 * params.gamma * detune * ((1.0 + n) * r_ee - n * r_gg)).real
    return as_result(w_coh), as_result(w_col)


def internal_energy_rate(params: MachineParams, rho: np.ndarray) -> float:
    """d<H_S>/dt = tr(H_S drho/dt) of the master equation, in closed form.

    With N = 1 + n1 + n2 and the coherent drive c = sum_i sqrt(2 gamma) eps_i sqrt(2 n_i + 1) e^{-i phi_i},
        Udot = 2B [2 Im(c rho_ge) - 2 gamma (N+1) rho_ee + 2 gamma (N-1) rho_gg].
    Independent of the current closed forms, so U' = W + Q1 + Q2 is a real check.
    """
    r_ee, _, r_ge, r_gg = _entries(rho)
    n1 = thermal_occupation(params.bath1)
    n2 = thermal_occupation(params.bath2)
    big_n = 1.0 + n1 + n2
    c = sum(np.sqrt(2.0 * params.gamma) * bath.epsilon * np.sqrt(2.0 * n + 1.0) * np.exp(-1j * bath.phi)
            for bath, n in zip(params.baths, (n1, n2)))
    g = params.gamma
    u_dot = 2.0 * params.B * (2.0 * (c * r_ge).imag - 2.0 * g * (big_n + 1.0) * r_ee.real
                              + 2.0 * g * (big_n - 1.0) * r_gg.real)
    return as_result(u_dot)


# ---------------------------------------------------------------------------
# independent trace-form evaluations (consistency oracle for the closed forms)
# ---------------------------------------------------------------------------

def _kron3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.kron(np.kron(a, b), c)


def _comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def _chi(bath: BathSpec) -> np.ndarray:
    return math.cos(bath.phi) * SIGMA_X + math.sin(bath.phi) * SIGMA_Y


def _trace_operators(params: MachineParams):
    """Shared 8x8 building blocks: stripped interaction, bare Hamiltonians, env states."""
    g1 = coupling_strength(params.bath1, params.gamma)
    g2 = coupling_strength(params.bath2, params.gamma)
    v = g1 * (_kron3(SIGMA_PLUS, SIGMA_MINUS, IDENTITY_2) + _kron3(SIGMA_MINUS, SIGMA_PLUS, IDENTITY_2))
    v += g2 * (_kron3(SIGMA_PLUS, IDENTITY_2, SIGMA_MINUS) + _kron3(SIGMA_MINUS, IDENTITY_2, SIGMA_PLUS))
    hs = params.B * _kron3(SIGMA_Z, IDENTITY_2, IDENTITY_2)
    he = (
        params.bath1.B * _kron3(IDENTITY_2, SIGMA_Z, IDENTITY_2),
        params.bath2.B * _kron3(IDENTITY_2, IDENTITY_2, SIGMA_Z),
    )
    th1 = np.diag(gibbs_populations(params.bath1)).astype(complex)
    th2 = np.diag(gibbs_populations(params.bath2)).astype(complex)
    env_thermal = np.kron(th1, th2)
    env_coherent = params.bath1.epsilon * np.kron(_chi(params.bath1), th2) \
        + params.bath2.epsilon * np.kron(th1, _chi(params.bath2))
    return v, hs, he, env_thermal, env_coherent


def heat_currents_trace(params: MachineParams, rho: np.ndarray) -> tuple[tuple[float, float], tuple[float, float]]:
    """Heat currents from the microscopic commutator traces over system + ancillas."""
    rho = np.asarray(rho, dtype=complex)
    v, _, he, env_th, env_coh = _trace_operators(params)
    out = []
    for he_i in he:
        coh = 1j * np.trace(_comm(he_i, v) @ np.kron(rho, env_coh))
        inc = 0.5 * np.trace(_comm(v, _comm(v, he_i)) @ np.kron(rho, env_th))
        out.append((float(coh.real), float(inc.real)))
    return out[0], out[1]


def power_trace(params: MachineParams, rho: np.ndarray) -> tuple[float, float]:
    """Power from the microscopic commutator traces over system + ancillas."""
    rho = np.asarray(rho, dtype=complex)
    v, hs, he, env_th, env_coh = _trace_operators(params)
    h0 = hs + he[0] + he[1]
    w_coh = 1j * np.trace(_comm(v, h0) @ np.kron(rho, env_coh))
    w_col = -0.5 * np.trace(_comm(v, _comm(v, h0)) @ np.kron(rho, env_th))
    return float(w_coh.real), float(w_col.real)


# ---------------------------------------------------------------------------
# steady-state common factors
# ---------------------------------------------------------------------------

def common_factor_V(params: MachineParams) -> float:
    """Scalar V such that (Q1, Q2, W) = (B1, -B2, B2-B1)*V at the steady state, single-bath coherence.

    Requires eps2 = 0. With N = 1 + n1 + n2:
        V = 2 gamma [B^2 (n1-n2) + gamma N ((n1-n2) N gamma + (1+2 n1) eps1^2)]
            / (N [B^2 + N^2 gamma^2 + (1+2 n1) gamma eps1^2])
    """
    if np.any(params.bath2.epsilon != 0.0):
        raise ValueError("common_factor_V requires eps2 = 0; use common_factor_V2 instead")
    n1 = thermal_occupation(params.bath1)
    n2 = thermal_occupation(params.bath2)
    g = params.gamma
    big_n = 1.0 + n1 + n2
    e2 = params.bath1.epsilon**2
    num = params.B**2 * (n1 - n2) + g * big_n * ((n1 - n2) * big_n * g + (1.0 + 2.0 * n1) * e2)
    den = big_n * (params.B**2 + big_n**2 * g**2 + (1.0 + 2.0 * n1) * g * e2)
    return as_result(2.0 * g * num / den)


def common_factor_V2(params: MachineParams) -> float:
    """Common factor with coherence admitted in both baths; phases enter via phi1 - phi2 only.

    With N = 1 + n1 + n2, k = sqrt((1+2n1)(1+2n2)) and D = phi1 - phi2:
        V2 = 2 gamma [B^2 (n1-n2) + gamma N ((n1-n2) N gamma + (1+2n1) eps1^2 - (1+2n2) eps2^2)
                      + 2 B eps1 eps2 k sin(D)]
             / (N [B^2 + N^2 gamma^2 + (1+2n1) gamma eps1^2 + (1+2n2) gamma eps2^2
                   + 2 gamma eps1 eps2 k cos(D)])
    """
    n1 = thermal_occupation(params.bath1)
    n2 = thermal_occupation(params.bath2)
    g = params.gamma
    big_n = 1.0 + n1 + n2
    e1, e2 = params.bath1.epsilon, params.bath2.epsilon
    delta = params.bath1.phi - params.bath2.phi
    k = np.sqrt((1.0 + 2.0 * n1) * (1.0 + 2.0 * n2))
    num = (
        params.B**2 * (n1 - n2)
        + g * big_n * ((n1 - n2) * big_n * g + (1.0 + 2.0 * n1) * e1**2 - (1.0 + 2.0 * n2) * e2**2)
        + 2.0 * params.B * e1 * e2 * k * np.sin(delta)
    )
    den = big_n * (
        params.B**2 + big_n**2 * g**2
        + (1.0 + 2.0 * n1) * g * e1**2 + (1.0 + 2.0 * n2) * g * e2**2
        + 2.0 * g * e1 * e2 * k * np.cos(delta)
    )
    return as_result(2.0 * g * num / den)


def equivalent_single_bath_coherence(params: MachineParams) -> float:
    """Amplitude eps1_eq = A1/A2 reproducing the two-coherence common factor with bath-2 coherence removed.

    Satisfies V(eps1_eq) = V2(eps1, phi1, eps2, phi2). Raises when A1^2 < 0
    (no real equivalent amplitude) or A2^2 <= 0.
    """
    n1 = thermal_occupation(params.bath1)
    n2 = thermal_occupation(params.bath2)
    g = params.gamma
    big_n = 1.0 + n1 + n2
    e1, e2 = params.bath1.epsilon, params.bath2.epsilon
    delta = params.bath1.phi - params.bath2.phi
    k = math.sqrt((1.0 + 2.0 * n1) * (1.0 + 2.0 * n2))
    s0 = params.B**2 + g**2 * big_n**2
    a1_sq = s0 * (
        g * (1.0 + 2.0 * n1) * (1.0 + 2.0 * n2) * (e1 - e2) * (e1 + e2)
        + 2.0 * e1 * e2 * k * (g * (n2 - n1) * math.cos(delta) + params.B * math.sin(delta))
    )
    a2_sq = g * (1.0 + 2.0 * n1) * (
        (1.0 + 2.0 * n2) * (s0 + 2.0 * g * big_n * e2**2)
        + 2.0 * e1 * e2 * k * (g * big_n * math.cos(delta) - params.B * math.sin(delta))
    )
    if a2_sq <= 0.0:
        raise ValueError(f"equivalent amplitude undefined: A2^2 = {a2_sq:.6g} <= 0")
    if a1_sq < 0.0:
        raise ValueError(f"no real equivalent amplitude: A1^2 = {a1_sq:.6g} < 0")
    return math.sqrt(a1_sq / a2_sq)


# ---------------------------------------------------------------------------
# coherence consumption and local second-law bound (steady state, eps2 = 0)
# ---------------------------------------------------------------------------

def coherence_rate_closed_form(params: MachineParams, bath_index: int) -> float:
    """Steady-state rate of change of the ancillas' relative entropy of coherence.

    Only available with coherence in bath 1 alone (eps2 = 0). Bath 1 loses
    coherence (rate <= 0), bath 2 acquires it (rate >= 0):

        Cdot_1 = -2 b1 B1 e^2 g^2 (1+2n1) [(2N^2-1)(B^2+g^2 N^2) + 2 e^2 g (1+2n1) N^2] / (N^2 D^2)
        Cdot_2 = +2 b2 B2 e^2 g^2 (1+2n1) (B^2 + g^2 N^2) / (N^2 D^2)

    with e = eps1, b_i = 1/T_i, N = 1+n1+n2 and D = B^2 + g^2 N^2 + e^2 g (1+2n1).
    """
    if np.any(params.bath2.epsilon != 0.0):
        raise ValueError("coherence rate closed forms require eps2 = 0")
    if bath_index not in (1, 2):
        raise ValueError(f"bath_index must be 1 or 2, got {bath_index}")
    return as_result(_coherence_rates(params)[bath_index - 1])


def _coherence_rates(params: MachineParams):
    """(Cdot_1, Cdot_2) of coherence_rate_closed_form, evaluated whatever eps2 is."""
    n1 = thermal_occupation(params.bath1)
    n2 = thermal_occupation(params.bath2)
    g = params.gamma
    e2 = params.bath1.epsilon**2
    big_n = 1.0 + n1 + n2
    s0 = params.B**2 + g**2 * big_n**2
    d = s0 + e2 * g * (1.0 + 2.0 * n1)
    bracket = (2.0 * big_n**2 - 1.0) * s0 + 2.0 * e2 * g * (1.0 + 2.0 * n1) * big_n**2
    c1 = -2.0 * params.bath1.B / params.bath1.T * e2 * g**2 * (1.0 + 2.0 * n1) * bracket / (big_n**2 * d**2)
    c2 = 2.0 * params.bath2.B / params.bath2.T * e2 * g**2 * (1.0 + 2.0 * n1) * s0 / (big_n**2 * d**2)
    return c1, c2


def second_law_residuals(params: MachineParams, rho_ss: np.ndarray) -> tuple[float, float]:
    """Per-bath residual beta_i * Qdot_i_coh + Cdot_i, nonnegative at the steady state.

    The residual equals the (nonnegative) rate of relative entropy between the
    post- and pre-collision ancilla states, so it bounds how much coherent heat
    the machine can draw against the coherence consumed from the reservoir.
    """
    (q1_coh, _), (q2_coh, _) = heat_currents(params, rho_ss)
    r1 = q1_coh / params.bath1.T + coherence_rate_closed_form(params, 1)
    r2 = q2_coh / params.bath2.T + coherence_rate_closed_form(params, 2)
    return r1, r2


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThermoReport:
    """All currents of one machine state, with the coherent/incoherent and
    coherent/collisional splits and the local second-law residuals.

    Fields are floats, or arrays over a grid of machines. The coherence rates
    and residuals use steady-state closed forms that only exist for
    single-bath coherence; where eps2 != 0 they are None (NaN in an array).
    """

    q1_coh: float
    q1_inc: float
    q2_coh: float
    q2_inc: float
    w_coh: float
    w_col: float
    u_dot: float
    c_rate_1: float | None
    c_rate_2: float | None
    bound_residual_1: float | None
    bound_residual_2: float | None

    CSV_COLUMNS = (
        "q1_coh", "q1_inc", "q1", "q2_coh", "q2_inc", "q2",
        "w_coh", "w_col", "w", "u_dot",
        "c_rate_1", "c_rate_2", "bound_residual_1", "bound_residual_2",
    )

    @property
    def q1(self) -> float:
        return self.q1_coh + self.q1_inc

    @property
    def q2(self) -> float:
        return self.q2_coh + self.q2_inc

    @property
    def w(self) -> float:
        return self.w_coh + self.w_col

    @property
    def first_law_residual(self) -> float:
        return self.u_dot - self.w - self.q1 - self.q2

    def at(self, index) -> ThermoReport:
        """The report of one machine of a grid report."""
        return ThermoReport(**{f.name: as_optional(getattr(self, f.name)[index]) for f in fields(self)})

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.CSV_COLUMNS}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def to_csv_row(self) -> str:
        cells = []
        for name in self.CSV_COLUMNS:
            value = getattr(self, name)
            cells.append("nan" if value is None else f"{value:.16e}")
        return ",".join(cells)


def thermo_report(params: MachineParams, rho: np.ndarray) -> ThermoReport:
    """Evaluate every current at the given state (closed forms throughout).

    params and rho may be a grid of machines and a stack of states (..., 2, 2).
    """
    (q1_coh, q1_inc), (q2_coh, q2_inc) = heat_currents(params, rho)
    w_coh, w_col = power(params, rho)
    u_dot = internal_energy_rate(params, rho)
    c1, c2 = _coherence_rates(params)
    r1 = q1_coh / params.bath1.T + c1
    r2 = q2_coh / params.bath2.T + c2
    undefined = params.bath2.epsilon != 0.0
    c1, c2, r1, r2 = (as_optional(np.where(undefined, np.nan, x)) for x in np.broadcast_arrays(c1, c2, r1, r2))
    return ThermoReport(
        q1_coh=q1_coh, q1_inc=q1_inc, q2_coh=q2_coh, q2_inc=q2_inc,
        w_coh=w_coh, w_col=w_col, u_dot=u_dot,
        c_rate_1=c1, c_rate_2=c2, bound_residual_1=r1, bound_residual_2=r2,
    )
