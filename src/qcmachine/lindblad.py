"""Continuous-limit master equation of the qubit machine.

In the limit of vanishing collision time the qubit obeys

    drho/dt = -i [B sigma_z + G, rho]
              + gamma (n1 + n2 + 2) L[sigma_minus, rho]
              + gamma (n1 + n2)     L[sigma_plus,  rho],

with L[S, rho] = 2 S rho S^dag - {S^dag S, rho} and the coherence-induced
Hamiltonian correction

    G = sqrt(2 gamma) * sum_i eps_i sqrt(2 n_i + 1) (cos(phi_i) sigma_x + sin(phi_i) sigma_y).

This is dissipation into a single effective bath with mean occupation
n = (n1 + n2)/2 and decay rate gamma_eff = 2 gamma, driven by an effective
coherence eps_eff e^{i phi} that lumps both reservoirs together. The steady
state is known in closed form and is cross-checked here against a null-space
solve of the vectorized generator; states at finite times follow exactly from
exp(L t) of the same 4x4 generator matrix L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Y, SIGMA_Z, expm, null_space_state
from .model import MachineParams, as_result, thermal_occupation


@dataclass(frozen=True)
class EffectiveCoherence:
    """Polar form of the lumped two-bath coherence driving the qubit (floats, or arrays over a grid)."""

    eps_eff: float
    phi: float
    gamma_eff: float
    n_avg: float


@dataclass(frozen=True)
class SteadyState:
    rho: np.ndarray  # (2, 2), or a stack (..., 2, 2) over a grid of machines
    method: str  # "analytic" or "numeric"


def effective_coherence(params: MachineParams) -> EffectiveCoherence:
    """eps_eff e^{i phi} = [eps1 e^{i phi1} sqrt(1+2n1) + eps2 e^{i phi2} sqrt(1+2n2)] / (sqrt(2) sqrt(1+2n))."""
    n1 = thermal_occupation(params.bath1)
    n2 = thermal_occupation(params.bath2)
    n = 0.5 * (n1 + n2)
    z = (
        params.bath1.epsilon * np.exp(1j * params.bath1.phi) * np.sqrt(1.0 + 2.0 * n1)
        + params.bath2.epsilon * np.exp(1j * params.bath2.phi) * np.sqrt(1.0 + 2.0 * n2)
    ) / (math.sqrt(2.0) * np.sqrt(1.0 + 2.0 * n))
    eps_eff = np.abs(z)
    phi = np.where(eps_eff > 0.0, np.mod(np.angle(z), 2.0 * math.pi), 0.0)
    return EffectiveCoherence(eps_eff=as_result(eps_eff), phi=as_result(phi),
                              gamma_eff=as_result(2.0 * params.gamma),
                              n_avg=as_result(n))


def hamiltonian_correction(params: MachineParams) -> np.ndarray:
    """Traceless Hermitian correction G added to the system Hamiltonian by the bath coherences."""
    out = np.zeros((2, 2), dtype=complex)
    for bath in params.baths:
        n = thermal_occupation(bath)
        amp = math.sqrt(2.0 * params.gamma) * bath.epsilon * math.sqrt(2.0 * n + 1.0)
        out += amp * (math.cos(bath.phi) * SIGMA_X + math.sin(bath.phi) * SIGMA_Y)
    return out


def _lindblad_term(op: np.ndarray, rho: np.ndarray) -> np.ndarray:
    opd = op.conj().T
    return 2.0 * op @ rho @ opd - opd @ op @ rho - rho @ opd @ op


def generator_apply(params: MachineParams, rho: np.ndarray) -> np.ndarray:
    """Right-hand side of the master equation evaluated at rho."""
    rho = np.asarray(rho, dtype=complex)
    n1 = thermal_occupation(params.bath1)
    n2 = thermal_occupation(params.bath2)
    h = params.B * SIGMA_Z + hamiltonian_correction(params)
    out = -1j * (h @ rho - rho @ h)
    out += params.gamma * (n1 + n2 + 2.0) * _lindblad_term(SIGMA_MINUS, rho)
    out += params.gamma * (n1 + n2) * _lindblad_term(SIGMA_PLUS, rho)
    return out


def generator_matrix(params: MachineParams) -> np.ndarray:
    """4x4 matrix of the generator acting on row-major vectorized 2x2 matrices."""
    mat = np.zeros((4, 4), dtype=complex)
    for k in range(4):
        basis = np.zeros(4, dtype=complex)
        basis[k] = 1.0
        mat[:, k] = generator_apply(params, basis.reshape(2, 2)).reshape(4)
    return mat


def steady_state_analytic(params: MachineParams) -> SteadyState:
    """Closed-form steady state in terms of the effective coherence.

    With n = (n1+n2)/2, g_e = gamma_eff = 2 gamma and R the normalization,
        rho_ee  = [4 B^2 n + g_e (1+2n)^2 (2 eps_eff^2 + n g_e)] / R
        rho_ge  = i eps_eff e^{i phi} sqrt(2 g_e (2n+1)) (2iB + (2n+1) g_e) / R
        R       = (2n+1) [4 B^2 + g_e (2n+1) (4 eps_eff^2 + (2n+1) g_e)].
    Over a grid of machines rho is the stack (..., 2, 2) of the grid's shape.
    """
    eff = effective_coherence(params)
    n = eff.n_avg
    ge = eff.gamma_eff
    e2 = eff.eps_eff**2
    r = (2.0 * n + 1.0) * (4.0 * params.B**2 + ge * (2.0 * n + 1.0) * (4.0 * e2 + (2.0 * n + 1.0) * ge))
    rho_ee = (4.0 * params.B**2 * n + ge * (1.0 + 2.0 * n) ** 2 * (2.0 * e2 + n * ge)) / r
    rho_ge = (
        1j * eff.eps_eff * np.exp(1j * eff.phi) * np.sqrt(2.0 * ge * (2.0 * n + 1.0))
        * (2j * params.B + (2.0 * n + 1.0) * ge) / r
    )
    rho_ee, rho_ge = np.broadcast_arrays(rho_ee, rho_ge)
    rho = np.empty(rho_ee.shape + (2, 2), dtype=complex)
    rho[..., 0, 0] = rho_ee
    rho[..., 0, 1] = np.conj(rho_ge)
    rho[..., 1, 0] = rho_ge
    rho[..., 1, 1] = 1.0 - rho_ee
    return SteadyState(rho=rho, method="analytic")


def steady_state_numeric(params: MachineParams) -> SteadyState:
    """Steady state from the null vector of the vectorized generator; NumericalError if the kernel is degenerate."""
    return SteadyState(rho=null_space_state(generator_matrix(params), "generator kernel"), method="numeric")


def integrate(params: MachineParams, rho0: np.ndarray, t_final: float) -> np.ndarray:
    """State at time t_final: exp(L t_final) applied to vec(rho0), L = generator_matrix(params)."""
    if not (math.isfinite(t_final) and t_final >= 0):
        raise ValueError(f"t_final must be finite and >= 0, got {t_final}")
    vec = np.asarray(rho0, dtype=complex).reshape(4)
    return (expm(generator_matrix(params) * t_final) @ vec).reshape(2, 2)
