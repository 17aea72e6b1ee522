"""Finite-time repeated-interaction dynamics of the machine.

Each step couples the qubit simultaneously to one fresh ancilla per bath for a
time tau through

    H_tot = B sz (x) 1 (x) 1 + B1 1 (x) sz (x) 1 + B2 1 (x) 1 (x) sz
            + sum_i (g_i / sqrt(tau)) (sp_S sm_Ei + sm_S sp_Ei),

evolves the joint 8-dimensional state unitarily and discards the ancillas
(Markovian limit: every ancilla collides exactly once). The 1/sqrt(tau)
scaling of the coupling keeps the tau -> 0 limit finite; the per-collision
energy ledger then reproduces the continuous-limit currents up to O(sqrt(tau))
corrections, which the Richardson extrapolator removes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .linalg import (
    IDENTITY_2,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_Z,
    hermitian_propagator,
    hermitize,
    null_space_state,
    partial_trace,
    tensor_product,
    trace_distance,
    von_neumann_entropy,
)
from .model import MachineParams, ancilla_state, coupling_strength

DEFAULT_TAU_LADDER = (1e-2, 5e-3, 2.5e-3, 1.25e-3)


@dataclass(frozen=True)
class CollisionLedger:
    """Energy and entropy bookkeeping of a single collision.

    Energies are differences of bare-Hamiltonian expectations between the
    post- and pre-collision joint state. They satisfy the exact identity
    d_e_sys = work + heat1 + heat2 with heat_i = -d_e_anc_i and
    work = d_e_sys + d_e_anc1 + d_e_anc2 (energy injected by switching the
    interaction on and off).
    """

    d_e_sys: float
    d_e_anc1: float
    d_e_anc2: float
    work: float
    anc1_post: np.ndarray
    anc2_post: np.ndarray
    env_post: np.ndarray
    mutual_information: float

    @property
    def heat1(self) -> float:
        return -self.d_e_anc1

    @property
    def heat2(self) -> float:
        return -self.d_e_anc2


@dataclass
class Trajectory:
    """States and cumulative ledgers of a repeated-collision run."""

    tau: float
    states: np.ndarray        # (n+1, 2, 2), states[0] = initial state
    heat1: np.ndarray         # (n,) cumulative
    heat2: np.ndarray
    work: np.ndarray
    mutual_information: np.ndarray  # (n,) per-collision value


@dataclass(frozen=True)
class ExtrapolationResult:
    limit: float
    error: float
    dominant_power: float  # 0.5 if the sqrt(tau) term dominates the residual, else 1.0


def joint_hamiltonian_from_couplings(
    b_sys: float, b1: float, b2: float, g1: float, g2: float, tau: float
) -> np.ndarray:
    """8x8 collision Hamiltonian with explicit couplings (zero g is allowed here)."""
    if not tau > 0:
        raise ValueError(f"collision time tau must be > 0, got {tau}")
    h = b_sys * tensor_product(tensor_product(SIGMA_Z, IDENTITY_2), IDENTITY_2)
    h += b1 * tensor_product(tensor_product(IDENTITY_2, SIGMA_Z), IDENTITY_2)
    h += b2 * tensor_product(tensor_product(IDENTITY_2, IDENTITY_2), SIGMA_Z)
    scale = 1.0 / math.sqrt(tau)
    h += g1 * scale * (
        tensor_product(tensor_product(SIGMA_PLUS, SIGMA_MINUS), IDENTITY_2)
        + tensor_product(tensor_product(SIGMA_MINUS, SIGMA_PLUS), IDENTITY_2)
    )
    h += g2 * scale * (
        tensor_product(tensor_product(SIGMA_PLUS, IDENTITY_2), SIGMA_MINUS)
        + tensor_product(tensor_product(SIGMA_MINUS, IDENTITY_2), SIGMA_PLUS)
    )
    return h


def joint_hamiltonian(params: MachineParams, tau: float) -> np.ndarray:
    """Collision Hamiltonian of the machine, couplings g_i = sqrt(2 gamma (2 n_i + 1))."""
    return joint_hamiltonian_from_couplings(
        params.B,
        params.bath1.B,
        params.bath2.B,
        coupling_strength(params.bath1, params.gamma),
        coupling_strength(params.bath2, params.gamma),
        tau,
    )


def env_mutual_information(joint_env_state: np.ndarray) -> float | np.ndarray:
    """Mutual information I = S(rho_1) + S(rho_2) - S(rho_12) of a two-ancilla state or a stack (..., 4, 4)."""
    joint_env_state = np.asarray(joint_env_state, dtype=complex)
    if joint_env_state.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 two-ancilla state, got shape {joint_env_state.shape}")
    s1 = von_neumann_entropy(partial_trace(joint_env_state, (2, 2), (0,)))
    s2 = von_neumann_entropy(partial_trace(joint_env_state, (2, 2), (1,)))
    return s1 + s2 - von_neumann_entropy(joint_env_state)


class _CollisionStep:
    """Precomputed unitary, ancilla states and bare Hamiltonians for one tau."""

    def __init__(self, params: MachineParams, tau: float):
        self.tau = tau
        self.anc1 = ancilla_state(params.bath1, tau)
        self.anc2 = ancilla_state(params.bath2, tau)
        self.env = tensor_product(self.anc1, self.anc2)
        self.unitary = hermitian_propagator(joint_hamiltonian(params, tau), tau)
        eye4 = np.eye(4, dtype=complex)
        self.h_sys = params.B * tensor_product(SIGMA_Z, eye4)
        self.h_anc1 = params.bath1.B * tensor_product(tensor_product(IDENTITY_2, SIGMA_Z), IDENTITY_2)
        self.h_anc2 = params.bath2.B * tensor_product(tensor_product(IDENTITY_2, IDENTITY_2), SIGMA_Z)

    def evolve(self, rho_sys: np.ndarray) -> np.ndarray:
        joint = tensor_product(np.asarray(rho_sys, dtype=complex), self.env)
        return self.unitary @ joint @ self.unitary.conj().T

    def reduced_system(self, joint_post: np.ndarray) -> np.ndarray:
        return hermitize(partial_trace(joint_post, (2, 2, 2), (0,)))

    def ledger(self, rho_sys: np.ndarray, joint_post: np.ndarray) -> CollisionLedger:
        delta = joint_post - tensor_product(np.asarray(rho_sys, dtype=complex), self.env)
        d_sys = float(np.trace(self.h_sys @ delta).real)
        d_a1 = float(np.trace(self.h_anc1 @ delta).real)
        d_a2 = float(np.trace(self.h_anc2 @ delta).real)
        env_post = hermitize(partial_trace(joint_post, (2, 2, 2), (1, 2)))
        return CollisionLedger(
            d_e_sys=d_sys,
            d_e_anc1=d_a1,
            d_e_anc2=d_a2,
            work=d_sys + d_a1 + d_a2,
            anc1_post=hermitize(partial_trace(joint_post, (2, 2, 2), (1,))),
            anc2_post=hermitize(partial_trace(joint_post, (2, 2, 2), (2,))),
            env_post=env_post,
            mutual_information=env_mutual_information(env_post),
        )


def collide(rho_sys: np.ndarray, params: MachineParams, tau: float) -> tuple[np.ndarray, CollisionLedger]:
    """One collision: evolve system x fresh ancillas, trace back, account energies."""
    step = _CollisionStep(params, tau)
    joint_post = step.evolve(rho_sys)
    return step.reduced_system(joint_post), step.ledger(rho_sys, joint_post)


class _CollisionChannel:
    """One collision as linear maps of the row-major vec(rho), from one joint evolution per basis matrix:
    transfer (4x4) gives the post-collision vec(rho), energy (3x4) the ledger (d_e_sys, d_e_anc1,
    d_e_anc2) and env (16x4) the vectorized post-collision two-ancilla state.
    """

    def __init__(self, params: MachineParams, tau: float):
        step = _CollisionStep(params, tau)
        basis = np.eye(4, dtype=complex).reshape(4, 2, 2)
        joint_post = np.array([step.evolve(e) for e in basis])
        delta = joint_post - np.array([tensor_product(e, step.env) for e in basis])
        self.transfer = partial_trace(joint_post, (2, 2, 2), (0,)).reshape(4, 4).T
        self.energy = np.einsum("hij,kji->hk", np.array([step.h_sys, step.h_anc1, step.h_anc2]), delta)
        self.env = partial_trace(joint_post, (2, 2, 2), (1, 2)).reshape(4, 16).T


def run(rho0: np.ndarray, params: MachineParams, tau: float, n_collisions: int) -> Trajectory:
    """Sequence of collisions with fresh ancillas; returns states and running totals."""
    if n_collisions < 1:
        raise ValueError(f"n_collisions must be >= 1, got {n_collisions}")
    channel = _CollisionChannel(params, tau)
    vecs = np.empty((n_collisions + 1, 4), dtype=complex)
    vecs[0] = np.asarray(rho0, dtype=complex).reshape(4)
    for k in range(n_collisions):
        vecs[k + 1] = channel.transfer @ vecs[k]
    d_sys, d_a1, d_a2 = (channel.energy @ vecs[:-1].T).real
    mutual = env_mutual_information((vecs[:-1] @ channel.env.T).reshape(n_collisions, 4, 4))
    return Trajectory(tau=tau, states=hermitize(vecs.reshape(n_collisions + 1, 2, 2)), heat1=np.cumsum(-d_a1),
                      heat2=np.cumsum(-d_a2), work=np.cumsum(d_sys + d_a1 + d_a2), mutual_information=mutual)


def discrete_fixed_point(params: MachineParams, tau: float) -> np.ndarray:
    """Fixed point of the single-collision map: the null vector of T - I, T the transfer matrix.

    NumericalError when the kernel gap is below KERNEL_GAP_MIN, as when T - I is rounding noise (tiny tau).
    """
    transfer = _CollisionChannel(params, tau).transfer
    return null_space_state(transfer - np.eye(4), f"collision-map kernel at tau = {tau:g}")


def convergence_to_steady_state(params: MachineParams, rho_ss: np.ndarray, tau_ladder) -> list[float]:
    """Trace distance between the discrete fixed point and rho_ss for each tau."""
    return [trace_distance(discrete_fixed_point(params, tau), rho_ss) for tau in tau_ladder]


def rate_extrapolate(evaluator, tau_list) -> ExtrapolationResult:
    """tau -> 0 limit of evaluator(tau) assuming an expansion in powers of sqrt(tau).

    Fits a polynomial in s = sqrt(tau) through all sample points (the leading
    residuals of collision rates are O(sqrt(tau)) for coherence-driven pieces
    and O(tau) for incoherent ones). The error estimate is the change of the
    limit when the coarsest tau is dropped; estimates growing with the fit
    order flag a non-convergent sequence.
    """
    taus = np.asarray(list(tau_list), dtype=float)
    if taus.size < 3:
        raise ValueError(f"need at least 3 tau values, got {taus.size}")
    if np.any(taus <= 0) or np.any(np.diff(taus) >= 0):
        raise ValueError("tau values must be positive and strictly decreasing")
    ratios = taus[1:] / taus[:-1]
    if np.max(np.abs(ratios - ratios[0])) > 1e-6:
        raise ValueError(f"tau values must be geometrically spaced, got ratios {ratios}")
    values = np.array([float(evaluator(tau)) for tau in taus])
    s = np.sqrt(taus)

    def fit_limit(ss, vv):
        vand = np.vander(ss, ss.size, increasing=True)
        return np.linalg.solve(vand, vv)

    coeffs = fit_limit(s, values)
    # limits from successively larger subsets of the finest points
    stages = [fit_limit(s[i:], values[i:])[0] for i in range(taus.size - 2, -1, -1)]
    diffs = np.abs(np.diff(stages))
    scale = 1.0 + float(np.max(np.abs(values)))
    if diffs.size >= 2 and diffs[-1] > 1e-9 * scale:
        growing_error = diffs[-1] >= diffs[0]
        runaway = (
            all(abs(b) > 1.2 * abs(a) for a, b in zip(stages, stages[1:]))
            and diffs[-1] > 0.1 * abs(stages[-1])
        )
        if growing_error or runaway:
            raise NumericalError(
                f"rate extrapolation not converging: successive estimates {stages} move by {diffs}"
            )
    error = float(diffs[-1]) if diffs.size else 0.0
    s_min = s[-1]
    half_term = abs(coeffs[1]) * s_min if coeffs.size > 1 else 0.0
    lin_term = abs(coeffs[2]) * s_min**2 if coeffs.size > 2 else 0.0
    dominant = 0.5 if half_term >= lin_term else 1.0
    return ExtrapolationResult(limit=float(coeffs[0]), error=error, dominant_power=dominant)


def write_trajectory_csv(trajectory: Trajectory, path, header_lines=()) -> None:
    """Dump a trajectory: one row per collision with state entries and running totals."""
    columns = (
        "collision", "rho_ee", "rho_gg", "rho_eg_re", "rho_eg_im",
        "q1_cumulative", "q2_cumulative", "w_cumulative", "env_mutual_information",
    )
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(",".join(columns) + "\n")
        n = trajectory.heat1.size
        for k in range(n):
            rho = trajectory.states[k + 1]
            cells = [str(k + 1)] + [
                f"{x:.16e}"
                for x in (
                    rho[0, 0].real, rho[1, 1].real, rho[0, 1].real, rho[0, 1].imag,
                    trajectory.heat1[k], trajectory.heat2[k], trajectory.work[k],
                    trajectory.mutual_information[k],
                )
            ]
            fh.write(",".join(cells) + "\n")
