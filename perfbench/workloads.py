"""Seeded workloads of the qcmachine benchmark: inputs, queries and output checks.

Every workload is closed loop with one client in one process: the next query
starts when the previous one has returned. Query k of a run draws its machine
from point k of an R_d low-discrepancy sequence over DOMAIN, shifted by a
random offset drawn from the benchmark's --seed; every CLI seed comes from the
same generator. A shifted low-discrepancy sequence covers the domain evenly in
every run, so the mix of per-query costs varies little between seeds.

On DOMAIN every machine is physically admissible: B_i/T_i <= 1 and
tau * eps1^2 <= p_e * p_g for every tau a query uses (tau <= 0.1). bath2
carries no coherence (eps2 = 0), so the tau -> 0 closed forms apply.
DOMAIN keeps gamma in [0.8, 1.5] and eps1 in [0.1, 0.3]: with gamma near 2 and
eps1 above about 0.3 the sqrt(tau) extrapolation over DEFAULT_TAU_LADDER misses
the closed forms by more than 1e-4; with gamma below about 0.6 the coherence
rates are not yet in their asymptotic regime on that ladder; with eps1 near 0
the fixed-point distances are about 1e-6 and can rise from tau = 0.1 to 0.05.
On about 1% of machines anywhere in the domain, rate_extrapolate over the
four-point DEFAULT_TAU_LADDER raises "not converging" although its estimate is
close to the closed form (its growing-error test needs four or more taus), so
the collision workload extrapolates over EXTRAPOLATION_LADDER, three finer taus.
Those are limits of the program, not of the benchmark; on DOMAIN every query
passes its checks.
The program receives only generated config files or MachineParams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qcmachine import cli, collision, lindblad, model, thermo

DOMAIN = (
    ("B", 0.5, 2.0),
    ("gamma", 0.8, 1.5),
    ("bath1.T", 1.5, 5.0),
    ("bath1.B", 0.5, 1.5),
    ("bath1.epsilon", 0.1, 0.3),
    ("bath1.phi", 0.0, 2.0 * math.pi),
    ("bath2.T", 1.5, 5.0),
    ("bath2.B", 0.5, 1.5),
)
MAX_TAU = 0.1
VERIFY_TAU_LADDER = (0.1, 0.05, 0.025, 0.0125)
FIXED_POINT_TAUS = VERIFY_TAU_LADDER + collision.DEFAULT_TAU_LADDER
EXTRAPOLATION_LADDER = (0.0025, 0.00125, 0.000625)
SWEEP_OUTPUTS = (
    ("diagram", ("bath1.B:0.5:1.5:24", "bath1.epsilon:0:0.5:24")),  # writes boundary overlays
    ("diagram", ("B:0.5:2:24", "gamma:0.5:2:24")),                  # writes none
    ("curve", ("bath2.B:0.5:1.5:270",)),
)
SWEEP_SAMPLED_ROWS = 8
CURRENT_RTOL = 1e-9
FIRST_LAW_TOL = 1e-10
EXTRAPOLATION_TOL = 1e-4
TRAJECTORY_COLLISIONS = 250
TRAJECTORY_TAU = 0.01
TRACE_TOL = 1e-12
INTEGRATE_T = 1.0
INTEGRATE_TOL = 1e-8


def _rd_alpha(dim: int) -> np.ndarray:
    """Step of the R_d sequence: powers of 1/phi_d, phi_d the root of x^(d+1) = x + 1."""
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim + 1))
    return np.array([phi ** -(j + 1) for j in range(dim)]) % 1.0


_ALPHA = _rd_alpha(len(DOMAIN))


class Draws:
    """All query inputs of one run, derived from the benchmark seed."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self._shift = rng.random(len(DOMAIN))
        self._cli_seed = int(rng.integers(2**31))

    def machine(self, k: int) -> dict[str, float]:
        u = (self._shift + k * _ALPHA) % 1.0
        values = {key: lo + (hi - lo) * float(x) for (key, lo, hi), x in zip(DOMAIN, u)}
        values.update({"bath2.epsilon": 0.0, "bath2.phi": 0.0})
        return values

    def cli_seed(self, k: int) -> int:
        return (self._cli_seed + k) % 2**31


def make_params(machine: dict[str, float]) -> model.MachineParams:
    def bath(prefix):
        return model.BathSpec(T=machine[f"{prefix}.T"], B=machine[f"{prefix}.B"],
                              epsilon=machine[f"{prefix}.epsilon"], phi=machine[f"{prefix}.phi"])
    return model.MachineParams(B=machine["B"], gamma=machine["gamma"], bath1=bath("bath1"), bath2=bath("bath2"))


@dataclass(frozen=True)
class Query:
    index: int
    machine: dict[str, float]
    params: model.MachineParams
    config: Path
    workdir: Path
    cli_seed: int


@dataclass(frozen=True)
class Problem:
    """A failed query. `wrong` marks an answer that contradicts an oracle beyond
    the accuracy the program itself reports for it."""

    message: str
    wrong: bool


def make_query(draws: Draws, k: int, workdir: Path) -> Query:
    machine = draws.machine(k)
    params = make_params(machine)
    tau_limit = min(model.max_coherence_tau(params.bath1), model.max_coherence_tau(params.bath2))
    if MAX_TAU > tau_limit:
        raise ValueError(f"query {k}: machine not admissible up to tau = {MAX_TAU}: {machine}")
    config = workdir / "machine.cfg"
    config.write_text("".join(f"{key} = {value!r}\n" for key, value in machine.items()), encoding="utf-8")
    for stale in workdir.glob("out*"):
        stale.unlink()
    return Query(k, machine, params, config, workdir, draws.cli_seed(k))


def _read_csv(path: Path) -> tuple[dict[str, str], list[str], list[list[str]]]:
    header, columns, rows = {}, None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            header[key.strip()] = value.strip()
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return header, columns or [], rows


def _exit_problem(what: str, rc: int) -> Problem:
    return Problem(f"{what} exit code {rc}", wrong=False)


# ---------------------------------------------------------------------------
# sweep: two 24x24 diagram CSVs (two axis pairs) and a 270-point curve
# ---------------------------------------------------------------------------

def _sweep_out(q: Query, i: int) -> Path:
    return q.workdir / f"out{i}.csv"


def run_sweep(q: Query) -> list[int]:
    codes = []
    for i, (command, grids) in enumerate(SWEEP_OUTPUTS):
        argv = [command, "--config", str(q.config), "--out", str(_sweep_out(q, i))]
        for grid in grids:
            argv += ["--grid", grid]
        codes.append(cli.main(argv))
    return codes


def check_sweep(q: Query, codes: list[int]) -> Problem | None:
    for i, ((command, grids), rc) in enumerate(zip(SWEEP_OUTPUTS, codes)):
        if rc != 0:
            return _exit_problem(command, rc)
        problem = _check_sweep_output(q, i, command, grids)
        if problem is not None:
            return problem
    return None


def _check_sweep_output(q: Query, i: int, command: str, grids) -> Problem | None:
    header, columns, rows = _read_csv(_sweep_out(q, i))
    steps = [int(g.rsplit(":", 1)[1]) for g in grids]
    if command == "diagram":
        if len(rows) != steps[0] * steps[1]:
            return Problem(f"diagram has {len(rows)} rows, expected {steps[0] * steps[1]}", wrong=True)
    elif len(rows) + int(header["skipped_non_engine_points"]) != steps[0]:
        return Problem(f"curve has {len(rows)} rows plus {header['skipped_non_engine_points']} skipped "
                       f"points, expected {steps[0]}", wrong=True)
    rng = np.random.default_rng([q.cli_seed, q.index, i])
    picked = rng.choice(len(rows), size=min(SWEEP_SAMPLED_ROWS, len(rows)), replace=False)
    axes = [g.split(":", 1)[0] for g in grids]
    for r in sorted(picked):
        row = {key: float(x) for key, x in zip(columns, rows[r]) if key != "regime"}
        machine = dict(q.machine, **{key: row[key] for key in axes})
        p = make_params(machine)
        rho = lindblad.steady_state_numeric(p).rho
        (q1_coh, q1_inc), (q2_coh, q2_inc) = thermo.heat_currents_trace(p, rho)
        w_coh, w_col = thermo.power_trace(p, rho)
        ref = {"q1_coh": q1_coh, "q1_inc": q1_inc, "q2_coh": q2_coh, "q2_inc": q2_inc,
               "w_coh": w_coh, "w_col": w_col}
        scale = max(abs(v) for v in ref.values())
        if command == "curve":
            ref = {"w": w_coh + w_col}
        for key, want in ref.items():
            if abs(row[key] - want) > CURRENT_RTOL * scale:
                return Problem(f"{command} row {r}: {key} = {row[key]!r}, trace form at the numeric steady "
                               f"state gives {want!r} (rtol {CURRENT_RTOL:g})", wrong=True)
        if command == "diagram":
            residual = row["u_dot"] - row["w"] - row["q1"] - row["q2"]
            if abs(residual) > FIRST_LAW_TOL:
                return Problem(f"diagram row {r}: first-law residual {residual:.3e}", wrong=True)
    return None


# ---------------------------------------------------------------------------
# collision-limit: fixed points over eight taus, Q1 and W extrapolated to tau -> 0
# ---------------------------------------------------------------------------

def run_collision_limit(q: Query):
    p = q.params
    rho_ss = lindblad.steady_state_analytic(p).rho
    distances = collision.convergence_to_steady_state(p, rho_ss, FIXED_POINT_TAUS)
    q1 = collision.rate_extrapolate(lambda tau: collision.collide(rho_ss, p, tau)[1].heat1 / tau,
                                    EXTRAPOLATION_LADDER)
    w = collision.rate_extrapolate(lambda tau: collision.collide(rho_ss, p, tau)[1].work / tau,
                                   EXTRAPOLATION_LADDER)
    return distances, q1, w


def check_collision_limit(q: Query, result) -> Problem | None:
    distances, q1, w = result
    if not all(b < a for a, b in zip(distances, distances[1:])):
        # At the coarse end of the ladder the O(tau) and higher-order errors can cancel, so a
        # non-monotone ladder is a failed check; only no decrease at all is a wrong answer.
        return Problem(f"fixed-point distances do not fall as tau decreases: {distances}",
                       wrong=not distances[-1] < distances[0])
    p = q.params
    v = thermo.common_factor_V(p)
    for name, got, want in (("Q1", q1, p.bath1.B * v), ("W", w, (p.bath2.B - p.bath1.B) * v)):
        err = abs(got.limit - want)
        if err > EXTRAPOLATION_TOL:
            return Problem(f"extrapolated {name} = {got.limit!r} misses the closed form {want!r} by {err:.3e} "
                           f"(tol {EXTRAPOLATION_TOL:g}, reported error {got.error:.3e})",
                           wrong=err > got.error)
    return None


# ---------------------------------------------------------------------------
# trajectory: 250-collision CSV through the CLI, then RK4 to t = 1
# ---------------------------------------------------------------------------

def run_trajectory(q: Query):
    rc = cli.main(["collide", "--config", str(q.config), "--tau-ladder", str(TRAJECTORY_TAU),
                   "--collisions", str(TRAJECTORY_COLLISIONS), "--out", str(q.workdir / "out.csv")])
    rho = lindblad.integrate(q.params, 0.5 * np.eye(2, dtype=complex), INTEGRATE_T)
    return rc, rho


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a degree-20 Taylor series."""
    squarings = max(0, int(np.ceil(np.log2(max(np.linalg.norm(a, 1), 1e-300)))) + 1)
    a = a / 2.0**squarings
    out, term = np.eye(a.shape[0], dtype=complex), np.eye(a.shape[0], dtype=complex)
    for j in range(1, 21):
        term = term @ a / j
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def check_trajectory(q: Query, result) -> Problem | None:
    rc, rho = result
    if rc != 0:
        return _exit_problem("collide", rc)
    _, columns, rows = _read_csv(q.workdir / "out.csv")
    if len(rows) != TRAJECTORY_COLLISIONS:
        return Problem(f"trajectory has {len(rows)} rows, expected {TRAJECTORY_COLLISIONS}", wrong=True)
    ee, gg = columns.index("rho_ee"), columns.index("rho_gg")
    drift = max(abs(float(row[ee]) + float(row[gg]) - 1.0) for row in rows)
    if drift > TRACE_TOL:
        return Problem(f"trajectory trace drifts by {drift:.3e} (tol {TRACE_TOL:g})", wrong=True)
    # exact propagation exp(L t) of the row-major vectorized state
    exact = _expm(lindblad.generator_matrix(q.params) * INTEGRATE_T) @ (0.5 * np.eye(2, dtype=complex)).reshape(4)
    dev = float(np.max(np.abs(rho - exact.reshape(2, 2))))
    if dev > INTEGRATE_TOL:
        return Problem(f"integrate(t={INTEGRATE_T:g}) is {dev:.3e} from exp(L t) rho0", wrong=True)
    return None


# ---------------------------------------------------------------------------
# collision: one collision-limit question and one trajectory on the same machine
# ---------------------------------------------------------------------------

def run_collision(q: Query):
    return run_collision_limit(q), run_trajectory(q)


def check_collision(q: Query, result) -> Problem | None:
    limit, trajectory = result
    return check_collision_limit(q, limit) or check_trajectory(q, trajectory)


@dataclass(frozen=True)
class Workload:
    name: str
    definition: str
    run: Callable[[Query], object]
    check: Callable[[Query, object], Problem | None]
    queries: int  # distinct queries of a timed run; the highest percentile with ten beyond is p(1 - 10/queries)
    traced_queries: int  # a fixed number, so that .calls counts repeat exactly


WORKLOADS = {w.name: w for w in (
    Workload("sweep",
             "cli.main diagram CSV 24x24 over bath1.B x bath1.epsilon (with boundary overlays), "
             "diagram CSV 24x24 over B x gamma (none) and a 270-point bath2.B curve",
             run_sweep, check_sweep, 50, 4),
    Workload("collision",
             "discrete_fixed_point at 8 taus (0.1..0.0125 and DEFAULT_TAU_LADDER) with trace distances "
             "to steady_state_analytic, rate_extrapolate of Q1/tau and W/tau from collide over "
             f"tau = {', '.join(f'{t:g}' for t in EXTRAPOLATION_LADDER)}; then cli.main collide, "
             f"{TRAJECTORY_COLLISIONS} collisions at tau = {TRAJECTORY_TAU:g} from the maximally mixed state, "
             f"and lindblad.integrate to t = {INTEGRATE_T:g} from the same state",
             run_collision, check_collision, 30, 4),
)}
