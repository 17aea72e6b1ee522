"""Machine-level interpretation: operating regimes, figures of merit, sweeps.

The steady-state sign structure is fully determined by the common factor V and
the field difference B2 - B1. Regimes follow the sign triple
(sgn W, sgn Q1, sgn Q2); which triple means what depends on which bath is
colder. With the cold bath carrying coherence a refrigerator can survive into
the classically forbidden region n1 < n2 (coefficient of performance above the
Carnot value); with a hot coherent bath an engine can run at B2 < B1 with
efficiency above Carnot. Both happen at nonzero output power.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .lindblad import steady_state_analytic
from .model import MachineParams, as_optional, as_result, get_param, thermal_occupation, with_param
from .thermo import ThermoReport, power, thermo_report

DEFAULT_REGIME_RTOL = 1e-9


class Regime(enum.Enum):
    ENGINE = "engine"
    REFRIGERATOR = "refrigerator"
    ACCELERATOR = "accelerator"
    HYBRID_REFRIGERATOR = "hybrid_refrigerator"
    CARNOT_POINT = "carnot_point"


@dataclass(frozen=True)
class RegimeLabel:
    """Regime of one machine; over a grid, base is an object array of Regime and beyond_carnot a bool array."""

    base: Regime
    beyond_carnot: bool = False

    def __str__(self):
        return self.base.value + ("'" if self.beyond_carnot else "")


def _sign_table(rows: dict[tuple[int, int, int], Regime]) -> np.ndarray:
    """27 regimes indexed by (s_W+1)*9 + (s_Q1+1)*3 + (s_Q2+1); triples not listed are Carnot points."""
    table = np.full(27, Regime.CARNOT_POINT, dtype=object)
    for (s_w, s_q1, s_q2), regime in rows.items():
        table[(s_w + 1) * 9 + (s_q1 + 1) * 3 + (s_q2 + 1)] = regime
    return table


# sign triples (sgn W, sgn Q1, sgn Q2); +1 into the system / -1 out of it
_TABLE_COLD_BATH_1 = _sign_table({
    (-1, -1, +1): Regime.ENGINE,
    (-1, +1, -1): Regime.HYBRID_REFRIGERATOR,
    (+1, -1, +1): Regime.ACCELERATOR,
    (+1, +1, -1): Regime.REFRIGERATOR,
})
_TABLE_HOT_BATH_1 = _sign_table({
    (-1, +1, -1): Regime.ENGINE,
    (+1, +1, -1): Regime.ACCELERATOR,
    (+1, -1, +1): Regime.REFRIGERATOR,
})


def _current_tolerance(params: MachineParams, rel_tol: float) -> float:
    scale = params.gamma * np.maximum(np.maximum(params.B, params.bath1.B), params.bath2.B)
    return rel_tol * scale


def _bath1_is_cold(params: MachineParams):
    """Bath 1 is the cold bath, also on a temperature tie."""
    return params.bath1.T <= params.bath2.T


def _field_ratio_cop(params: MachineParams):
    """B_cold/(B_other - B_cold) for every machine; infinite where B1 = B2."""
    cold1 = _bath1_is_cold(params)
    b_cold = np.where(cold1, params.bath1.B, params.bath2.B)
    b_hot = np.where(cold1, params.bath2.B, params.bath1.B)
    with np.errstate(divide="ignore"):
        return as_result(b_cold / (b_hot - b_cold))


def otto_efficiency(params: MachineParams) -> float:
    """Field-ratio engine efficiency 1 - min(B1,B2)/max(B1,B2)."""
    b1, b2 = params.bath1.B, params.bath2.B
    return as_result(1.0 - np.minimum(b1, b2) / np.maximum(b1, b2))


def otto_cop(params: MachineParams) -> float:
    """Field-ratio refrigerator performance B_cold/(B_other - B_cold).

    Negative in the hybrid regime (work flows out while cooling); infinite at
    B1 = B2 where refrigeration crosses into the hybrid regime.
    """
    if np.any(params.bath1.B == params.bath2.B):
        raise ValueError("coefficient of performance diverges at B1 = B2")
    return _field_ratio_cop(params)


def classify(report: ThermoReport, params: MachineParams, rel_tol: float = DEFAULT_REGIME_RTOL) -> RegimeLabel:
    """Operating regime from the signs of (W, Q1, Q2), for one machine or a grid.

    Currents below rel_tol * gamma * max(B, B1, B2) count as zero. A sign
    triple that matches no table row, among them all three currents vanishing,
    classifies the point as an (effective) Carnot point.
    """
    tol = _current_tolerance(params, rel_tol)
    index = 0
    for x, weight in ((report.w, 9), (report.q1, 3), (report.q2, 1)):
        index = index + weight * (np.where(np.abs(x) >= tol, np.copysign(1.0, x), 0.0).astype(int) + 1)
    cold1 = _bath1_is_cold(params)
    base = np.where(cold1, _TABLE_COLD_BATH_1[index], _TABLE_HOT_BATH_1[index])
    t_cold = np.minimum(params.bath1.T, params.bath2.T)
    t_hot = np.maximum(params.bath1.T, params.bath2.T)
    # exact Otto-vs-Carnot ties (n1 = n2 boundary) must not flip on roundoff
    margin = 1.0 + 1e-12
    with np.errstate(divide="ignore"):
        cop_c = np.where(t_hot > t_cold, t_cold / (t_hot - t_cold), np.inf)
    beyond = ((base == Regime.ENGINE) & (otto_efficiency(params) > (1.0 - t_cold / t_hot) * margin)) | (
        (base == Regime.REFRIGERATOR) & (_field_ratio_cop(params) > cop_c * margin))
    if np.ndim(base) == 0:
        return RegimeLabel(base.item(), bool(beyond))
    return RegimeLabel(base, beyond)


def reference_bounds(params: MachineParams) -> tuple[float, float, float]:
    """(eta_Carnot, COP_Carnot, eta_CurzonAhlborn) of the two bath temperatures."""
    t_cold = min(params.bath1.T, params.bath2.T)
    t_hot = max(params.bath1.T, params.bath2.T)
    if t_cold == t_hot:
        raise ValueError("Carnot COP diverges at T1 = T2")
    eta_c = 1.0 - t_cold / t_hot
    cop_c = t_cold / (t_hot - t_cold)
    eta_ca = 1.0 - math.sqrt(t_cold / t_hot)
    return eta_c, cop_c, eta_ca


def epsilon_star(params: MachineParams) -> float | None:
    """Coherence amplitude where the common factor V vanishes (effective Carnot point).

        eps1* = sqrt(n2-n1) sqrt(B^2 + (1+n1+n2)^2 gamma^2) / sqrt((1+2n1)(1+n1+n2) gamma)

    Zero at n1 = n2; None (NaN over a grid) for n2 < n1, where V never crosses zero.
    """
    n1 = thermal_occupation(params.bath1)
    n2 = thermal_occupation(params.bath2)
    big_n = 1.0 + n1 + n2
    eps = np.sqrt(np.maximum(n2 - n1, 0.0)) * np.sqrt(params.B**2 + big_n**2 * params.gamma**2) / np.sqrt(
        (1.0 + 2.0 * n1) * big_n * params.gamma
    )
    return as_optional(np.where(n2 < n1, np.nan, eps))


def efficiency(params: MachineParams) -> float:
    """Engine efficiency -W/Q_in at the steady state; equals the field ratio form.

    Raises when the machine is not operating as an engine.
    """
    label = classify(thermo_report(params, steady_state_analytic(params).rho), params)
    if label.base is not Regime.ENGINE:
        raise ValueError(f"efficiency undefined: machine operates as {label.base.value}, not as an engine")
    return otto_efficiency(params)


def cop(params: MachineParams) -> float:
    """Cooling performance Q_extracted/W at the steady state (field ratio form).

    Valid in the refrigerator and hybrid-refrigerator regimes; negative for the
    hybrid (cooling while producing work).
    """
    label = classify(thermo_report(params, steady_state_analytic(params).rho), params)
    if label.base not in (Regime.REFRIGERATOR, Regime.HYBRID_REFRIGERATOR):
        raise ValueError(f"COP undefined: machine operates as {label.base.value}, not as a refrigerator")
    return otto_cop(params)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxisSpec:
    """One swept parameter: dotted key and an inclusive linear grid."""

    key: str
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if self.steps < 2:
            raise ValueError(f"axis {self.key!r} needs at least 2 steps, got {self.steps}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError(f"axis {self.key!r} needs finite bounds, got {self.start} and {self.stop}")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class SweepRecord:
    """One grid point: swept values, currents, regime, figures of merit.

    For the hybrid refrigerator two candidate metrics are reported side by
    side: cooling per work output |Q1|/|W| and the raw work output -W.
    """

    axis1_value: float
    axis2_value: float
    report: ThermoReport
    label: RegimeLabel
    efficiency: float | None
    cop: float | None
    hybrid_cooling_per_work: float | None
    hybrid_work_output: float | None


@dataclass
class DiagramResult:
    """A classified 2D grid: every field is an array of shape (axis1.steps, axis2.steps).

    Figures of merit are NaN where they do not apply (efficiency outside the
    engine regime, COP outside the two refrigerator regimes, the hybrid metrics
    outside the hybrid refrigerator).
    """

    axis1: AxisSpec
    axis2: AxisSpec
    report: ThermoReport
    label: RegimeLabel
    efficiency: np.ndarray
    cop: np.ndarray
    hybrid_cooling_per_work: np.ndarray
    hybrid_work_output: np.ndarray
    boundaries: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def records(self) -> list[SweepRecord]:
        """The grid as one record per point, row-major (axis1 outer, axis2 inner)."""
        v1, v2 = self.axis1.values(), self.axis2.values()
        return [
            SweepRecord(
                axis1_value=float(v1[i]), axis2_value=float(v2[j]), report=self.report.at((i, j)),
                label=RegimeLabel(self.label.base[i, j], bool(self.label.beyond_carnot[i, j])),
                efficiency=as_optional(self.efficiency[i, j]), cop=as_optional(self.cop[i, j]),
                hybrid_cooling_per_work=as_optional(self.hybrid_cooling_per_work[i, j]),
                hybrid_work_output=as_optional(self.hybrid_work_output[i, j]),
            )
            for i in range(len(v1)) for j in range(len(v2))
        ]


def sweep_diagram(params: MachineParams, axis1: AxisSpec, axis2: AxisSpec,
                  rel_tol: float = DEFAULT_REGIME_RTOL) -> DiagramResult:
    """Classify the steady state over a 2D parameter grid, in one array evaluation.

    Row i, column j of every array is the machine at (axis1 value i, axis2 value
    j); with the same key on both axes, axis2 wins. When axis1 sweeps an
    ancilla field and axis2 sweeps bath1.epsilon, the three analytic boundary
    curves are attached: the B1 = B2 line, the n1 = n2 line and the locus
    eps1*(field) where V changes sign.
    """
    p = with_param(with_param(params, axis1.key, axis1.values()[:, None]), axis2.key, axis2.values()[None, :])
    shape = (axis1.steps, axis2.steps)
    report = thermo_report(p, steady_state_analytic(p).rho)
    report = ThermoReport(**{f.name: np.broadcast_to(getattr(report, f.name), shape) for f in fields(report)})
    label = classify(report, p, rel_tol)
    base = np.broadcast_to(label.base, shape)
    engine = base == Regime.ENGINE
    hybrid = base == Regime.HYBRID_REFRIGERATOR
    q_cold = np.where(_bath1_is_cold(p), report.q1, report.q2)
    w = report.w
    with np.errstate(divide="ignore", invalid="ignore"):
        cooling_per_work = np.where(w != 0.0, np.abs(q_cold) / np.abs(w), np.inf)
    return DiagramResult(
        axis1=axis1, axis2=axis2, report=report,
        label=RegimeLabel(base, np.broadcast_to(label.beyond_carnot, shape)),
        efficiency=np.where(engine, otto_efficiency(p), np.nan),
        cop=np.where(hybrid | (base == Regime.REFRIGERATOR), _field_ratio_cop(p), np.nan),
        hybrid_cooling_per_work=np.where(hybrid, cooling_per_work, np.nan),
        hybrid_work_output=np.where(hybrid, -w, np.nan),
        boundaries=_boundary_series(params, axis1, axis2),
    )


def _boundary_series(params: MachineParams, axis1: AxisSpec, axis2: AxisSpec) -> dict[str, np.ndarray]:
    if axis1.key not in ("bath1.B", "bath2.B") or axis2.key != "bath1.epsilon":
        return {}
    other_key = "bath2.B" if axis1.key == "bath1.B" else "bath1.B"
    other_field = get_param(params, other_key)
    swept_bath, other_bath = ("bath1", "bath2") if axis1.key == "bath1.B" else ("bath2", "bath1")
    t_swept = get_param(params, f"{swept_bath}.T")
    t_other = get_param(params, f"{other_bath}.T")

    out: dict[str, np.ndarray] = {}

    def vertical(x):
        if axis1.start <= x <= axis1.stop:
            return np.array([[x, axis2.start], [x, axis2.stop]])
        return np.empty((0, 2))

    out["b_equal"] = vertical(other_field)
    # n_swept = n_other  <=>  B_swept / T_swept = B_other / T_other
    out["n_equal"] = vertical(other_field * t_swept / t_other)

    xs = np.linspace(axis1.start, axis1.stop, 201)
    eps = epsilon_star(with_param(params, axis1.key, xs))
    defined = ~np.isnan(eps)
    out["epsilon_star"] = np.column_stack((xs[defined], eps[defined]))
    return out


# ---------------------------------------------------------------------------
# power-efficiency curves and coherence-limited maximum efficiency
# ---------------------------------------------------------------------------

@dataclass
class CurveResult:
    """Engine samples of one field sweep plus the located maximum-power point."""

    samples: list[tuple[float, float, float]]  # (field value, efficiency, W)
    skipped: int                               # grid points outside the engine regime
    field_at_max_power: float | None
    max_power_output: float | None
    eta_at_max_power: float | None


def power_efficiency_curve(params: MachineParams, axis: AxisSpec,
                           rel_tol: float = DEFAULT_REGIME_RTOL) -> CurveResult:
    """(efficiency, power) along a field sweep, keeping engine points only.

    The grid is one array evaluation. The maximum of the power output -W over
    the engine region is refined by k-section between the neighbours of the
    best grid point: each pass evaluates the power at 33 evenly spaced fields
    in one array call.
    """
    values = axis.values()
    p = with_param(params, axis.key, values)
    report = thermo_report(p, steady_state_analytic(p).rho)
    engine = np.broadcast_to(classify(report, p, rel_tol).base == Regime.ENGINE, values.shape)
    w = np.broadcast_to(report.w, values.shape)
    eta = np.broadcast_to(otto_efficiency(p), values.shape)
    samples = list(zip(values[engine].tolist(), eta[engine].tolist(), w[engine].tolist()))
    skipped = int(len(values) - len(samples))
    if not samples:
        return CurveResult(samples=[], skipped=skipped, field_at_max_power=None,
                           max_power_output=None, eta_at_max_power=None)

    def output(v: np.ndarray) -> np.ndarray:
        p = with_param(params, axis.key, v)
        w_coh, w_col = power(p, steady_state_analytic(p).rho)
        return -(w_coh + w_col)

    best = int(np.argmax(np.where(engine, -w, -np.inf)))  # the first best engine point
    lo = values[max(best - 1, 0)]
    hi = values[min(best + 1, len(values) - 1)]
    v_star, out_star = _k_section_max(output, float(lo), float(hi))
    return CurveResult(
        samples=samples,
        skipped=skipped,
        field_at_max_power=v_star,
        max_power_output=out_star,
        eta_at_max_power=otto_efficiency(with_param(params, axis.key, v_star)),
    )


def _k_section_max(f, lo: float, hi: float) -> tuple[float, float]:
    """(x, f(x)) at the maximum of f on [lo, hi], for f unimodal there and evaluated on arrays.

    Each pass evaluates f at 33 evenly spaced x, ends included, and keeps the
    two neighbours of the best one: the bracket shrinks 16-fold. With an odd
    count the old best point is the new middle one, so the best value never
    falls. Stops once the bracket is below 1e-12 * max(1, |lo|, |hi|), a width
    that still holds 33 distinct doubles, so every pass shrinks the bracket.
    """
    while True:
        x = np.linspace(lo, hi, 33)
        y = f(x)
        i = int(np.argmax(y))
        if hi - lo <= 1e-12 * max(1.0, abs(lo), abs(hi)):
            return float(x[i]), float(y[i])
        lo, hi = float(x[max(i - 1, 0)]), float(x[min(i + 1, 32)])


def max_efficiency(params: MachineParams, epsilon1: float) -> tuple[float, float]:
    """Largest engine efficiency reachable at fixed hot-bath coherence amplitude.

    Valid for a hot coherent bath (T1 > T2). The engine window closes at the
    field B2* where V changes sign, i.e. where eps1*(B2) = epsilon1. With
    x = n2, a = 1 + n1 and c = epsilon1^2 (1 + 2 n1) gamma that condition is
    the cubic (x - n1)(B^2 + gamma^2 (a + x)^2) = c (a + x), which has exactly
    one root x > n1; then B2* = (T2/2) log1p(1/x) and the efficiency bound is
    the field ratio there. Returns (eta_max, b2_root), both broadcast over
    epsilon1.
    """
    if params.bath1.T <= params.bath2.T:
        raise ValueError("max_efficiency assumes coherence in the hot bath (T1 > T2)")
    eps1 = np.asarray(epsilon1, dtype=float)
    if not np.all(eps1 > 0):
        raise ValueError(f"epsilon1 must be > 0, got {epsilon1}")
    n1 = thermal_occupation(params.bath1)
    a, d = 1.0 + n1, 1.0 + 2.0 * n1
    g2, b2 = params.gamma**2, params.B**2
    c = eps1**2 * d * params.gamma
    # y = a + x solves (y - d)(B^2 + gamma^2 y^2) = c y, the monic cubic y^3 - d y^2 + k1 y + k0 = 0,
    # whose other two roots sum to d - y < 0 and multiply to a positive number: the sought root is the
    # largest real one. Depressed by y = d/3 + t to t^3 + P t + Q = 0:
    k1, k0 = (b2 - c) / g2, -d * b2 / g2
    P = k1 - d**2 / 3.0
    Q = -2.0 * d**3 / 27.0 + d * k1 / 3.0 + k0
    disc = (Q / 2.0) ** 2 + (P / 3.0) ** 3
    with np.errstate(invalid="ignore", divide="ignore"):
        u = np.cbrt(-Q / 2.0 - np.copysign(np.sqrt(np.maximum(disc, 0.0)), Q))  # Cardano, one real root
        r = np.sqrt(np.maximum(-P / 3.0, 0.0))                                   # Viete, three real roots
        t = np.where(disc > 0.0, u - P / (3.0 * u),
                     2.0 * r * np.cos(np.arccos(np.clip(-Q / (2.0 * r**3), -1.0, 1.0)) / 3.0))
    x = d / 3.0 + t - a
    # one Newton step on the factored cubic in x restores the digits lost to the arccos near a double
    # root and to the shift y -> x when n1 is small
    y = a + x
    x = x - ((x - n1) * (b2 + g2 * y**2) - c * y) / (b2 + g2 * y**2 + 2.0 * g2 * y * (x - n1) - c)
    b2_root = 0.5 * params.bath2.T * np.log1p(1.0 / x)
    eta_max = 1.0 - np.minimum(params.bath1.B, b2_root) / np.maximum(params.bath1.B, b2_root)
    return as_result(eta_max), as_result(b2_root)
