"""Machine configuration and derived bath quantities.

A machine is a single qubit with Hamiltonian H_S = B sigma_z, coupled to two
reservoirs of two-level ancillas. Bath i produces identical ancillas with
Hamiltonian H_Ei = B_i sigma_z, prepared in a Gibbs state at temperature T_i
(k_B = 1) plus a transverse coherence of amplitude sqrt(tau)*eps_i and azimuth
phi_i, where tau is the duration of a single collision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .linalg import SIGMA_X, SIGMA_Y


def as_result(x):
    """A 0-d result as a Python float; a larger array as it is."""
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def as_optional(x):
    """Like as_result, but a 0-d NaN (a value undefined at this point) becomes None."""
    x = as_result(x)
    return None if isinstance(x, float) and math.isnan(x) else x


def _check(problems: list[str], name: str, value, rule: str, ok=None) -> None:
    """Complain about the first element of value that is not finite or fails ok."""
    value = np.asarray(value, dtype=float)
    good = np.isfinite(value) if ok is None else np.isfinite(value) & ok(value)
    if not good.all():
        problems.append(f"{name} must be {rule}, got {float(value[~good][0])}")


def _positive(x):
    return x > 0


@dataclass(frozen=True)
class BathSpec:
    """One reservoir: temperature T, ancilla field B, coherence amplitude and phase.

    Fields are floats or broadcastable arrays (a grid of baths), validated
    element-wise. The phase is stored modulo 2*pi.
    """

    T: float
    B: float
    epsilon: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        problems = self.violations()
        if problems:
            raise ConfigError("invalid bath: " + "; ".join(problems))
        object.__setattr__(self, "phi", as_result(np.mod(np.asarray(self.phi, dtype=float), 2.0 * math.pi)))

    def violations(self) -> list[str]:
        out = []
        _check(out, "T", self.T, "finite and > 0", _positive)
        _check(out, "B", self.B, "finite and > 0", _positive)
        _check(out, "epsilon", self.epsilon, "finite and >= 0", lambda x: x >= 0)
        _check(out, "phi", self.phi, "finite")
        if not out:
            # B/T so small that 2B/T underflows: the occupation overflows to inf
            with np.errstate(divide="ignore", over="ignore"):
                _check(out, "thermal occupation 1/(exp(2B/T) - 1)", thermal_occupation(self), "finite")
        return out


@dataclass(frozen=True)
class MachineParams:
    """Full machine configuration: system field B, shared collision rate gamma, two baths.

    Like the bath fields, B and gamma may be broadcastable arrays.
    """

    B: float
    gamma: float
    bath1: BathSpec
    bath2: BathSpec

    def __post_init__(self):
        problems = []
        _check(problems, "B", self.B, "finite and > 0", _positive)
        _check(problems, "gamma", self.gamma, "finite and > 0", _positive)
        if problems:
            raise ConfigError("invalid machine parameters: " + "; ".join(problems))

    @property
    def baths(self) -> tuple[BathSpec, BathSpec]:
        return (self.bath1, self.bath2)


def thermal_occupation(bath: BathSpec) -> float:
    """Ancilla thermal occupation n = 1/(exp(2 B_i / T_i) - 1).

    The gap entering the Boltzmann factor is the ancilla's own splitting 2*B_i,
    so that n/(n+1) = exp(-2 B_i / T_i) (local detailed balance).
    """
    x = 2.0 * bath.B / bath.T
    # beyond x = 700 exp would overflow and the occupation is zero to double precision anyway:
    # the mask divides as 1 or 0 (a np.where costs more per scalar call)
    return as_result((x <= 700.0) / np.expm1(np.minimum(x, 700.0)))


def dissipation_rates(bath: BathSpec, gamma: float) -> tuple[float, float]:
    """Excitation and decay rates (gamma_plus, gamma_minus) = (2 gamma n, 2 gamma (n+1))."""
    n = thermal_occupation(bath)
    return 2.0 * gamma * n, 2.0 * gamma * (n + 1.0)


def coupling_strength(bath: BathSpec, gamma: float) -> float:
    """System-ancilla coupling g = sqrt(2 gamma (2n + 1))."""
    return as_result(np.sqrt(2.0 * gamma * (2.0 * thermal_occupation(bath) + 1.0)))


def gibbs_populations(bath: BathSpec) -> tuple[float, float]:
    """(excited, ground) populations of the ancilla Gibbs state: (n, n+1)/(2n+1)."""
    n = thermal_occupation(bath)
    return n / (2.0 * n + 1.0), (n + 1.0) / (2.0 * n + 1.0)


def max_coherence_tau(bath: BathSpec) -> float:
    """Largest collision time tau keeping the ancilla state positive: p_e * p_g / eps^2."""
    if bath.epsilon == 0.0:
        return math.inf
    pe, pg = gibbs_populations(bath)
    return pe * pg / bath.epsilon**2


def ancilla_state(bath: BathSpec, tau: float) -> np.ndarray:
    """Fresh ancilla state: Gibbs populations plus a sqrt(tau)-scaled transverse coherence.

    rho = diag(p_e, p_g) + sqrt(tau) * eps * (cos(phi) sigma_x + sin(phi) sigma_y),
    valid only while tau * eps^2 <= p_e * p_g (positivity).
    """
    if not tau > 0:
        raise ValueError(f"collision time tau must be > 0, got {tau}")
    pe, pg = gibbs_populations(bath)
    if tau * bath.epsilon**2 > pe * pg:
        raise ConfigError(
            f"ancilla coherence sqrt(tau)*eps breaks positivity: tau = {tau:g} exceeds "
            f"the maximal admissible tau = {max_coherence_tau(bath):.6g} "
            f"for epsilon = {bath.epsilon:g}"
        )
    chi = math.cos(bath.phi) * SIGMA_X + math.sin(bath.phi) * SIGMA_Y
    return np.diag([pe, pg]).astype(complex) + math.sqrt(tau) * bath.epsilon * chi


# ---------------------------------------------------------------------------
# flat key-value configuration format (used by the CLI)
# ---------------------------------------------------------------------------

CONFIG_KEYS = (
    "B",
    "gamma",
    "bath1.T",
    "bath1.B",
    "bath1.epsilon",
    "bath1.phi",
    "bath2.T",
    "bath2.B",
    "bath2.epsilon",
    "bath2.phi",
)

_REQUIRED_KEYS = ("B", "gamma", "bath1.T", "bath1.B", "bath2.T", "bath2.B")
_DEFAULTS = {"bath1.epsilon": 0.0, "bath1.phi": 0.0, "bath2.epsilon": 0.0, "bath2.phi": 0.0}


def get_param(params: MachineParams, key: str) -> float:
    """Read a scalar field by dotted key, e.g. 'bath1.B'."""
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown parameter key {key!r}; valid keys: {', '.join(CONFIG_KEYS)}")
    obj = params
    for part in key.split("."):
        obj = getattr(obj, part)
    return float(obj)


def with_param(params: MachineParams, key: str, value) -> MachineParams:
    """Copy of params with one field replaced, addressed by dotted key.

    The value is a float or an array; an array turns params into a grid of machines.
    """
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown parameter key {key!r}; valid keys: {', '.join(CONFIG_KEYS)}")
    value = as_result(np.asarray(value, dtype=float))
    parts = key.split(".")
    if len(parts) == 1:
        return replace(params, **{key: value})
    bath = replace(getattr(params, parts[0]), **{parts[1]: value})
    return replace(params, **{parts[0]: bath})


def params_to_mapping(params: MachineParams) -> dict[str, float]:
    return {key: get_param(params, key) for key in CONFIG_KEYS}


def params_from_mapping(values: dict[str, float]) -> MachineParams:
    """Build MachineParams from a flat key-value mapping, reporting every problem at once."""
    problems = [f"unknown key {k!r}" for k in values if k not in CONFIG_KEYS]
    merged = dict(_DEFAULTS)
    merged.update({k: v for k, v in values.items() if k in CONFIG_KEYS})
    for key in _REQUIRED_KEYS:
        if key not in merged:
            problems.append(f"missing required key {key!r}")
    if not problems:
        # construct via the validating dataclasses, collecting their complaints
        bath_specs = {}
        for prefix in ("bath1", "bath2"):
            try:
                bath_specs[prefix] = BathSpec(
                    T=merged[f"{prefix}.T"],
                    B=merged[f"{prefix}.B"],
                    epsilon=merged[f"{prefix}.epsilon"],
                    phi=merged[f"{prefix}.phi"],
                )
            except ConfigError as exc:
                problems.append(f"{prefix}: {exc}")
        if not problems:
            try:
                return MachineParams(
                    B=merged["B"], gamma=merged["gamma"],
                    bath1=bath_specs["bath1"], bath2=bath_specs["bath2"],
                )
            except ConfigError as exc:
                problems.append(str(exc))
    raise ConfigError("bad configuration: " + "; ".join(problems))


def params_to_config(params: MachineParams) -> str:
    """Serialize to the flat text format, one 'key = value' line per field."""
    lines = [f"{key} = {value:.17g}" for key, value in params_to_mapping(params).items()]
    return "\n".join(lines) + "\n"


def params_from_config(text: str) -> MachineParams:
    """Parse the flat text format. Lines are 'key = value'; '#' starts a comment."""
    values: dict[str, float] = {}
    problems = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got {raw!r}")
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        try:
            fval = float(val.strip())
        except ValueError:
            problems.append(f"line {lineno}: cannot parse value {val.strip()!r} for key {key!r}")
            continue
        if key in values:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        values[key] = fval
    if problems:
        raise ConfigError("bad configuration: " + "; ".join(problems))
    return params_from_mapping(values)
