"""Dense complex linear algebra and entropy functionals for 2-, 4- and 8-dimensional spaces.

Conventions used throughout the package: sigma_z = diag(1, -1), index 0 is the
excited state, sigma_minus = |g><e| lowers, and all logarithms are natural
(entropies in nats).
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
SUPPORT_TOL = 1e-10
_LOG_CUTOFF = 1e-14
MAX_DIM = 8
KERNEL_GAP_MIN = 1e-8

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SIGMA_PLUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (a + a^dagger)/2 of a matrix or a stack (..., d, d); cleans tiny numerical asymmetries."""
    return 0.5 * (a + np.swapaxes(a.conj(), -1, -2))


def is_hermitian(a: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    """Entrywise Hermiticity check."""
    return bool(np.max(np.abs(a - a.conj().T)) <= tol)


def validate_density_matrix(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a density matrix.

    Eigenvalues in [EIGENVALUE_FLOOR, 0) are tolerated as numerical drift;
    anything more negative is a genuine violation and raises.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {rho.shape}")
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > HERMITICITY_TOL:
        raise ValueError(f"{name} is not Hermitian: max |rho - rho^dag| = {herm:.3e}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"{name} has trace {tr:.15g}, expected 1")
    lo = float(np.min(np.linalg.eigvalsh(hermitize(rho))))
    if lo < EIGENVALUE_FLOOR:
        raise ValueError(f"{name} has negative eigenvalue {lo:.3e}")
    return rho


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product a (x) b; the combined dimension is capped at 8."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    dim = a.shape[0] * b.shape[0]
    if dim > MAX_DIM:
        raise ValueError(f"tensor product dimension {dim} exceeds the supported maximum {MAX_DIM}")
    return np.kron(a, b)


def partial_trace(rho: np.ndarray, dims: list[int] | tuple[int, ...], keep) -> np.ndarray:
    """Reduced matrix over the subsystems listed in `keep` (original ordering).

    `dims` lists the subsystem dimensions whose product must match the last two
    axes of rho; leading axes index a stack of matrices, reduced one by one.
    """
    rho = np.asarray(rho, dtype=complex)
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"subsystem dimensions must be positive, got {dims}")
    total = int(np.prod(dims))
    if rho.shape[-2:] != (total, total):
        raise ValueError(f"dims {dims} imply dimension {total}, but rho has shape {rho.shape}")
    if isinstance(keep, int):
        keep = (keep,)
    keep = tuple(sorted(set(int(k) for k in keep)))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} subsystems")
    n = len(dims)
    stack = rho.shape[:-2]
    reshaped = rho.reshape(stack + dims + dims)
    # contract bra/ket index pairs of every traced-out subsystem
    lhs = [Ellipsis] + list(range(n)) + [n + i if i in keep else i for i in range(n)]
    out = [Ellipsis] + [i for i in keep] + [n + i for i in keep]
    reduced = np.einsum(reshaped, lhs, out)
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return reduced.reshape(stack + (d_keep, d_keep))


def hermitian_propagator(h: np.ndarray, t: float) -> np.ndarray:
    """Unitary exp(-i h t) for Hermitian h via eigendecomposition."""
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise ValueError("propagator generator must be Hermitian")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring: degree-16 Taylor (remainder < 0.5^17/17! ~ 2e-20) on a/2^s, |a/2^s|_1 < 1/2.

    Unlike an eigendecomposition it stays accurate for non-normal a (a generator near an exceptional point).
    """
    a = np.asarray(a, dtype=complex)
    _, exponent = np.frexp(np.linalg.norm(a, 1))
    squarings = max(0, int(exponent) + 1)
    a = a / 2.0**squarings
    out = term = np.eye(a.shape[0], dtype=complex)
    for j in range(1, 17):
        term = term @ a / j
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def null_space_state(superop: np.ndarray, what: str) -> np.ndarray:
    """Unit-trace Hermitian 2x2 matrix spanning the kernel of a superoperator on row-major vec(rho).

    The kernel must be one-dimensional: the second-smallest singular value has to clear KERNEL_GAP_MIN.
    """
    _, s, vh = np.linalg.svd(superop)
    if s[-2] < KERNEL_GAP_MIN:
        raise NumericalError(f"degenerate {what}: singular values {s[-1]:.3e}, {s[-2]:.3e} (floor {KERNEL_GAP_MIN:g})")
    rho = vh.conj().T[:, -1].reshape(2, 2)
    return hermitize(rho / np.trace(rho))


def _clipped_spectrum(rho: np.ndarray) -> np.ndarray:
    w = np.linalg.eigvalsh(hermitize(np.asarray(rho, dtype=complex)))
    if np.min(w) < EIGENVALUE_FLOOR:
        raise ValueError(f"eigenvalue {np.min(w):.3e} below the tolerated floor {EIGENVALUE_FLOOR}")
    return np.clip(w, 0.0, None)


def von_neumann_entropy(rho: np.ndarray) -> float | np.ndarray:
    """S(rho) = -tr rho log rho in nats for a matrix or a stack (..., d, d); eigenvalues below 1e-14 contribute zero."""
    w = _clipped_spectrum(rho)
    kept = w > _LOG_CUTOFF
    s = -np.sum(np.where(kept, w * np.log(np.where(kept, w, 1.0)), 0.0), axis=-1)
    return float(s) if s.ndim == 0 else s


def relative_entropy(rho_prime: np.ndarray, rho: np.ndarray) -> float:
    """Quantum relative entropy tr[rho' log rho'] - tr[rho' log rho].

    Requires supp(rho') contained in supp(rho); weight of rho' on the null
    space of rho beyond SUPPORT_TOL raises.
    """
    rho_prime = np.asarray(rho_prime, dtype=complex)
    w, v = np.linalg.eigh(hermitize(np.asarray(rho, dtype=complex)))
    w = np.clip(w, 0.0, None)
    probs = np.real(np.einsum("ij,jk,ki->i", v.conj().T, rho_prime, v))
    null = w <= _LOG_CUTOFF
    leak = float(np.sum(probs[null]))
    if leak > SUPPORT_TOL:
        raise ValueError(f"support violation: rho' places weight {leak:.3e} outside supp(rho)")
    wp = _clipped_spectrum(rho_prime)
    wp = wp[wp > _LOG_CUTOFF]
    t1 = float(np.sum(wp * np.log(wp)))
    t2 = float(np.sum(probs[~null] * np.log(w[~null])))
    return t1 - t2


def coherence_relative_entropy(rho: np.ndarray) -> float:
    """Relative entropy of coherence S(diag(rho)) - S(rho) in the computational basis."""
    rho = np.asarray(rho, dtype=complex)
    return von_neumann_entropy(np.diag(np.diag(rho))) - von_neumann_entropy(rho)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance (1/2)||a - b||_1 for Hermitian a, b."""
    w = np.linalg.eigvalsh(hermitize(np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)))
    return float(0.5 * np.sum(np.abs(w)))
