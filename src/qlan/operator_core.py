"""Dense operator primitives: validation, metrics, and qubit helpers.

All states are plain complex ``numpy`` arrays.  The conventions are fixed
here once: the trace norm is taken *without* the 1/2, and the fidelity of
two qubits is the squared fidelity of their Bloch vectors.  The LAN
channels keep the same trace norm but diagonalize their own chunked stacks
(``lan_channels._trace_norms``).
"""

from __future__ import annotations

import numpy as np

from .tolerances import VALIDATION_TOL

def validate_density(m) -> np.ndarray:
    """Check that ``m`` is a density matrix and return it as a complex array.

    Raises ``ValueError`` naming the violated invariant (shape, Hermiticity,
    trace, or positivity) together with the size of the violation.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {m.shape}")
    herm_dev = float(np.max(np.abs(m - m.conj().T)))
    if herm_dev > VALIDATION_TOL:
        raise ValueError(
            f"matrix is not Hermitian: max |m - m^dag| = {herm_dev:.3e} "
            f"exceeds {VALIDATION_TOL:.1e}"
        )
    trace_dev = abs(complex(np.trace(m)) - 1.0)
    if trace_dev > VALIDATION_TOL:
        raise ValueError(
            f"trace differs from 1 by {trace_dev:.3e}, exceeds {VALIDATION_TOL:.1e}"
        )
    w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    if w[0] < -VALIDATION_TOL:
        raise ValueError(
            f"negative eigenvalue {w[0]:.3e} below allowed floor -{VALIDATION_TOL:.1e}"
        )
    return m


def trace_norm_distance(a, b) -> float:
    """Tr |a - b| for Hermitian ``a``, ``b`` of equal shape.

    For qubit states this equals the Euclidean distance between Bloch
    vectors (so orthogonal pure states are at distance 2).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    d = a - b
    d = 0.5 * (d + d.conj().T)  # inputs are Hermitian; kill rounding skew
    return float(np.sum(np.abs(np.linalg.eigvalsh(d))))


def embed_block(mat: np.ndarray, dim: int) -> np.ndarray:
    """Zero-pad the trailing two axes of ``mat`` (one matrix or a stack of
    them) to dim x dim, keeping it in the top-left corner.  The padding
    changes no trace norm."""
    d = mat.shape[-1]
    if dim < d:
        raise ValueError(f"dim = {dim} < block dimension {d}")
    return np.pad(mat, [(0, 0)] * (mat.ndim - 2) + [(0, dim - d)] * 2)


def density_to_bloch(rho) -> np.ndarray:
    """Bloch vector (r_x, r_y, r_z) of a qubit state rho = (I + r . sigma) / 2."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {rho.shape}")
    rx = 2.0 * rho[1, 0].real
    ry = 2.0 * rho[1, 0].imag
    rz = (rho[0, 0] - rho[1, 1]).real
    return np.array([rx, ry, rz])


def qubit_fidelity_sq(r, s) -> np.ndarray:
    """Squared fidelity between qubit states given as Bloch vectors.

    F^2 = (1 + r.s + sqrt((1-|r|^2)(1-|s|^2))) / 2.  Either argument may
    be a (3, B) batch, components first: B vectors, one per column.
    """
    rx, ry, rz = np.asarray(r, dtype=float)
    sx, sy, sz = np.asarray(s, dtype=float)
    dot = (rx * sx + ry * sy) + rz * sz
    gr = 1.0 - ((rx * rx + ry * ry) + rz * rz)
    gs = 1.0 - ((sx * sx + sy * sy) + sz * sz)
    # |r| can exceed 1 by rounding after projections; clip the radicand.
    rad = np.clip(gr, 0.0, None) * np.clip(gs, 0.0, None)
    f2 = 0.5 * (1.0 + dot + np.sqrt(rad))
    return np.clip(f2, 0.0, 1.0)
