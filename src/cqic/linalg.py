"""Dense linear algebra for small Hermitian operators.

Eigendecompositions and singular values come from LAPACK through
``numpy.linalg``.  Eigenvalues are returned in descending order and
eigenvector phases are canonicalized, so reruns on the same machine and
numpy/BLAS build give identical bytes; different BLAS builds may differ
in the last bits.
"""

from __future__ import annotations

import numpy as np

from .config import active_tolerances
from .errors import DimensionMismatch, NotHermitian, NumericalFailure


def _as_matrices(m) -> np.ndarray:
    arr = m.mat if hasattr(m, "mat") else m
    a = np.asarray(arr, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise NotHermitian(f"expected square matrices, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NotHermitian("matrix has non-finite entries")
    return a


def _as_matrix(m) -> np.ndarray:
    a = _as_matrices(m)
    if a.ndim != 2:
        raise NotHermitian(f"expected a square matrix, got shape {a.shape}")
    return a


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a†) / 2 of each matrix in ``a``, after checking it is Hermitian.

    The tolerance scales with each matrix's own largest entry, so a
    large matrix in a stack does not loosen the check on a small one.
    """
    tol = active_tolerances()
    ah = a.swapaxes(-1, -2).conj()
    dev = np.abs(a - ah).max(axis=(-2, -1))
    scale = np.abs(a).max(axis=(-2, -1))
    # dev > herm * max(1, scale), split in two because rounding is monotone;
    # this keeps the one-matrix case as cheap as scalar arithmetic
    if np.count_nonzero((dev > tol.herm) & (dev > tol.herm * scale)):
        raise NotHermitian("matrix is not Hermitian within tolerance")
    return (a + ah) / 2.0


def eig_hermitian(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` real and descending and
    ``v`` unitary, columns matching ``w``, so that ``m = v @ diag(w) @ v†``.
    Column phases are canonicalized (largest-magnitude entry real
    positive) so repeated runs agree exactly.
    """
    a = _hermitian_part(_as_matrix(m))
    n = a.shape[0]
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigh did not converge: {exc}") from exc

    order = np.argsort(-w, kind="stable")
    w = w[order]
    v = v[:, order]
    for j in range(n):
        k = int(np.argmax(np.abs(v[:, j])))
        piv = v[k, j]
        if abs(piv) > 0.0:
            v[:, j] *= piv.conjugate() / abs(piv)
    return w, v


def eigvals_hermitian(m) -> np.ndarray:
    """Descending eigenvalues of a Hermitian matrix or a stack ``(..., d, d)``.

    Every matrix gets the checks of :func:`eig_hermitian`, and the whole
    stack goes to LAPACK in one ``eigh`` call.  Each row is bit for bit
    ``eig_hermitian``'s ``w``, except that a tied 0.0 and -0.0 may swap
    places.  ``eigvalsh`` (no eigenvectors) would not be: its eigenvalues
    differ in the last bits from d = 3 on.
    """
    a = _hermitian_part(_as_matrices(m))
    try:
        w = np.linalg.eigh(a)[0]
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigh did not converge: {exc}") from exc
    return w[..., ::-1]


def tensor(a, b) -> np.ndarray:
    """Kronecker product; index of the first factor varies slowest."""
    return tensor_all((a, b))


def tensor_all(factors) -> np.ndarray:
    """Kronecker product of matrices, or row by row (bit for bit ``np.kron``)
    of stacks ``(..., d, d)`` whose leading axes broadcast."""
    out = _as_matrices(factors[0])
    for f in map(_as_matrices, factors[1:]):
        out = out[..., :, None, :, None] * f[..., None, :, None, :]
        n = out.shape[-4] * out.shape[-3]
        out = out.reshape(out.shape[:-4] + (n, n))
    return out


def partial_trace(rho, dims, keep):
    """Trace out the factors not listed in ``keep``, of a matrix or of each
    matrix of a stack ``(..., d, d)`` in one pass.

    ``dims`` are the tensor-factor dimensions in slowest-varying-first
    order; ``keep`` is a set of factor indices.  The relative order of
    kept factors is preserved.  Accepts a raw array or anything with a
    ``.mat`` attribute, and returns the same kind.
    """
    arr = _as_matrices(rho)
    dims = [int(d) for d in dims]
    keep_sorted = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep_sorted):
        raise DimensionMismatch("keep indices outside factor range")
    if int(np.prod(dims)) != arr.shape[-1]:
        raise DimensionMismatch(
            f"factor dims {dims} do not match operator dim {arr.shape[-1]}")
    traced = [i for i in range(len(dims)) if i not in keep_sorted]
    t = arr.reshape(arr.shape[:-2] + tuple(dims) + tuple(dims))
    cur = list(range(len(dims)))
    for factor in sorted(traced, reverse=True):
        pos = arr.ndim - 2 + cur.index(factor)
        t = np.trace(t, axis1=pos, axis2=pos + len(cur))
        cur.remove(factor)
    d_keep = int(np.prod([dims[i] for i in keep_sorted])) if keep_sorted else 1
    out = np.ascontiguousarray(t.reshape(arr.shape[:-2] + (d_keep, d_keep)))
    if hasattr(rho, "mat"):
        from .states import DensityOperator
        return DensityOperator(out)
    return out


def singular_values(a) -> np.ndarray:
    """Singular values (descending) of a matrix or a stack ``(..., d, d)``."""
    try:
        return np.linalg.svd(_as_matrices(a), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"svd did not converge: {exc}") from exc


def trace_norm(a) -> float:
    """Sum of singular values."""
    return float(np.sum(singular_values(_as_matrix(a))))


def operator_norm(a) -> float:
    """Largest singular value."""
    sv = singular_values(_as_matrix(a))
    return float(sv[0]) if sv.size else 0.0
