"""Compressed sparse row matrices and the few kernels the solver needs.

The matrix-vector product is delegated to scipy's CSR kernel (sequential
per-row accumulation, bitwise deterministic).  It is the one sparse
operation per sweep in :func:`srj.solver.run_srj`, which carries the
residual ``b - A x`` between sweeps and takes its norm itself.
Everything else here is bookkeeping: validation, diagonal extraction for
the Jacobi splitting, a standalone residual norm for checking a result,
and Matrix Market import/export.  scipy is imported where a matrix is
first built, so code that only derives or looks up schemes (``import
srj``, ``srj derive``) never pays its load time and memory.
"""

from dataclasses import dataclass, field

import numpy as np


class SingularSplittingError(ValueError):
    """A diagonal entry needed by the Jacobi splitting is missing or zero."""


@dataclass
class CsrMatrix:
    """CSR matrix with validated structure.

    ``row_offsets`` has length ``n_rows + 1`` and is nondecreasing;
    column indices are strictly increasing within each row.  Instances
    are treated as immutable after construction.
    """

    n_rows: int
    n_cols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray
    _backend: "scipy.sparse.csr_matrix" = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        self.row_offsets = np.ascontiguousarray(self.row_offsets, dtype=np.int64)
        self.col_indices = np.ascontiguousarray(self.col_indices, dtype=np.int64)
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if self.row_offsets.shape != (self.n_rows + 1,):
            raise ValueError("row_offsets must have length n_rows + 1")
        if self.row_offsets[0] != 0 or self.row_offsets[-1] != self.col_indices.size:
            raise ValueError("row_offsets must start at 0 and end at nnz")
        if np.any(np.diff(self.row_offsets) < 0):
            raise ValueError("row_offsets must be nondecreasing")
        if self.col_indices.size != self.values.size:
            raise ValueError("col_indices and values must have equal length")
        if self.col_indices.size:
            if self.col_indices.min() < 0 or self.col_indices.max() >= self.n_cols:
                raise ValueError("column index out of range")
            # Strict increase within rows: every adjacent pair must grow
            # unless it straddles a row boundary.
            inner = np.ones(self.col_indices.size - 1, dtype=bool)
            starts = self.row_offsets[1:-1]
            starts = starts[(starts >= 1) & (starts <= self.col_indices.size - 1)]
            inner[starts - 1] = False
            if np.any(self.col_indices[1:][inner] <= self.col_indices[:-1][inner]):
                raise ValueError("column indices must be strictly increasing within each row")

    @property
    def nnz(self):
        return self.col_indices.size

    @property
    def scipy(self):
        if self._backend is None:
            import scipy.sparse

            self._backend = scipy.sparse.csr_matrix(
                (self.values, self.col_indices, self.row_offsets),
                shape=(self.n_rows, self.n_cols),
            )
        return self._backend

    @classmethod
    def from_scipy(cls, matrix):
        import scipy.sparse

        csr = scipy.sparse.csr_matrix(matrix)
        csr.sort_indices()
        csr.eliminate_zeros()
        return cls(
            n_rows=csr.shape[0],
            n_cols=csr.shape[1],
            row_offsets=csr.indptr,
            col_indices=csr.indices,
            values=csr.data,
        )

    @classmethod
    def from_dense(cls, dense):
        return cls.from_scipy(np.asarray(dense, dtype=float))

    def to_dense(self):
        return self.scipy.toarray()

    def diagonal(self):
        return self.scipy.diagonal()


def spmv(A, x):
    """Row-wise CSR product A @ x with deterministic accumulation order."""
    x = np.asarray(x, dtype=float)
    if x.shape != (A.n_cols,):
        raise ValueError(f"dimension mismatch: matrix is {A.n_rows}x{A.n_cols}, vector has shape {x.shape}")
    return A.scipy @ x


def residual_norm(A, x, b):
    """Euclidean norm of b - A @ x."""
    b = np.asarray(b, dtype=float)
    if b.shape != (A.n_rows,):
        raise ValueError(f"dimension mismatch: matrix is {A.n_rows}x{A.n_cols}, rhs has shape {b.shape}")
    return float(np.linalg.norm(b - spmv(A, x)))


def jacobi_split(A):
    """Reciprocal diagonal of A, validating the splitting is usable.

    The relaxed update is applied in residual form,
    ``x + omega * inv_diag * (b - A x)``, which is algebraically the
    weighted average of the current iterate and the Jacobi update.
    """
    if A.n_rows != A.n_cols:
        raise SingularSplittingError("Jacobi splitting needs a square matrix")
    diag = A.diagonal()
    bad = np.flatnonzero(diag == 0.0)
    if bad.size:
        raise SingularSplittingError(f"zero or missing diagonal in row {bad[0]}")
    return 1.0 / diag


def write_matrix_market(A, path):
    import scipy.io

    scipy.io.mmwrite(str(path), A.scipy)


def read_matrix_market(path):
    import scipy.io

    return CsrMatrix.from_scipy(scipy.io.mmread(str(path)))
