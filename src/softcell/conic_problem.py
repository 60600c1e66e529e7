"""Block-structured conic programs over nonnegative scalars and Hermitian PSD matrices.

A :class:`ConicProblem` is the standard form shared by every optimization in
this package:

    minimize    sum_B <c_B, x_B>
    subject to  sum_B <a_B, x_B>  (<= | >=)  rhs,   per constraint
                x_B in K_B for every block B

where each block is either a vector of nonnegative scalars or a complex
Hermitian positive-semidefinite matrix, and <., .> is the real dot product
for scalar blocks and the trace inner product Re tr(A^H X) for matrix blocks.
Coefficients on PSD blocks must be Hermitian, which keeps the inner product
real-valued.  Coefficients are stored as given, not copied, so one array may
serve several blocks or rows; the caller must not modify it afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import InvalidInputError

NONNEG = "nonneg_scalar"
PSD = "psd_matrix"

# Elementwise Hermiticity tolerance for PSD-block coefficients.
HERM_TOL = 1e-12


@dataclass(frozen=True)
class Block:
    """One variable block: `dim` nonnegative scalars or a dim x dim PSD matrix."""

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in (NONNEG, PSD):
            raise InvalidInputError(f"unknown block kind {self.kind!r}")
        if self.dim < 1:
            raise InvalidInputError("block dimension must be >= 1")

    @property
    def svec_dim(self) -> int:
        """Number of real coordinates the block occupies in vectorized form."""
        return self.dim if self.kind == NONNEG else self.dim * self.dim


@dataclass
class LinearConstraint:
    """One scalar constraint: sum over blocks of <coeff_B, x_B>  sense  rhs."""

    coeffs: dict[int, np.ndarray]
    sense: str  # "<=" or ">="
    rhs: float


@dataclass
class ConicProblem:
    blocks: list[Block]
    objective: dict[int, np.ndarray] = field(default_factory=dict)
    constraints: list[LinearConstraint] = field(default_factory=list)

    def set_objective(self, coeffs: dict[int, np.ndarray]) -> None:
        self.objective = {b: self._check_coeff(b, m, "objective") for b, m in coeffs.items()}

    def add_constraint(self, coeffs: dict[int, np.ndarray], sense: str, rhs: float) -> int:
        """Append a constraint and return its index."""
        if sense not in ("<=", ">="):
            raise InvalidInputError(f"unknown constraint sense {sense!r}")
        if not np.isfinite(rhs):
            raise InvalidInputError("constraint right-hand side must be finite")
        clean = {b: self._check_coeff(b, m, f"constraint {len(self.constraints)}") for b, m in coeffs.items()}
        self.constraints.append(LinearConstraint(clean, sense, float(rhs)))
        return len(self.constraints) - 1

    def _check_coeff(self, block_index: int, coeff, context: str) -> np.ndarray:
        if not 0 <= block_index < len(self.blocks):
            raise InvalidInputError(f"{context}: no block with index {block_index}")
        blk = self.blocks[block_index]
        if blk.kind == NONNEG:
            vec = np.atleast_1d(np.asarray(coeff, dtype=float))
            if vec.shape != (blk.dim,):
                raise InvalidInputError(f"{context}: expected length-{blk.dim} vector on block {block_index}")
            return vec
        mat = np.asarray(coeff, dtype=complex)
        if mat.shape != (blk.dim, blk.dim):
            raise InvalidInputError(f"{context}: expected {blk.dim}x{blk.dim} matrix on block {block_index}")
        asym = np.abs(mat - mat.conj().T).max()
        if asym == 0:
            return mat
        if asym > HERM_TOL * max(1.0, float(np.abs(mat).max())):
            raise InvalidInputError(f"{context}: coefficient on PSD block {block_index} is not Hermitian")
        # Symmetrize so downstream vectorization sees an exactly Hermitian matrix.
        return 0.5 * (mat + mat.conj().T)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

