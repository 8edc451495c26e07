"""Norms of deviation matrices, minimality of the quotient, and Weyl bounds.

The off-diagonal blocks of the transformed matrix share their singular
values with the deviation matrices, so any unitarily invariant norm of the
deviation quantifies how far the partition is from equitable, and for
Hermitian input the spectral norm bounds the eigenvalue perturbation of
the joint E/F spectrum against the spectrum of A. Residuals are partition's.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .partition import (
    WeightedIndicator,
    _Sums,
    _block_norms,
    _frobenius,
    _layout,
    _matrix,
    _scaled,
    _square,
)
from .triangularize import (DeviationMatrix, TriangularizationResult, _hermitian_part,
                            _is_hermitian, _singular_values)

#: a column counts as nonzero when its norm exceeds this times the
#: Frobenius norm of the whole matrix
NONZERO_COLUMN_RTOL = 1e-13

#: weyl_check (and `equitile split`) takes A as Hermitian when
#: max|A - A'| <= WEYL_HERMITIAN_RTOL * max(1, max|A|)
WEYL_HERMITIAN_RTOL = 1e-10

#: weyl_check's slack over the bound, relative to ||A||_F
WEYL_SLACK_RTOL = 1e-10


def _schatten(M: np.ndarray) -> dict:
    """Frobenius, spectral and nuclear norm of M from one SVD."""
    s = _singular_values(M)
    t, e = _scaled(s)
    return {"frobenius": float(np.ldexp(np.sqrt((t**2).sum()), -e)),
            "spectral": float(s.max(initial=0.0)), "nuclear": float(s.sum())}


@dataclass(frozen=True, eq=False)
class DeviationReport:
    """Schatten norms and sparsity summary of a deviation matrix."""

    frobenius: float
    spectral: float
    nuclear: float
    nonzero_columns: int
    per_block_norms: np.ndarray

    def to_dict(self) -> dict:
        return {
            "frobenius": self.frobenius,
            "spectral": self.spectral,
            "nuclear": self.nuclear,
            "nonzero_columns": self.nonzero_columns,
            "per_block": self.per_block_norms.tolist(),
        }


def deviation_report(T: DeviationMatrix) -> DeviationReport:
    """Summarize a deviation matrix: all norms come from one SVD.

    The nonzero column count upper-bounds the rank; the squared Frobenius
    norm equals the sum of squared deviation-vector norms. The per-block
    norms are the verdict's partition._block_norms over the layout rows,
    O(N k). T is scaled by a power of two before it is squared when its
    magnitude needs it (partition._scaled), so all hold at any magnitude.
    """
    M = np.asarray(T.assembled)
    norms = _schatten(M)
    S, e = _scaled(M)
    col_norms = np.linalg.norm(S, axis=0)
    np.ldexp(col_norms, -e, out=col_norms)
    nonzero = int((col_norms > NONZERO_COLUMN_RTOL * norms["frobenius"]).sum())
    lay = _layout(T.partition)
    per_block = _block_norms(M[lay.order], lay.starts)
    if T.side == "rear":
        per_block = per_block.T
    per_block.setflags(write=False)
    return DeviationReport(**norms, nonzero_columns=nonzero, per_block_norms=per_block)


def theta_residual(A, wi: WeightedIndicator, Theta, side: str = "front",
                   norm_kind: str = "frobenius") -> float:
    """Norm of the equitability residual for an arbitrary candidate quotient.

    front: ||(A W - W Theta) (W'W)^{-1/2}||, rear: ||(W'W)^{-1/2} (W'A - Theta W')||,
    in the "frobenius", "spectral" or "nuclear" norm. Over all Theta this is
    minimized exactly at the respective quotient.

    The residual is partition._Sums.residual, the one behind the deviation
    matrices, from one aggregate pass in layout rows; the rear one is taken
    in its conjugate transpose, which has the same singular values.
    """
    if norm_kind not in ("frobenius", "spectral", "nuclear"):
        raise InputError(f"unknown norm kind {norm_kind!r}")
    Theta = _matrix(Theta, (wi.partition.k, wi.partition.k))
    D = _Sums(A, wi).residual(side, Theta)
    # an SVD only if needed
    return _frobenius(D) if norm_kind == "frobenius" else _schatten(D)[norm_kind]


@dataclass(frozen=True, eq=False)
class PerturbationCheck:
    """Joint E/F spectrum against the spectrum of A with the Weyl bound."""

    joint_spectrum: np.ndarray
    reference: np.ndarray
    tau_spec: float
    max_gap: float
    holds: bool


def weyl_check(A, r: TriangularizationResult) -> PerturbationCheck:
    """Verify |mu_i - lambda_i| <= tau for Hermitian A.

    mu is the sorted real part of the joint spectrum of E and F (r.spectra),
    lambda the sorted spectrum of A, and tau = r.tau_spec the largest
    singular value over both off-diagonal blocks. Pairing is strictly by
    sorted order. Input that is not Hermitian within WEYL_HERMITIAN_RTOL is
    refused since the bound requires Hermiticity. The slack is WEYL_SLACK_RTOL
    times ||A||_F, taken as the 2-norm of lambda (Hermitian A) at any scale.
    """
    A = _square(A, r.n)
    if not _is_hermitian(A, WEYL_HERMITIAN_RTOL):
        raise InputError("Weyl bound requires a Hermitian matrix")
    lam = np.sort(np.linalg.eigvalsh(_hermitian_part(A)))
    mu = np.sort(np.concatenate(r.spectra).real)
    gap = float(np.abs(mu - lam).max()) if lam.size else 0.0
    slack = WEYL_SLACK_RTOL * _frobenius(lam)
    mu.setflags(write=False)
    lam.setflags(write=False)
    return PerturbationCheck(joint_spectrum=mu, reference=lam, tau_spec=r.tau_spec,
                             max_gap=gap, holds=bool(gap <= r.tau_spec + slack))
