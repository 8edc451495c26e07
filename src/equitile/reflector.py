"""Complex elementary unitary matrices as rank-one updates of the identity.

An elementary unitary H maps the first standard basis vector f into the
direction of a prescribed vector x:

    H f = (beta / ||x||) x        H' x = (||x|| / beta) f

where beta is a free unit-modulus phase. For real x and beta = -sign(x[0])
this reduces to the classic Householder reflector. H is stored as
H = I + coeff * y y' with a unit vector y, so storage is O(n) and
application to an n-by-m matrix costs O(n m).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import opcount
from .errors import InputError

#: elementwise tolerance (relative to ||x||) for the identity branch,
#: where the rank-one denominator vanishes exactly
BRANCH_TOL = 1e-14

PHASE_TOL = 1e-12


def _as_vector(x) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 1 or x.size == 0:
        raise InputError(f"expected a non-empty 1-d vector, got shape {x.shape}")
    if x.dtype.kind in "iub":
        x = x.astype(np.float64)
    if not np.all(np.isfinite(x)):
        raise InputError("vector entries must be finite")
    return x


def _unit_scaled(x: np.ndarray) -> np.ndarray:
    """x times the power of two that brings its largest component into [0.5, 1).

    Squares of the scaled entries can neither overflow nor underflow to
    zero, as in LAPACK's dznrm2. The scaling is exact, and every quantity
    built from x is homogeneous of degree zero, so it removes over- and
    underflow and nothing else. The zero vector is returned as is.
    """
    s = max(np.abs(x.real).max(), np.abs(x.imag).max()) if np.iscomplexobj(x) \
        else np.abs(x).max()
    if s == 0:
        return x
    e = -int(np.frexp(s)[1])
    if not np.iscomplexobj(x):
        return np.ldexp(x, e)
    out = np.empty_like(x)
    out.real = np.ldexp(x.real, e)
    out.imag = np.ldexp(x.imag, e)
    return out


def _check_phase(beta: complex) -> complex:
    beta = complex(beta)
    if not np.isfinite(beta) or abs(abs(beta) - 1.0) > PHASE_TOL:
        raise InputError(f"phase must have unit modulus, got |beta| = {abs(beta)!r}")
    return beta


def beta0(x) -> complex:
    """Default phase choice: -conj(x[0])/|x[0]|, or 1 when x[0] = 0.

    Avoids cancellation in the rank-one denominator and coincides with the
    standard sign convention for real Householder vectors. The phase is
    taken from x[0]/max(|Re x[0]|, |Im x[0]|), so subnormal and huge
    entries do not overflow.
    """
    x = _as_vector(x)
    x1 = complex(x[0])
    s = max(abs(x1.real), abs(x1.imag))
    if s == 0:
        return 1.0 + 0.0j
    u = complex(x1.real / s, x1.imag / s)
    return -u.conjugate() / abs(u)


def gamma(x, beta) -> float:
    """Skew parameter of the elementary unitary sending f towards x.

    gamma(x, beta) = pinv(||x|| - Re(beta*x[0])) * Im(beta*x[0]), where the
    scalar pseudo-inverse maps 0 to 0.
    """
    x = _unit_scaled(_as_vector(x))
    nrm = np.linalg.norm(x)
    if nrm == 0:
        raise InputError("gamma is undefined for the zero vector")
    z = _check_phase(beta) * complex(x[0])
    a = nrm - z.real
    return 0.0 if a == 0 else z.imag / a


@dataclass(frozen=True, eq=False)
class ElementaryUnitary:
    """Unitary H = I + coeff * y y' with unit vector y (or H = I)."""

    dim: int
    y: np.ndarray | None
    coeff: complex

    @property
    def kind(self) -> str:
        return "identity" if self.y is None else "rank_one"

    def matvec(self, v) -> np.ndarray:
        """Compute H v."""
        v = np.asarray(v)
        if v.shape != (self.dim,):
            raise InputError(f"vector of length {self.dim} required, got {v.shape}")
        if self.y is None:
            return v.copy()
        opcount.add(2 * self.dim)
        return v + (self.coeff * np.vdot(self.y, v)) * self.y

    def apply_left(self, M) -> np.ndarray:
        """Compute H' M for an n-by-m matrix M."""
        M = np.asarray(M)
        if M.ndim != 2 or M.shape[0] != self.dim:
            raise InputError(f"matrix with {self.dim} rows required, got {M.shape}")
        if self.y is None:
            return M.copy()
        y = self.y
        t = y.conj() @ M
        opcount.add(2 * self.dim * M.shape[1] + self.dim)
        return M + np.outer(np.conj(self.coeff) * y, t)

    def apply_right(self, M) -> np.ndarray:
        """Compute M H for an m-by-n matrix M."""
        M = np.asarray(M)
        if M.ndim != 2 or M.shape[1] != self.dim:
            raise InputError(f"matrix with {self.dim} columns required, got {M.shape}")
        if self.y is None:
            return M.copy()
        y = self.y
        t = M @ y
        opcount.add(2 * self.dim * M.shape[0] + self.dim)
        return M + np.outer(t, self.coeff * y.conj())

    def dense(self) -> np.ndarray:
        if self.y is None:
            return np.eye(self.dim)
        return np.eye(self.dim, dtype=self.y.dtype) + self.coeff * np.outer(
            self.y, self.y.conj()
        )


def build_reflector(x, beta=None) -> ElementaryUnitary:
    """Construct the elementary unitary H with H f = (beta/||x||) x.

    Parameters
    ----------
    x : complex vector, ||x|| > 0
    beta : unit-modulus scalar, or None for the default beta0(x)

    The identity branch is taken when x/||x|| equals conj(beta) f
    elementwise within BRANCH_TOL * ||x||; there the rank-one denominator
    vanishes exactly. H depends on the direction of x only, so x is first
    scaled by a power of two: any finite nonzero x works.
    """
    x = _unit_scaled(_as_vector(x))
    tail_energy = float(np.real(np.vdot(x[1:], x[1:])))
    nrm = float(np.sqrt(abs(x[0]) ** 2 + tail_energy))
    if nrm == 0:
        raise InputError("cannot build a reflector from the zero vector")
    if beta is None:
        beta = beta0(x)
    beta = _check_phase(beta)

    real_case = x.dtype.kind == "f" and beta.imag == 0.0

    # pivot w = beta*x[0] - ||x||, computed without cancellation when the
    # two terms nearly agree: the difference then carries only the tail
    # energy and the imaginary part of beta*x[0]
    if real_case:
        b = beta.real
        z = float(b * x[0])
        w = -tail_energy / (z + nrm) if z > 0 else z - nrm
        y0 = x.astype(np.float64)
        y0[0] = b * w
        den = nrm * w
    else:
        b = beta
        z = complex(b * x[0])
        if z.real > 0:
            w = (2j * z * z.imag - tail_energy) / (z + nrm)
        else:
            w = z - nrm
        y0 = x.astype(np.complex128)
        y0[0] = np.conj(b) * w
        den = nrm * np.conj(w)

    if np.abs(y0).max() <= BRANCH_TOL * nrm:
        return ElementaryUnitary(dim=x.size, y=None, coeff=0.0)

    ynrm = np.linalg.norm(y0)
    y = y0 / ynrm
    coeff = ynrm**2 / den
    y.setflags(write=False)
    return ElementaryUnitary(dim=x.size, y=y, coeff=coeff)


def apply_left(h: ElementaryUnitary, M) -> np.ndarray:
    """H' M."""
    return h.apply_left(M)


def apply_right(M, h: ElementaryUnitary) -> np.ndarray:
    """M H."""
    return h.apply_right(M)


def dense(h: ElementaryUnitary) -> np.ndarray:
    return h.dense()
