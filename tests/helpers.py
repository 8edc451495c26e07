"""Shared test data and oracles.

A0 is a 6x6 integer matrix that is front equitable with respect to the
partition (1 | 2,6 | 3,4,5) in 1-based labels. The expected transform
blocks below are exact closed forms, cross-checked in the tests against
spectrum and norm preservation, which any unitary similarity must obey.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

import equitile as eq
from equitile.errors import InputError
from equitile.mmio import MatrixFile
from equitile.rectangular import assemble_block_diagonal

A0 = np.array(
    [
        [1, 2, 3, 3, 3, 2],
        [2, 4, 3, 1, 2, 1],
        [3, 3, 1, 4, 1, 1],
        [3, 1, 4, 0, 2, 3],
        [3, 2, 1, 2, 3, 2],
        [2, 1, 1, 3, 2, 4],
    ],
    dtype=float,
)

PI0_CELLS = ((0,), (1, 5), (2, 3, 4))

# forward relabeling map that makes the cells contiguous: 3<->6 in 1-based terms
P0_FORWARD = np.array([0, 1, 5, 3, 4, 2])

A_SUIT = np.array(
    [
        [1, 2, 2, 3, 3, 3],
        [2, 4, 1, 1, 2, 3],
        [2, 1, 4, 3, 2, 1],
        [3, 1, 3, 0, 2, 4],
        [3, 2, 2, 2, 3, 1],
        [3, 3, 1, 4, 1, 1],
    ],
    dtype=float,
)

EMINUS = np.array([[1, 4, 9], [2, 5, 6], [3, 4, 6]], dtype=float)

_s2, _s3, _s6 = np.sqrt(2.0), np.sqrt(3.0), np.sqrt(6.0)

E_HAT = np.array(
    [
        [1, 4 / _s2, 9 / _s3],
        [4 / _s2, 5, 6 * _s2 / _s3],
        [9 / _s3, 6 * _s2 / _s3, 6],
    ]
)

F_HAT = np.array(
    [
        [3, (_s2 - _s6) / 2, -(_s2 + _s6) / 2],
        [(_s2 - _s6) / 2, _s3 - 1, -2],
        [-(_s2 + _s6) / 2, -2, -_s3 - 1],
    ]
)

H2_DENSE = -(1 / _s2) * np.array([[1.0, 1.0], [1.0, -1.0]])

H3_DENSE = -(1 / _s3) * np.array(
    [
        [1, 1, 1],
        [1, (1 + _s3) / -2, (1 - _s3) / -2],
        [1, (1 - _s3) / -2, (1 + _s3) / -2],
    ]
)


def a_hat_expected() -> np.ndarray:
    out = np.zeros((6, 6))
    out[:3, :3] = E_HAT
    out[3:, 3:] = F_HAT
    return out


def eum_dense(g: float, y) -> np.ndarray:
    """Rank-one unitary U(g, y) = I - 2/(1+ig) * pinv(y'y) * y y'."""
    y = np.asarray(y, dtype=complex)
    yy = np.vdot(y, y).real
    if yy == 0:
        return np.eye(len(y), dtype=complex)
    c = 2.0 / ((1.0 + 1j * g) * yy)
    return np.eye(len(y), dtype=complex) - c * np.outer(y, y.conj())


def random_partition(rng, n: int, k: int | None = None) -> eq.Partition:
    """Random partition of {0..n-1} into exactly k non-empty cells."""
    if k is None:
        k = int(rng.integers(1, n + 1))
    labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
    rng.shuffle(labels)
    return eq.Partition.from_labels(labels)


def random_weights(rng, p: eq.Partition, complex_weights: bool = True) -> np.ndarray:
    """Admissible weights: every entry bounded away from zero."""
    mag = rng.uniform(0.5, 2.0, size=p.n)
    if complex_weights:
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi, size=p.n))
        return mag * phase
    return mag * rng.choice([-1.0, 1.0], size=p.n)


def random_complex_matrix(rng, m: int, n: int | None = None) -> np.ndarray:
    n = m if n is None else n
    return rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))


def random_hermitian(rng, n: int, complex_entries: bool = True) -> np.ndarray:
    M = random_complex_matrix(rng, n) if complex_entries else rng.normal(size=(n, n))
    return (M + M.conj().T) / 2.0


def planted_equitable(rng, k: int, sizes, complex_entries: bool = True,
                      noise: float = 1.0):
    """Block matrix with constant block row sums plus row-sum-free noise.

    Returns (A, partition, quotient): A is front equitable with front
    quotient exactly the drawn Theta.
    """
    sizes = list(sizes)
    n = sum(sizes)
    Theta = random_complex_matrix(rng, k) if complex_entries else rng.normal(size=(k, k))
    A = np.zeros((n, n), dtype=complex if complex_entries else float)
    offs = np.concatenate([[0], np.cumsum(sizes)])
    for i in range(k):
        for j in range(k):
            block = np.full((sizes[i], sizes[j]), Theta[i, j] / sizes[j])
            if noise and sizes[j] > 1:
                R = random_complex_matrix(rng, sizes[i], sizes[j]) if complex_entries \
                    else rng.normal(size=(sizes[i], sizes[j]))
                R = R - R.mean(axis=1, keepdims=True)
                block = block + noise * R
            A[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = block
    cells = [tuple(range(offs[i], offs[i + 1])) for i in range(k)]
    return A, eq.Partition.from_cells(cells), Theta


def all_partitions(n: int):
    """All set partitions of {0..n-1} in canonical cell order."""
    def rec(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for sub in rec(rest):
            yield [[first]] + [list(c) for c in sub]
            for i in range(len(sub)):
                out = [list(c) for c in sub]
                out[i] = [first] + out[i]
                yield out
    for cells in rec(list(range(n))):
        yield eq.Partition.from_cells(cells).canonical()


def random_blocks(rng, k, max_rows=5, complex_entries=True):
    """Full-column-rank random blocks; columns never exceed rows."""
    blocks = []
    for _ in range(k):
        m = int(rng.integers(1, max_rows + 1))
        q = int(rng.integers(1, m + 1))
        W = random_complex_matrix(rng, m, q) if complex_entries \
            else rng.normal(size=(m, q))
        blocks.append(W)
    return blocks


def twist_block_svd(rng, bs: eq.BlockSVD) -> eq.BlockSVD:
    """Another valid factorization: matched diagonal phases on U and V."""
    us, vs = [], []
    for u, s, v in zip(bs.u_blocks, bs.sigma_blocks, bs.v_blocks):
        m, q = u.shape[0], v.shape[0]
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=m))
        us.append(u * phases[None, :])
        vs.append(v * phases[:q][None, :])
    return eq.BlockSVD(
        u_blocks=tuple(us),
        sigma_blocks=bs.sigma_blocks,
        v_blocks=tuple(vs),
        omega=bs.omega,
        source_blocks=bs.source_blocks,
    )


def charpoly_eigenvalues(A) -> np.ndarray:
    """Eigenvalues via characteristic polynomial coefficients.

    Coefficients come from the Faddeev-LeVerrier recurrence, roots from the
    companion matrix of the polynomial; independent of a direct
    eigendecomposition of A.
    """
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    M = np.zeros_like(A)
    coeffs = [1.0 + 0j]
    I = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        M = A @ M + coeffs[-1] * I
        coeffs.append(-(A @ M).trace() / k)
    return np.roots(np.array(coeffs))


def sorted_complex(values) -> np.ndarray:
    return np.sort_complex(np.asarray(values, dtype=complex).ravel())


def dense_aggregates(A, wi: eq.WeightedIndicator, Theta) -> dict:
    """Every cell aggregate from the dense indicator W: the kernel's oracle.

    Built only from wi.matrix(), indicator_matrix and products such as
    A @ W, so it shares no code with the segment-sum kernel. Per-block
    norms are B'|T|^2 with the 0/1 indicator B. Theta is the candidate
    quotient of the theta residuals.
    """
    A = np.asarray(A)
    if A.dtype.kind in "iub":
        A = A.astype(float)
    p = wi.partition
    W = wi.matrix()
    B = eq.indicator_matrix(p)
    n2 = np.real(np.diag(W.conj().T @ W))
    nrm = np.sqrt(n2)
    M = W.conj().T @ A @ W
    T_front = (A @ W - W @ (M / n2[:, None])) / nrm
    T_rear = (A.conj().T @ W - W @ (M.conj().T / n2[:, None])) / nrm
    S = A @ B  # plain row sums of every block
    same_cell = (B @ B.T) > 0
    spreads = np.abs(S[:, None, :] - S[None, :, :]).max(axis=2)
    zero_counts = B.T @ (np.abs(S) == 0)
    quotients = {}
    for alpha in (-1.0, 0.0, 0.3, 1.0):
        quotients[alpha] = np.diag(nrm ** (alpha - 1)) @ M @ np.diag(nrm ** (-alpha - 1))
    return {
        "front_residuals": np.sqrt(B.T @ np.abs(T_front) ** 2),
        "rear_residuals": np.sqrt(B.T @ np.abs(T_rear) ** 2).T,
        "epsilon": float(spreads[same_cell].max()),
        "regular": bool(np.all((zero_counts == 0) | (zero_counts == B.sum(axis=0)[:, None]))),
        "quotients": quotients,
        "T_front": T_front,
        "T_rear": T_rear,
        "theta_front": np.linalg.norm((A @ W - W @ Theta) / nrm),
        "theta_rear": np.linalg.norm((W.conj().T @ A - Theta @ W.conj().T) / nrm[:, None]),
    }


def refine_oracle(A, initial: eq.Partition | None = None) -> eq.Partition:
    """Coarsest front equitable refinement by a naive fixpoint: refinement's oracle.

    Signatures are the rows of A @ indicator_matrix(part); the members of
    each cell are grouped by their exact signature tuples until no cell
    splits. Exact for integer-valued A.
    """
    A = np.asarray(A)
    part = eq.Partition.single_cell(A.shape[0]) if initial is None else initial
    while True:
        S = A @ eq.indicator_matrix(part)
        groups: dict[tuple, list[int]] = {}
        for i, cell in enumerate(part.cells):
            for v in cell:
                groups.setdefault((i, tuple(S[v])), []).append(v)
        finer = eq.Partition.from_cells(groups.values()).canonical()
        if finer.k == part.k:
            return finer
        part = finer


def gram_column_basis(blocks) -> np.ndarray:
    """Block diagonal of the isometries W (W'W)^{-1/2}: the column-basis oracle.

    Each Gram root comes from a Hermitian eigendecomposition of W'W, so it
    shares no code with the per-block SVDs of the library.
    """
    parts = []
    for W in blocks:
        W = np.asarray(W)
        lam, Q = np.linalg.eigh(W.conj().T @ W)
        parts.append(W @ (Q * lam**-0.5) @ Q.conj().T)
    return assemble_block_diagonal(parts)


class BlockwiseReflector:
    """BlockReflector applied one cell at a time: the rank-one kernel's oracle.

    Every cell's ElementaryUnitary acts on its own rows or columns through
    its own methods, with the result dtype of the cell coefficients, so it
    shares no code with the segment-sum kernel.
    """

    def __init__(self, refl: eq.BlockReflector):
        self.reflectors = refl.reflectors
        self.n = refl.n
        offs = np.concatenate([[0], np.cumsum(refl.sizes)])
        self.cells = list(zip(self.reflectors, offs, offs[1:]))

    def _copy(self, M):
        return np.array(M, dtype=np.result_type(M.dtype, *(h.coeff for h in self.reflectors)))

    def apply_left(self, M):
        out = self._copy(M)
        for h, a, b in self.cells:
            out[a:b, :] = h.apply_left(out[a:b, :])
        return out

    def apply_right(self, M):
        out = self._copy(M)
        for h, a, b in self.cells:
            out[:, a:b] = h.apply_right(out[:, a:b])
        return out

    def conjugate(self, A):
        return self.apply_right(self.apply_left(A))

    def matvec(self, v):
        out = self._copy(v)
        if out.ndim == 2:
            for j in range(out.shape[1]):
                out[:, j] = self.matvec(out[:, j])
            return out
        for h, a, b in self.cells:
            out[a:b] = h.matvec(out[a:b])
        return out

    def dense(self):
        out = np.zeros((self.n, self.n), dtype=complex)
        for h, a, b in self.cells:
            out[a:b, a:b] = h.dense()
        return out


def suitable_indexing_oracle(p: eq.Partition) -> np.ndarray:
    """Suitable-indexing permutation by a loop over cells with index sets.

    Members already inside their cell's target range keep their index; the
    others, ascending, take the free slots of the range in ascending order.
    """
    perm = np.empty(p.n, dtype=int)
    off = 0
    for c in p.cells:
        slots = set(range(off, off + len(c)))
        keep = [v for v in c if v in slots]
        free = sorted(slots - set(keep))
        for v in keep:
            perm[v] = v
        movers = [v for v in c if v not in slots]
        for v, s in zip(movers, free):
            perm[v] = s
        off += len(c)
    return perm


# The per-entry Matrix Market codec, one Python parse or format per entry:
# the oracle of the differential tests in test_mmio.py, which the entry-table
# codec of equitile.mmio must match byte for byte and bit for bit.

_FIELDS = {"real", "complex", "integer"}
_FORMATS = {"array", "coordinate"}
_SYMMETRIES = {"general", "symmetric", "hermitian", "skew-symmetric"}


def _parse_value(parts: list[str], field: str):
    if field == "complex":
        return complex(float(parts[0]), float(parts[1]))
    if field == "integer":
        return float(int(parts[0]))
    return float(parts[0])


def reference_load_matrix_market(path) -> MatrixFile:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise InputError(f"{path}: missing MatrixMarket header")
    header = lines[0].split()
    if len(header) != 5 or header[1] != "matrix":
        raise InputError(f"{path}: malformed header {lines[0]!r}")
    fmt, field, symmetry = header[2], header[3], header[4]
    if fmt not in _FORMATS:
        raise InputError(f"{path}: unsupported format {fmt!r}")
    if field not in _FIELDS:
        raise InputError(f"{path}: unsupported field {field!r}")
    if symmetry not in _SYMMETRIES:
        raise InputError(f"{path}: unsupported symmetry {symmetry!r}")

    body = [ln for ln in lines[1:] if ln.strip() and not ln.lstrip().startswith("%")]
    if not body:
        raise InputError(f"{path}: missing size line")
    sizes = body[0].split()
    entries = body[1:]
    dtype = complex if field == "complex" else float
    per_value = 2 if field == "complex" else 1

    try:
        if fmt == "array":
            if len(sizes) != 2:
                raise InputError(f"{path}: array size line needs 2 integers")
            m, n = int(sizes[0]), int(sizes[1])
            if len(entries) != m * n:
                raise InputError(
                    f"{path}: expected {m * n} entries, found {len(entries)}"
                )
            M = np.zeros((m, n), dtype=dtype)
            idx = 0
            for j in range(n):  # array format runs down the columns
                for i in range(m):
                    parts = entries[idx].split()
                    if len(parts) != per_value:
                        raise InputError(f"{path}: bad entry line {entries[idx]!r}")
                    M[i, j] = _parse_value(parts, field)
                    idx += 1
        else:
            if len(sizes) != 3:
                raise InputError(f"{path}: coordinate size line needs 3 integers")
            m, n, nnz = int(sizes[0]), int(sizes[1]), int(sizes[2])
            if len(entries) != nnz:
                raise InputError(f"{path}: expected {nnz} entries, found {len(entries)}")
            M = np.zeros((m, n), dtype=dtype)
            for ln in entries:
                parts = ln.split()
                if len(parts) != 2 + per_value:
                    raise InputError(f"{path}: bad entry line {ln!r}")
                i, j = int(parts[0]) - 1, int(parts[1]) - 1
                M[i, j] = _parse_value(parts[2:], field)
    except (ValueError, IndexError) as exc:
        raise InputError(f"{path}: parse error: {exc}") from exc

    if symmetry in ("symmetric", "hermitian", "skew-symmetric"):
        if m != n:
            raise InputError(f"{path}: {symmetry} requires a square matrix")
        lower = np.tril(M, -1)
        fill = {
            "symmetric": lower.T,
            "hermitian": lower.conj().T,
            "skew-symmetric": -lower.T,
        }[symmetry]
        M = M + fill
    return MatrixFile(format=fmt, field=field, matrix=M)


def _infer_field(M: np.ndarray) -> str:
    if np.iscomplexobj(M):
        return "complex"
    if M.dtype.kind in "iu":
        return "integer"
    return "real"


def _format_value(v, field: str) -> str:
    if field == "complex":
        c = complex(v)
        return f"{c.real:.16e} {c.imag:.16e}"
    if field == "integer":
        return str(int(round(float(np.real(v)))))
    return f"{float(np.real(v)):.16e}"


def reference_save_matrix_market(path, M, fmt: str = "array", field: str | None = None) -> None:
    M = np.asarray(M)
    if M.ndim != 2:
        raise InputError(f"2-d matrix required, got shape {M.shape}")
    if fmt not in _FORMATS:
        raise InputError(f"unsupported format {fmt!r}")
    if field is None:
        field = _infer_field(M)
    if field not in _FIELDS:
        raise InputError(f"unsupported field {field!r}")
    m, n = M.shape
    out = [f"%%MatrixMarket matrix {fmt} {field} general"]
    if fmt == "array":
        out.append(f"{m} {n}")
        for j in range(n):
            for i in range(m):
                out.append(_format_value(M[i, j], field))
    else:
        nz = np.argwhere(M != 0)
        out.append(f"{m} {n} {len(nz)}")
        for i, j in nz:
            out.append(f"{i + 1} {j + 1} {_format_value(M[i, j], field)}")
    Path(path).write_text("\n".join(out) + "\n")
