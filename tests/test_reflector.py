import os
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import equitile as eq
from equitile import reflector
from equitile.errors import InputError

from helpers import H2_DENSE, H3_DENSE, eum_dense, reference_build_reflector

PACKAGE_DIR = os.path.dirname(reflector.__file__)


def random_vector(rng, n, complex_entries=True):
    v = rng.normal(size=n)
    if complex_entries:
        v = v + 1j * rng.normal(size=n)
    return v


def random_phase(rng):
    return np.exp(1j * rng.uniform(0, 2 * np.pi))


class TestBeta0:
    def test_real_positive_first_entry(self):
        assert eq.beta0(np.array([3.0, 4.0])) == -1.0

    def test_zero_first_entry(self):
        assert eq.beta0(np.array([0.0, 1.0])) == 1.0

    def test_imaginary_first_entry(self):
        assert eq.beta0(np.array([1j, 0.0])) == pytest.approx(1j)

    def test_unit_modulus(self, rng):
        for _ in range(50):
            b = eq.beta0(random_vector(rng, int(rng.integers(1, 6))))
            assert abs(abs(b) - 1.0) < 1e-14


class TestGamma:
    def test_real_data_gives_zero(self):
        assert eq.gamma(np.array([1.0, 2.0]), -1.0) == 0.0

    def test_imaginary_first_entry(self):
        assert eq.gamma(np.array([1j, 0.0]), 1.0) == pytest.approx(1.0)

    def test_scales_out(self):
        assert eq.gamma(np.array([2j, 0.0]), 1.0) == pytest.approx(1.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(InputError):
            eq.gamma(np.zeros(3), 1.0)

    def test_pseudo_inverse_convention(self):
        # ||x|| == Re(beta x1) and Im(beta x1) == 0 -> 0, not a division error
        assert eq.gamma(np.array([1.0, 0.0]), 1.0) == 0.0


class TestBuildReflector:
    def test_identity_branch(self):
        h = eq.build_reflector(np.array([1.0, 0.0, 0.0]), 1.0)
        assert h.coeffs[0] == 0
        assert np.array_equal(h.dense(), np.eye(3))

    def test_all_ones_two(self):
        h = eq.build_reflector(np.ones(2), -1.0)
        assert np.allclose(h.dense(), H2_DENSE, atol=1e-15)

    def test_all_ones_three(self):
        h = eq.build_reflector(np.ones(3), -1.0)
        assert np.allclose(h.dense(), H3_DENSE, atol=1e-15)

    def test_default_phase_is_beta0(self, rng):
        x = random_vector(rng, 4)
        ha = eq.build_reflector(x)
        hb = eq.build_reflector(x, eq.beta0(x))
        assert np.allclose(ha.dense(), hb.dense(), atol=1e-15)

    def test_one_dimensional_value(self):
        h = eq.build_reflector(np.ones(1))
        assert np.allclose(h.dense(), [[-1.0]])

    def test_zero_vector_rejected(self):
        with pytest.raises(InputError):
            eq.build_reflector(np.zeros(2))

    def test_non_unit_phase_rejected(self):
        with pytest.raises(InputError):
            eq.build_reflector(np.ones(2), 2.0)

    def test_matches_general_rank_one_unitary(self, rng):
        # the closed form equals U(gamma(x, beta), x - ||x|| conj(beta) f)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            x = random_vector(rng, n)
            b = random_phase(rng)
            g = eq.gamma(x, b)
            y = x.astype(complex)
            y[0] -= np.linalg.norm(x) * np.conj(b)
            assert np.allclose(
                eq.build_reflector(x, b).dense(), eum_dense(g, y), atol=1e-13
            )


class TestUnitarityAndMapping:
    def test_unitarity(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 65))
            h = eq.build_reflector(random_vector(rng, n), random_phase(rng))
            H = h.dense()
            assert np.abs(H.conj().T @ H - np.eye(n)).max() <= 1e-13 * n

    def test_mapping_relations(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 33))
            x = random_vector(rng, n)
            b = random_phase(rng)
            H = eq.build_reflector(x, b).dense()
            f = np.zeros(n)
            f[0] = 1.0
            nrm = np.linalg.norm(x)
            assert np.abs(H @ f - (b / nrm) * x).max() <= 1e-13
            assert np.abs(H.conj().T @ x - (nrm / b) * f).max() <= 1e-13 * nrm

    @given(
        st.lists(
            st.tuples(
                st.floats(-10, 10, allow_nan=False),
                st.floats(-10, 10, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_unitary_for_any_nonzero_vector(self, pairs):
        x = np.array([complex(a, b) for a, b in pairs])
        if np.linalg.norm(x) < 1e-6:
            return
        H = eq.build_reflector(x).dense()
        assert np.abs(H.conj().T @ H - np.eye(len(x))).max() <= 1e-12 * len(x)


#: any finite component from -1e300 to 1e300, zero and subnormals included
_any_scale = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
_any_scale_vectors = st.lists(st.tuples(_any_scale, _any_scale), min_size=1, max_size=12)


class TestExtremeScales:
    def test_subnormal_first_entry_phase(self):
        b = eq.beta0(np.array([2.2e-311j, 1]))
        assert np.isfinite(b) and b == pytest.approx(1j, abs=1e-15)

    def test_huge_entries_not_identity(self):
        h = eq.build_reflector(np.array([1e200, 1e200]))
        assert h.coeffs[0] != 0
        assert np.allclose(h.dense(), H2_DENSE, atol=1e-15)

    def test_tiny_entries_not_zero(self):
        h = eq.build_reflector(np.array([1e-200, 1e-200]))
        assert np.allclose(h.dense(), H2_DENSE, atol=1e-15)

    def test_gamma_scale_free(self):
        assert eq.gamma(np.array([1e-310j, 0.0]), 1.0) == pytest.approx(1.0)
        assert eq.gamma(np.array([1e300j, 1e300]), 1.0) == pytest.approx(1 / np.sqrt(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.nan, 0.0)])
    def test_non_finite_phase_rejected(self, bad):
        with pytest.raises(InputError):
            eq.build_reflector(np.ones(2), bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vector_rejected(self, bad):
        with pytest.raises(InputError):
            eq.build_reflector(np.array([1.0, bad]))

    @given(_any_scale_vectors, st.booleans())
    def test_unitary_and_mapping_at_any_scale(self, pairs, real):
        x = np.array([complex(a, b) for a, b in pairs])
        if real:
            x = x.real
        assume(np.any(x != 0))
        h = eq.build_reflector(x)
        H = h.dense()
        n = len(x)
        assert np.all(np.isfinite(H))
        assert np.abs(H.conj().T @ H - np.eye(n)).max() <= 1e-12 * n
        # H' x is a multiple of f: compare on x scaled to unit max entry
        s = max(np.abs(x.real).max(), np.abs(x.imag).max())
        xs = x.real / s + 1j * (x.imag / s)  # complex / subnormal overflows
        y = H.conj().T @ xs
        assert np.abs(y[1:]).max(initial=0.0) <= 1e-12 * n * np.linalg.norm(xs)


class TestScaleBehavior:
    def test_positive_scaling_fixed_phase(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 10))
            x = random_vector(rng, n)
            b = random_phase(rng)
            c = float(rng.uniform(0.1, 10.0))
            ha = eq.build_reflector(c * x, b)
            hb = eq.build_reflector(x, b)
            assert np.abs(ha.dense() - hb.dense()).max() <= 1e-13

    def test_complex_scaling_default_phase(self, rng):
        # with the default phase the reflector ignores any nonzero rescaling
        for _ in range(100):
            n = int(rng.integers(1, 10))
            x = random_vector(rng, n)
            c = rng.normal() + 1j * rng.normal()
            if abs(c) < 1e-3:
                continue
            ha = eq.build_reflector(c * x)
            hb = eq.build_reflector(x)
            assert np.abs(ha.dense() - hb.dense()).max() <= 1e-13

    def test_complex_scaling_rotates_fixed_phase(self, rng):
        # for a fixed phase, scaling by c is the same as rotating the phase
        for _ in range(100):
            n = int(rng.integers(1, 10))
            x = random_vector(rng, n)
            b = random_phase(rng)
            c = rng.normal() + 1j * rng.normal()
            if abs(c) < 1e-3:
                continue
            ha = eq.build_reflector(c * x, b)
            hb = eq.build_reflector(x, (c / abs(c)) * b)
            assert np.abs(ha.dense() - hb.dense()).max() <= 1e-12

    def test_rank_one_update_scale_invariance(self, rng):
        # U(gamma, c y) = U(gamma, y) for any nonzero complex c
        for _ in range(100):
            n = int(rng.integers(1, 8))
            y = random_vector(rng, n)
            g = float(rng.normal())
            c = rng.normal() + 1j * rng.normal()
            if abs(c) < 1e-3:
                continue
            assert np.allclose(eum_dense(g, c * y), eum_dense(g, y), atol=1e-13)


class TestSpecialStructure:
    def test_hermitian_when_phase_aligns(self, rng):
        # beta*x1 real implies a Hermitian reflector
        for _ in range(100):
            n = int(rng.integers(1, 10))
            x = random_vector(rng, n)
            if x[0] == 0:
                continue
            b = np.conj(x[0]) / abs(x[0]) * rng.choice([-1.0, 1.0])
            H = eq.build_reflector(x, b).dense()
            assert np.abs(H - H.conj().T).max() <= 1e-13

    def test_real_data_real_matrix(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 10))
            x = rng.normal(size=n)
            for b in (-1.0, 1.0):
                h = eq.build_reflector(x, b)
                assert h.dense().dtype.kind == "f"

    def test_permutation_sensitivity_witness(self):
        # reordering the input vector does not just conjugate the reflector
        x = np.array([1.0, 2.0])
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        H = eq.build_reflector(x, -1.0).dense()
        H_swapped = eq.build_reflector(P.T @ x, -1.0).dense()
        assert np.abs(H_swapped - P.T @ H @ P).max() > 0.1


class TestApplication:
    def test_identity_kind_is_noop(self, rng):
        h = eq.build_reflector(np.array([1.0, 0.0]), 1.0)
        M = rng.normal(size=(2, 3))
        assert np.array_equal(h.apply_left(M), M)
        assert np.array_equal(h.apply_right(M.T), M.T)

    def test_symmetric_example_applied_to_identity(self):
        h = eq.build_reflector(np.ones(2), -1.0)
        assert np.allclose(h.apply_left(np.eye(2)), H2_DENSE, atol=1e-15)

    def test_matches_dense_products(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            h = eq.build_reflector(random_vector(rng, n), random_phase(rng))
            H = h.dense()
            M = random_vector(rng, n * m).reshape(n, m)
            assert np.allclose(h.apply_left(M), H.conj().T @ M, atol=1e-13)
            assert np.allclose(h.apply_right(M.T), M.T @ H, atol=1e-13)
            v = random_vector(rng, n)
            assert np.allclose(h.matvec(v), H @ v, atol=1e-13)

    def test_dimension_mismatch(self):
        h = eq.build_reflector(np.ones(3))
        with pytest.raises(InputError):
            h.apply_left(np.zeros((2, 2)))
        with pytest.raises(InputError):
            h.apply_right(np.zeros((2, 2)))

    def test_round_trip_unitarity(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 12))
            h = eq.build_reflector(random_vector(rng, n), random_phase(rng))
            H = h.dense()
            assert np.abs(H.conj().T @ H - np.eye(n)).max() <= 1e-13


@st.composite
def _stacks(draw):
    """(x, starts, phases, cells) for 1-30 cells of 1-40 entries, real or
    complex, each at its own magnitude; some cells are x = ||x|| conj(beta) f
    (identity branch) or have x[0] = 0. phases is None (auto), signs or
    complex phases; cells lists each cell's (vector, phase or None)."""
    complex_w = draw(st.booleans())
    mode = draw(st.sampled_from(["auto", "sign", "complex"]))
    cells = []
    for _ in range(draw(st.integers(1, 30))):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n = draw(st.integers(1, 40))
        x = rng.normal(size=n) + (1j * rng.normal(size=n) if complex_w else 0)
        beta = {"auto": None, "sign": float(rng.choice([-1.0, 1.0])),
                "complex": np.exp(1j * rng.uniform(0, 2 * np.pi))}[mode]
        special = draw(st.sampled_from(["plain", "identity", "x0 zero"]))
        if special == "identity" and beta is not None and (complex_w or mode == "sign"):
            x[:] = 0
            x[0] = np.conj(beta) * abs(x[0] + 1.5)
        elif special == "x0 zero" and n > 1:
            x[0] = 0
        cells.append((x * 10.0 ** draw(st.integers(-300, 300)), beta))
    x = np.concatenate([c for c, _ in cells])
    starts = np.cumsum([0] + [c.size for c, _ in cells[:-1]])
    phases = None if mode == "auto" else [b for _, b in cells]
    return x, starts, phases, cells


def _dense(y, c):
    return np.eye(y.size) + c * np.outer(y, y.conj())


class TestOnePassBuilder:
    """reflector._build on stacks of cells against the scalar builder of one vector."""

    @settings(max_examples=200, deadline=None)
    @given(_stacks())
    def test_matches_scalar_builder_per_cell(self, stack):
        x, starts, phases, cells = stack
        y, c, beta = reflector._build(x, starts, phases)
        real = x.dtype.kind == "f" and all(b is None or np.isrealobj(b) for _, b in cells)
        assert (y.dtype.kind == "f") == real and (c.dtype.kind == "f") == real
        ends = np.append(starts[1:], x.size)
        for i, ((xi, bi), a, b) in enumerate(zip(cells, starts, ends)):
            y_ref, c_ref = reference_build_reflector(xi, bi)
            assert (c[i] == 0) == (y_ref is None)
            if y_ref is None:
                assert not y[a:b].any()
                continue
            assert np.abs(_dense(y[a:b], c[i]) - _dense(y_ref, c_ref)).max() <= 1e-14

    def test_unit_weights_bit_identical(self):
        # the CLI default: unit weights with default phases, every cell size 1-200
        sizes = np.arange(1, 201)
        starts = np.cumsum(sizes) - sizes
        y, c, _ = reflector._build(np.ones(sizes.sum()), starts)
        for i, (a, n) in enumerate(zip(starts, sizes)):
            y_ref, c_ref = reference_build_reflector(np.ones(n))
            assert np.array_equal(y[a:a + n], y_ref) and c[i] == c_ref

    def test_no_python_loop_over_cells(self):
        # the builder runs the same lines of the package for 2 cells as for 2000
        def lines(k):
            count = 0

            def tracer(frame, event, arg):
                nonlocal count
                if not frame.f_code.co_filename.startswith(PACKAGE_DIR):
                    return None
                count += event == "line"
                return tracer

            sys.settrace(tracer)
            try:
                reflector._build(np.arange(1.0, 3 * k + 1), np.arange(0, 3 * k, 3))
            finally:
                sys.settrace(None)
            return count

        assert lines(2) == lines(2000) > 0

    def test_block_refuses_zero_and_non_finite_cells(self):
        p = eq.Partition.from_cells([[0, 1], [2]])
        with pytest.raises(InputError):
            eq.build_block_reflector(eq.WeightedIndicator(p, [1.0, np.inf, 1.0]))
        with pytest.raises(InputError):
            reflector._build(np.array([1.0, 2.0, 0.0]), np.array([0, 2]))
        with pytest.raises(InputError):
            eq.build_block_reflector(eq.WeightedIndicator(p, np.ones(3)), [1.0, 2.0])
