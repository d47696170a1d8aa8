import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uapca.eigen import eig_sym, principal_angles, select_components

from conftest import random_psd


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 12])
def test_matches_reference_solver(dim):
    rng = np.random.default_rng(dim)
    k = random_psd(rng, dim)
    pairs = eig_sym(k)
    ref = np.linalg.eigvalsh(k)[::-1]
    assert np.abs(pairs.values - ref).max() < 1e-10 * max(1.0, ref[0])


@pytest.mark.parametrize("seed", range(8))
def test_residual_orthonormality_trace(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 13))
    k = random_psd(rng, dim)
    pairs = eig_sym(k)
    lam1 = pairs.values[0]
    residual = np.linalg.norm(k @ pairs.vectors - pairs.vectors * pairs.values, axis=0)
    assert residual.max() <= 1e-8 * max(1.0, lam1)
    assert np.abs(pairs.vectors.T @ pairs.vectors - np.eye(dim)).max() <= 1e-10
    assert abs(pairs.values.sum() - np.trace(k)) <= 1e-10 * max(1.0, abs(np.trace(k)))


def test_descending_order_and_sign_canon():
    rng = np.random.default_rng(9)
    k = random_psd(rng, 6)
    pairs = eig_sym(k)
    assert np.all(np.diff(pairs.values) <= 0.0)
    for j in range(6):
        col = pairs.vectors[:, j]
        assert col[np.argmax(np.abs(col))] > 0.0


def test_sign_canon_tie_prefers_lowest_index():
    # Eigenvector (1/sqrt2) * (-1, +1): both entries tie in magnitude, so the
    # first one decides and the vector is flipped to (+1, -1) / sqrt2.
    k = np.array([[2.0, -1.0], [-1.0, 2.0]])
    pairs = eig_sym(k)
    top = pairs.vectors[:, 0]
    assert pairs.values[0] == pytest.approx(3.0, abs=1e-12)
    assert top[0] > 0.0 and top[1] < 0.0


def test_diagonal_matrix_is_exact():
    pairs = eig_sym(np.diag([1.0, 4.0, 2.0]))
    assert np.array_equal(pairs.values, [4.0, 2.0, 1.0])
    expected = np.zeros((3, 3))
    expected[1, 0] = expected[2, 1] = expected[0, 2] = 1.0
    assert np.array_equal(pairs.vectors, expected)


def test_tied_eigenvalues_keep_stable_order():
    pairs = eig_sym(np.eye(4))
    assert np.array_equal(pairs.values, np.ones(4))
    assert np.array_equal(pairs.vectors, np.eye(4))


def test_small_negative_eigenvalue_clamps_to_zero():
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    k = np.outer(v, v)  # rank one, eigenvalues {1, 0} up to rounding
    k = (k + k.T) / 2.0
    pairs = eig_sym(k)
    assert pairs.values[0] == pytest.approx(1.0, abs=1e-12)
    assert pairs.values[1] == 0.0


def test_clearly_negative_eigenvalue_raises():
    with pytest.raises(ValueError, match="not positive semi-definite"):
        eig_sym(np.diag([1.0, -0.1]))


def test_input_validation():
    with pytest.raises(ValueError, match="symmetric"):
        eig_sym(np.array([[1.0, 0.3], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        eig_sym(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="square"):
        eig_sym(np.ones((2, 3)))


def test_overflow_when_symmetrizing_is_non_finite():
    # 1.7e308 + 1.7e308 overflows: once a warning and NaN eigenpairs.
    import warnings

    huge = np.array([[1e308, 1.7e308], [1.7e308, 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            eig_sym(huge)
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            eig_sym(np.stack([np.eye(2), huge]))
        # Finite entries whose largest eigenvalue, 2.43e308, is not a float.
        with pytest.raises(ValueError, match="eigenvalue beyond the float range"):
            eig_sym(np.full((3, 3), 0.81e308))


def test_zero_matrix():
    pairs = eig_sym(np.zeros((3, 3)))
    assert np.array_equal(pairs.values, np.zeros(3))
    assert np.array_equal(pairs.vectors, np.eye(3))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 10))
def test_reconstruction_property(seed, dim):
    k = random_psd(np.random.default_rng(seed), dim)
    pairs = eig_sym(k)
    rebuilt = (pairs.vectors * pairs.values) @ pairs.vectors.T
    assert np.abs(rebuilt - k).max() <= 1e-10 * max(1.0, pairs.values[0])


def _stack_member(draw_kind, rng, dim):
    """A PSD matrix of one of the shapes the stacked solver must treat alike."""
    if draw_kind == 0:
        return random_psd(rng, dim)
    if draw_kind == 1:  # rank-deficient
        a = rng.standard_normal((dim, int(rng.integers(1, dim))))
        m = a @ a.T
        return (m + m.T) / 2.0
    if draw_kind == 2:  # exact ties
        return float(rng.uniform(0.1, 5.0)) * np.eye(dim)
    return np.zeros((dim, dim))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6),
       st.lists(st.integers(0, 3), min_size=1, max_size=12))
def test_stack_slices_match_single_calls(seed, dim, kinds):
    rng = np.random.default_rng(seed)
    stack = np.stack([_stack_member(kind, rng, dim) for kind in kinds])
    pairs = eig_sym(stack)
    assert pairs.values.shape == (len(kinds), dim)
    assert pairs.vectors.shape == (len(kinds), dim, dim)
    for i, k in enumerate(stack):
        single = eig_sym(k)
        assert np.array_equal(pairs.values[i], single.values)
        assert np.array_equal(pairs.vectors[i], single.vectors)
    nested = eig_sym(stack.reshape(1, *stack.shape))
    assert np.array_equal(nested.values[0], pairs.values)
    assert np.array_equal(nested.vectors[0], pairs.vectors)


def test_empty_stack():
    pairs = eig_sym(np.zeros((0, 2, 2)))
    assert pairs.values.shape == (0, 2)
    assert pairs.vectors.shape == (0, 2, 2)


def test_stack_validation():
    good = np.stack([np.eye(3), 2.0 * np.eye(3)])
    with pytest.raises(ValueError, match="square"):
        eig_sym(np.ones((2, 2, 3)))
    with pytest.raises(ValueError, match="square"):
        eig_sym(np.ones(4))
    nan = good.copy()
    nan[1, 0, 2] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        eig_sym(nan)
    skew = good.copy()
    skew[1, 0, 2] = 0.3
    with pytest.raises(ValueError, match="symmetric"):
        eig_sym(skew)


def test_non_psd_slice_is_named():
    stack = np.stack([np.eye(2), np.diag([1.0, 2.0]), np.diag([1.0, -0.1])])
    with pytest.raises(ValueError, match=r"^matrix 2 is not positive semi-definite "
                                         r"\(eigenvalue -1\.000e-01 below"):
        eig_sym(stack)
    with pytest.raises(ValueError, match=r"^matrix 3 is not positive semi-definite"):
        eig_sym(np.stack([stack[[0, 1, 0]], stack[::-1]]))  # flat index 3
    with pytest.raises(ValueError, match=r"^matrix is not positive semi-definite"):
        eig_sym(stack[2])


def test_select_components():
    rng = np.random.default_rng(11)
    k = random_psd(rng, 5)
    pairs = eig_sym(k)
    mean = rng.normal(0, 1, 5)
    model = select_components(pairs, mean, 2)
    assert model.components.shape == (5, 2)
    assert np.array_equal(model.components, pairs.vectors[:, :2])
    assert np.array_equal(model.eigenvalues, pairs.values)
    with pytest.raises(ValueError):
        select_components(pairs, mean, 0)
    with pytest.raises(ValueError):
        select_components(pairs, mean, 6)
    with pytest.raises(ValueError):
        select_components(pairs, mean[:3], 2)


def test_principal_angles():
    e = np.eye(3)
    assert principal_angles(e[:, :2], e[:, :2]).max() == pytest.approx(0.0, abs=1e-12)
    assert principal_angles(e[:, :1], e[:, 2:]).min() == pytest.approx(np.pi / 2, abs=1e-12)
    # Rotating a basis within its own span changes nothing.
    rot = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
    assert principal_angles(e[:, :2], e[:, :2] @ rot).max() < 1e-12
