import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from labelnoise.cli import main
from labelnoise.noise import TransitionMatrix, asymmetric_matrix, symmetric_matrix
from labelnoise.theory import (
    asymmetric_accuracy,
    class_accuracy,
    estimate_epsilon_asymmetric,
    estimate_epsilon_symmetric,
    lp_bounds,
    lp_lr_general,
    symmetric_accuracy,
    theory_curve,
    theory_point,
)

HAND_T = TransitionMatrix(c=2, entries=np.array([[0.8, 0.2], [0.3, 0.7]]))


def test_class_accuracy_is_squared_row_norm():
    # row 0: 0.8^2 + 0.2^2 = 0.68; row 1: 0.09 + 0.49 = 0.58
    assert class_accuracy(HAND_T, 0) == pytest.approx(0.68)
    assert class_accuracy(HAND_T, 1) == pytest.approx(0.58)


def test_symmetric_accuracy_reference_values():
    assert symmetric_accuracy(0.0, 10) == pytest.approx(1.0)
    assert symmetric_accuracy(0.5, 10) == pytest.approx(0.25 + 0.25 / 9)
    # at the uniform point c=10, eps=0.9 the accuracy bottoms out at 1/c
    assert symmetric_accuracy(0.9, 10) == pytest.approx(0.1)


def test_asymmetric_accuracy_reference_values():
    assert asymmetric_accuracy(0.0) == pytest.approx(1.0)
    assert asymmetric_accuracy(0.4) == pytest.approx(0.52)
    assert asymmetric_accuracy(0.5) == pytest.approx(0.5)


def test_accuracy_matches_general_form_on_named_kinds():
    for eps in (0.1, 0.3, 0.45):
        T = asymmetric_matrix(6, eps)
        assert class_accuracy(T, 2) == pytest.approx(asymmetric_accuracy(eps))
        S = symmetric_matrix(6, eps)
        assert class_accuracy(S, 4) == pytest.approx(symmetric_accuracy(eps, 6))


def test_lp_lr_general_hand_matrix():
    lp, lr = lp_lr_general(HAND_T)
    assert lp[0] == pytest.approx(0.64 / 0.68)
    assert lp[1] == pytest.approx(0.49 / 0.58)
    assert np.allclose(lr, [0.8, 0.7])


def test_lp_lr_general_never_correct_class_has_zero_precision():
    T = TransitionMatrix(c=2, entries=np.array([[0.0, 1.0], [0.3, 0.7]]))
    lp, lr = lp_lr_general(T)
    assert lp[0] == 0.0
    assert lr[0] == 0.0


def test_theory_point_symmetric_reference():
    p = theory_point("symmetric", 10, 0.5)
    assert p.accuracy == pytest.approx(0.2777777777777778)
    assert p.lp == pytest.approx(0.9)
    assert p.lr == pytest.approx(0.5)
    assert p.eps_s == pytest.approx(0.1)
    assert p.lp + p.eps_s == 1.0


def test_theory_point_asymmetric_reference():
    p = theory_point("asymmetric", 10, 0.4)
    assert p.accuracy == pytest.approx(0.52)
    assert p.lp == pytest.approx(0.36 / 0.52)
    assert p.lr == pytest.approx(0.6)


def test_theory_point_rejects_unknown_kind():
    with pytest.raises(ValueError):
        theory_point("uniform", 10, 0.5)


def test_lp_bounds_bracket_and_attainment():
    for c in (2, 5, 10):
        for eps in (0.0, 0.2, 0.45):
            t = 1.0 - eps
            lower, upper = lp_bounds(t, c)
            assert lower <= upper
            sym_lp, _ = lp_lr_general(symmetric_matrix(c, eps))
            asym_lp, _ = lp_lr_general(asymmetric_matrix(c, eps))
            assert abs(sym_lp[0] - upper) < 1e-12
            assert abs(asym_lp[0] - lower) < 1e-12


def test_estimate_epsilon_symmetric_hand_value():
    # accuracy 0.2777... at c=10 inverts to eps = 0.5
    assert estimate_epsilon_symmetric(0.2777777777777778, 10) == pytest.approx(0.5)


def test_estimate_epsilon_asymmetric_hand_value():
    assert estimate_epsilon_asymmetric(0.52) == pytest.approx(0.4)


def test_estimate_epsilon_symmetric_clamps_below_uniform_accuracy():
    with pytest.warns(UserWarning):
        est = estimate_epsilon_symmetric(0.05, 10)
    assert est == pytest.approx(0.9)


def test_estimate_epsilon_asymmetric_clamps_below_half():
    with pytest.warns(UserWarning):
        est = estimate_epsilon_asymmetric(0.49)
    assert est == pytest.approx(0.5)


def test_estimate_round_trip_analytic():
    for c in (2, 5, 10, 100):
        for eps in np.linspace(0.0, (c - 1) / c, 40):
            a = symmetric_accuracy(eps, c)
            assert abs(estimate_epsilon_symmetric(a, c) - eps) <= 1e-10
    for eps in np.linspace(0.0, 0.5, 40):
        assert abs(estimate_epsilon_asymmetric(asymmetric_accuracy(eps)) - eps) <= 1e-10


def test_purity_of_selected_set_across_grid():
    for c in (2, 5, 10):
        for eps in np.arange(0.05, (c - 1) / c, 0.05):
            assert 1.0 - theory_point("symmetric", c, eps).lp < eps
    for eps in np.arange(0.05, 0.5, 0.05):
        assert 1.0 - theory_point("asymmetric", 10, eps).lp < eps


def test_theory_curve_lengths_and_order():
    grid = [0.0, 0.25, 0.5]
    points = theory_curve("symmetric", 4, grid)
    assert [p.epsilon for p in points] == grid
    assert theory_curve("symmetric", 4, []) == []


THEORY_HEADER = "kind,c,epsilon,accuracy,lp,lr,eps_s"


def test_write_theory_csv_round_trips_values(tmp_path):
    assert main(["theory", "--kind", "symmetric", "--classes", "10",
                 "--grid", "0,0.5", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "theory.csv").read_text().splitlines()
    assert lines[0] == THEORY_HEADER
    assert len(lines) == 3
    row = lines[2].split(",")
    assert row[:2] == ["symmetric", "10"]
    assert float(row[2]) == 0.5
    assert float(row[3]) == pytest.approx(0.2777777777777778)
    assert float(row[4]) == pytest.approx(0.9)
    p = theory_point("symmetric", 10, 0.5)
    assert [float(v) for v in row[2:]] == [p.epsilon, p.accuracy, p.lp, p.lr, p.eps_s]


def test_write_theory_csv_empty_grid_header_only(tmp_path):
    assert main(["theory", "--kind", "symmetric", "--grid", "",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "theory.csv").read_text().splitlines() == [THEORY_HEADER]


@given(
    c=st.integers(min_value=2, max_value=30),
    frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_round_trip_property(c, frac):
    eps = frac * (c - 1) / c
    a = symmetric_accuracy(eps, c)
    assert abs(estimate_epsilon_symmetric(a, c) - eps) <= 1e-9


@given(
    t=st.floats(min_value=0.01, max_value=1.0),
    c=st.integers(min_value=2, max_value=20),
)
def test_lp_bounds_ordering_property(t, c):
    lower, upper = lp_bounds(t, c)
    assert 0.0 <= lower <= upper <= 1.0


@given(st.integers(min_value=0, max_value=10**6))
def test_general_lp_within_bounds_property(seed):
    from labelnoise.noise import random_diagonal_dominant

    T = random_diagonal_dominant(5, seed=seed)
    lp, lr = lp_lr_general(T)
    for i in range(5):
        lower, upper = lp_bounds(T.entries[i, i], 5)
        assert lower - 1e-9 <= lp[i] <= upper + 1e-9
        assert lr[i] == T.entries[i, i]
