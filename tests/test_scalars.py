from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from uniformq.scalars import (
    exact_sqrt,
    quad,
    rational_power,
    scalar_from_json,
    scalar_to_json,
    squarefree_decompose,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)


def test_norm_identity():
    assert (1 + quad(0, 1, 2)) * (1 - quad(0, 1, 2)) == Fraction(-1)


def test_inverse_example():
    inv = 1 / (3 + quad(0, 1, 2))
    assert inv == quad(Fraction(3, 7), Fraction(-1, 7), 2)


def test_sqrt2_squares_to_two():
    r2 = quad(0, 1, 2)
    assert r2 * r2 == Fraction(2)
    assert r2 ** 2 == Fraction(2)


def test_radicand_normalisation():
    assert quad(0, 1, 8) == quad(0, 2, 2)
    assert quad(1, 3, 4) == Fraction(7)  # perfect square collapses
    assert quad(5, 0, 7) == Fraction(5)


def test_squarefree_decompose():
    assert squarefree_decompose(8) == (2, 2)
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(98) == (7, 2)
    assert squarefree_decompose(36) == (6, 1)
    with pytest.raises(ValueError):
        squarefree_decompose(0)


def test_radicand_mismatch():
    with pytest.raises(ValueError):
        quad(0, 1, 2) + quad(0, 1, 3)


def test_inversion_of_zero():
    with pytest.raises(ZeroDivisionError):
        quad(0, 1, 2) / 0


def test_comparisons():
    r2 = quad(0, 1, 2)
    assert Fraction(1) < r2 < Fraction(2)
    assert quad(0, 7, 2) > 6 > quad(0, 2, 2)
    assert quad(0, -7, 2) < -6
    assert quad(3, -2, 2) > 0  # 3 - 2*sqrt(2) = 0.17...
    assert quad(1, -1, 2) < 0
    # a spectrum sorts its mixed values directly, with no key
    values = [Fraction(1, 2), -r2, 2, 0, r2, Fraction(-3, 2)]
    assert sorted(values) == [Fraction(-3, 2), -r2, 0, Fraction(1, 2), r2, 2]
    assert sorted(values, reverse=True) == sorted(values)[::-1]


def test_powers():
    r2 = quad(0, 1, 2)
    assert (1 + r2) ** 2 == quad(3, 2, 2)
    assert (1 + r2) ** -1 == quad(-1, 1, 2)
    assert (1 + r2) ** 0 == Fraction(1)


@given(a=rationals, c=rationals, a2=rationals, c2=rationals)
def test_field_axioms(a, c, a2, c2):
    x = quad(a, c, 2)
    y = quad(a2, c2, 2)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + 1) == x * y + x
    if y != 0:
        assert (x / y) * y == x


@given(a=rationals, b=rationals)
def test_rational_embedding_agrees(a, b):
    # QuadExt arithmetic with zero sqrt-coefficient is Fraction arithmetic
    assert quad(a, 0, 5) + quad(b, 0, 5) == a + b
    assert quad(a, 0, 5) * quad(b, 0, 5) == a * b


@given(
    vals=st.lists(
        st.tuples(rationals, rationals), min_size=3, max_size=3
    )
)
def test_order_is_total_and_transitive(vals):
    xs = [quad(a, c, 3) for a, c in vals]
    x, y, z = xs
    assert (x < y) + (x == y) + (y < x) == 1  # trichotomy
    if x < y and y < z:
        assert x < z
    # ordering agrees with the real embedding
    fx = [float(a) + float(c) * 3 ** 0.5 for a, c in vals]
    for i in range(3):
        for j in range(3):
            if abs(fx[i] - fx[j]) > 1e-6:
                assert (xs[i] < xs[j]) == (fx[i] < fx[j])


def test_rational_power():
    assert rational_power(2, 3) == 8
    assert rational_power(2, Fraction(1, 2)) == quad(0, 1, 2)
    assert rational_power(8, Fraction(1, 2)) == quad(0, 2, 2)
    assert rational_power(4, Fraction(1, 2)) == 2
    assert rational_power(2, Fraction(-3, 2)) == quad(0, Fraction(1, 4), 2)
    assert rational_power(Fraction(9, 4), Fraction(1, 2)) == Fraction(3, 2)
    assert rational_power(9, Fraction(3, 2)) == 27
    with pytest.raises(ValueError):
        rational_power(2, Fraction(1, 4))
    with pytest.raises(ValueError):
        rational_power(-2, Fraction(1, 2))


def test_exact_sqrt():
    assert exact_sqrt(98) == quad(0, 7, 2)
    assert exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert exact_sqrt(0) == 0
    with pytest.raises(ValueError):
        exact_sqrt(-1)


def test_json_round_trip():
    vals = [Fraction(3, 7), Fraction(-5), quad(Fraction(1, 2), 3, 2)]
    for v in vals:
        assert scalar_from_json(scalar_to_json(v)) == v
    assert scalar_to_json(Fraction(3)) == "3"
    assert scalar_to_json(Fraction(1, 3)) == "1/3"
    assert scalar_to_json(quad(0, 7, 2)) == {"a": "0", "c": "7", "m": 2}
