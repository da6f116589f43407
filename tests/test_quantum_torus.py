import random

import pytest

from skeincalc.quantum_torus import QTorusElement, embed_curve, embed_element
from skeincalc.ratfunc import RationalFunction, a_pow
from skeincalc.torus2 import curve


def mono(p, q, coeff=None):
    return QTorusElement.monomial(p, q, coeff)


def test_commutation_rule():
    # m * l = A^-2 * l * m
    assert mono(0, 1) * mono(1, 0) == mono(1, 1, a_pow(-2))


def test_unit_law():
    x = mono(3, -2)
    assert x * QTorusElement.one() == x
    assert QTorusElement.one() * x == x


def test_already_normal_ordered():
    assert mono(1, 0) * mono(0, 1) == mono(1, 1)


def test_degree_additivity():
    rng = random.Random(3)
    for _ in range(100):
        p, q, r, s = (rng.randint(-6, 6) for _ in range(4))
        prod = mono(p, q) * mono(r, s)
        assert set(prod.terms) == {(p + r, q + s)}


def test_associativity_random_monomials():
    rng = random.Random(4)
    for _ in range(100):
        xs = [
            mono(rng.randint(-5, 5), rng.randint(-5, 5), a_pow(rng.randint(-3, 3)))
            for _ in range(3)
        ]
        a, b, c = xs
        assert (a * b) * c == a * (b * c)


def test_embed_scalar_case():
    assert embed_curve(0, 0) == QTorusElement.scalar(RationalFunction.from_int(2))


def test_cached_embedding_is_read_only():
    img = embed_curve(1, 0)
    with pytest.raises(TypeError):
        img.terms[(0, 0)] = RationalFunction.one()
    assert embed_curve(1, 0) == mono(1, 0) + mono(-1, 0)


def test_embed_zero_determinant_case():
    assert embed_curve(1, 0) == mono(1, 0) + mono(-1, 0)


def test_embed_diagonal():
    # forced by multiplicativity: A^-pq on both monomials
    want = mono(1, 1, a_pow(-1)) + mono(-1, -1, a_pow(-1))
    assert embed_curve(1, 1) == want


def test_embed_symmetric_under_negation():
    for p in range(-4, 5):
        for q in range(-4, 5):
            assert embed_curve(p, q) == embed_curve(-p, -q)


def test_homomorphism_small_box():
    labels = [(p, q) for p in range(-3, 4) for q in range(-3, 4)]
    for a in labels:
        for b in labels:
            lhs = embed_element(curve(*a) * curve(*b))
            rhs = embed_element(curve(*a)) * embed_element(curve(*b))
            assert lhs == rhs, (a, b)


def test_rendering():
    assert str(embed_curve(1, 1)) == "(A^-1)*l^1*m^1 + (A^-1)*l^-1*m^-1"
    assert str(QTorusElement.zero()) == "0"
