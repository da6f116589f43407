import random

import pytest

from skeincalc.quantum_torus import QTorusElement, embed_curve, embed_element
from skeincalc.ratfunc import RationalFunction, a_pow
from skeincalc.torus2 import SkeinT2Element, curve


def mono(p, q, coeff=None):
    return QTorusElement.monomial(p, q, coeff)


def test_constructor_refuses_keys_that_are_not_pairs_of_ints():
    one = RationalFunction.one()
    for key in ((1,), (1, 0, 0), (True, 0), (1.0, 0), "ab", None):
        with pytest.raises(ValueError, match="monomial must be 2 ints"):
            QTorusElement({key: one})
    assert QTorusElement({(3, -1): one, (0, 0): one}) == mono(3, -1) + QTorusElement.one()


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


def _double_loop(x, y):
    # The product term by term: every pair of terms, every coefficient product.
    out = {}
    for (p, q), ca in x.terms.items():
        for (r, s), cb in y.terms.items():
            key = (p + r, q + s)
            out[key] = out.get(key, RationalFunction.zero()) + ca * cb * a_pow(-2 * q * r)
    return QTorusElement(out)


def test_product_matches_a_double_loop_seeded():
    rng = random.Random(5)
    one = RationalFunction.one()
    # Draws from a small pool repeat coefficients within an operand.
    pool = [one, -one, a_pow(1), -a_pow(1), (a_pow(2) + one).inverse(), a_pow(1) - a_pow(-1)]
    repeated = 0
    for _ in range(300):
        x, y = (
            QTorusElement({(rng.randint(-2, 2), rng.randint(-2, 2)): rng.choice(pool) for _ in range(n)})
            for n in (rng.randint(0, 5), rng.randint(0, 5))
        )
        assert x * y == _double_loop(x, y)
        repeated += len(set(x.terms.values())) < len(x.terms)
    assert repeated
    # (l - m)(m + A^2 l): the two l*m terms cancel, A^2 l^2 - m^2 is left.
    x = mono(1, 0) - mono(0, 1)
    y = mono(0, 1) + mono(1, 0, a_pow(2))
    assert x * y == _double_loop(x, y) == mono(2, 0, a_pow(2)) - mono(0, 2)


def test_images_multiply_each_coefficient_pair_once(monkeypatch):
    # Each curve's image carries one coefficient on two monomials, so two
    # images of 4-term elements have 8 terms each but 4 distinct coefficients:
    # 16 coefficient products, where term by term there would be 64.  The
    # factor A^(-2qr) of each pair of monomials is a shift, not a product.
    one = RationalFunction.one()
    x = SkeinT2Element(
        {(1, 0): a_pow(3) + one, (0, 1): a_pow(1) + one, (1, 2): one - a_pow(2), (2, -1): a_pow(-1) + one}
    )
    y = SkeinT2Element(
        {(1, 1): a_pow(-2) - one, (3, 1): a_pow(2) - one, (1, -2): one + one, (0, 2): a_pow(4) + one}
    )
    ex, ey = embed_element(x), embed_element(y)
    assert len(ex.terms) == len(ey.terms) == 8
    products = []
    mul = RationalFunction.__mul__

    def counted(a, b):
        products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(RationalFunction, "__mul__", counted)
    got = ex * ey
    monkeypatch.undo()
    assert len(products) == 16
    assert got == _double_loop(ex, ey) == embed_element(x * y)


def test_images_shift_each_coefficient_product_once_per_exponent(monkeypatch):
    # Image monomials come in pairs k, -k, and the pairs (k, k') and (-k, -k')
    # of monomials share the exponent -2qr, so each of the 16 coefficient
    # products of two images of 4-term elements is shifted twice: 32 shifts,
    # where one per pair of monomials would take 64.  No label has a zero
    # entry, so the two exponents of each coefficient product differ.
    one = RationalFunction.one()
    x = SkeinT2Element(
        {(1, 1): a_pow(3) + one, (2, -1): a_pow(1) + one, (1, 2): one - a_pow(2), (3, 1): a_pow(-1)}
    )
    y = SkeinT2Element(
        {(1, -1): a_pow(-2) - one, (2, 3): a_pow(2), (1, -2): one + one, (4, 1): (a_pow(4) + one).inverse()}
    )
    ex, ey = embed_element(x), embed_element(y)
    shifts = []
    shift = RationalFunction.shift

    def counted(a, k):
        shifts.append(k)
        return shift(a, k)

    monkeypatch.setattr(RationalFunction, "shift", counted)
    got = ex * ey
    monkeypatch.undo()
    assert len(shifts) == 32
    assert 0 not in shifts
    assert got == _double_loop(ex, ey) == embed_element(x * y)


def test_embed_element_is_the_sum_of_its_label_images():
    # Written straight into one map, the image must still be the linear
    # extension of embed_curve, for rational coefficients and the empty link.
    rng = random.Random(6)
    one = RationalFunction.one()
    pool = [one, -one, a_pow(2), (a_pow(2) + one).inverse(), (a_pow(1) - a_pow(-1)).inverse(), a_pow(-3) + one]
    labels = [(p, q) for p in range(-3, 4) for q in range(-3, 4)]
    with_empty = 0
    for _ in range(200):
        x = SkeinT2Element.zero()
        for _ in range(rng.randint(0, 5)):
            x = x + SkeinT2Element.scalar(rng.choice(pool)) * curve(*rng.choice(labels))
        want = QTorusElement.zero()
        for label, coeff in x.terms.items():
            want = want + QTorusElement.scalar(coeff) * (embed_curve(*label) if label else QTorusElement.one())
        assert embed_element(x) == want
        with_empty += () in x.terms
    assert with_empty


def test_embed_element_shifts_each_label_coefficient_once(monkeypatch):
    # A curve's image carries one coefficient on both of its monomials, so
    # the label's coefficient is shifted by -pq once, not once per monomial,
    # and no coefficient is multiplied.
    one = RationalFunction.one()
    x = SkeinT2Element({(): a_pow(2), (1, 0): a_pow(3) + one, (2, -1): one - a_pow(1), (0, 1): one})
    products, shifts = [], []
    mul, shift = RationalFunction.__mul__, RationalFunction.shift

    def counted_mul(a, b):
        products.append((a, b))
        return mul(a, b)

    def counted_shift(a, k):
        shifts.append((a, k))
        return shift(a, k)

    monkeypatch.setattr(RationalFunction, "__mul__", counted_mul)
    monkeypatch.setattr(RationalFunction, "shift", counted_shift)
    got = embed_element(x)
    monkeypatch.undo()
    assert products == []
    assert sorted(k for _, k in shifts) == [0, 0, 2]
    assert got.terms[(2, -1)] is got.terms[(-2, 1)]
    want = QTorusElement.scalar(a_pow(2))
    for label in ((1, 0), (2, -1), (0, 1)):
        want = want + QTorusElement.scalar(x.terms[label]) * embed_curve(*label)
    assert got == want


def test_rendering():
    assert str(embed_curve(1, 1)) == "(A^-1)*l^1*m^1 + (A^-1)*l^-1*m^-1"
    assert str(QTorusElement.zero()) == "0"
