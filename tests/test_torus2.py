import math
import random

import pytest

from skeincalc.ratfunc import RationalFunction, a_pow
from skeincalc.torus2 import (
    EMPTY,
    SkeinT2Element,
    canonical_pair,
    chebyshev_t,
    commutator,
    curve,
    framing_twist,
    scalar,
    t_to_jw,
)

TWO = RationalFunction.from_int(2)


def test_make_curve_zero_label():
    assert curve(0, 0) == scalar(TWO)
    assert curve(0, 0).terms == {EMPTY: TWO}


@pytest.mark.parametrize("p, q", [(1.0, 0), (True, 2), (0, False), ("1", 0), (None, 1)])
def test_curve_refuses_entries_that_are_not_ints(p, q):
    # A bool or float would pass canonical_pair and print as (True,2) or (1.0,0).
    with pytest.raises(ValueError, match="must be 2 ints"):
        curve(p, q)
    assert curve(0, 0) == scalar(TWO)


def test_make_curve_sign_canonicalization():
    assert curve(-1, 2).terms == {(1, -2): RationalFunction.one()}
    assert curve(0, -3).terms == {(0, 3): RationalFunction.one()}


def test_make_curve_keeps_labels_undivided():
    assert curve(2, 4).terms == {(2, 4): RationalFunction.one()}


def test_elements_are_read_only_and_hashable():
    x = curve(1, 0)
    with pytest.raises(TypeError):
        x.terms[(0, 1)] = RationalFunction.one()
    assert x == curve(1, 0)
    assert hash(curve(1, 0)) == hash(curve(-1, 0))
    assert len({curve(1, 0), curve(-1, 0), curve(0, 1)}) == 2


def test_constructor_refuses_labels_that_are_not_canonical():
    # Equal elements must have equal maps, so (-1,0) is not another name for
    # (1,0) and (0,0) is not another name for twice the empty link.
    one = RationalFunction.one()
    for label in ((-1, 0), (0, -2), (0, 0), (True, 0), (1.0, 0), (1, 0, 0), "ab"):
        with pytest.raises(ValueError):
            SkeinT2Element({label: one})
    assert SkeinT2Element({(1, 0): one, EMPTY: one}) == curve(1, 0) + SkeinT2Element.unit()


def test_constructor_refuses_coefficients_that_are_not_rational_functions():
    for coeff in (1, 0, 1.5, "A"):
        with pytest.raises(TypeError, match="must be RationalFunctions"):
            SkeinT2Element({(1, 0): coeff})


def test_scale_takes_a_unit_coefficient_whole():
    # A bare label's coefficient is RationalFunction.one(), so c*(p,q) takes c
    # itself, with no product.
    c = (a_pow(2) + TWO).inverse()
    assert curve(1, 0).scale(c).terms[(1, 0)] is c
    assert curve(1, 0).scale(RationalFunction.zero()) == SkeinT2Element.zero()
    x = curve(1, 0).scale(a_pow(1)) + curve(0, 1) + scalar(TWO)
    assert x.scale(c).terms == {(1, 0): a_pow(1) * c, (0, 1): c, EMPTY: TWO * c}
    assert x.scale(RationalFunction.zero()).is_zero()


def test_collect_drops_cancelling_keys_like_the_constructor():
    one = RationalFunction.one()
    pairs = [((1, 0), a_pow(1)), ((0, 1), one), ((1, 0), -a_pow(1)), (EMPTY, TWO), ((0, 1), one)]
    got = SkeinT2Element.collect(pairs)
    assert (1, 0) not in got.terms
    assert got.terms == {(0, 1): TWO, EMPTY: TWO}
    assert got == SkeinT2Element({(1, 0): RationalFunction.zero(), (0, 1): TWO, EMPTY: TWO})
    assert SkeinT2Element.collect([((1, 0), one), ((1, 0), -one)]) == SkeinT2Element()


def test_canonical_pair_rejects_origin():
    with pytest.raises(ValueError):
        canonical_pair(0, 0)


def test_product_determinant_one():
    got = curve(1, 0) * curve(0, 1)
    want = curve(1, 1).scale(a_pow(1)) + curve(1, -1).scale(a_pow(-1))
    assert got == want


def test_product_unit_law():
    x = curve(5, -3).scale(a_pow(2)) + scalar(TWO)
    assert x * SkeinT2Element.unit() == x
    assert SkeinT2Element.unit() * x == x


def test_product_determinant_zero():
    assert curve(1, 0) * curve(1, 0) == curve(2, 0) + scalar(TWO)


def test_product_well_defined_on_sign_classes():
    rng = random.Random(5)
    for _ in range(100):
        p, q, r, s = (rng.randint(-6, 6) for _ in range(4))
        assert curve(p, q) * curve(r, s) == curve(-p, -q) * curve(r, s)


def test_associativity_box():
    labels = [(p, q) for p in range(-2, 3) for q in range(-2, 3)]
    for a in labels:
        for b in labels:
            for c in labels:
                x, y, z = curve(*a), curve(*b), curve(*c)
                assert (x * y) * z == x * (y * z), (a, b, c)


def test_z2_grading_of_products():
    rng = random.Random(6)
    for _ in range(200):
        p, q, r, s = (rng.randint(-8, 8) for _ in range(4))
        prod = curve(p, q) * curve(r, s)
        for label in prod.terms:
            u, v = label if label else (0, 0)
            assert (u - p - r) % 2 == 0 and (v - q - s) % 2 == 0


def test_chebyshev_base_cases():
    assert chebyshev_t(0, (3, 5)) == scalar(TWO)
    assert chebyshev_t(1, (1, 0)) == curve(1, 0)


def test_chebyshev_n2_matches_expansion():
    got = chebyshev_t(2, (1, 0))
    assert got == curve(1, 0) * curve(1, 0) - scalar(TWO)
    assert got == curve(2, 0)


def test_chebyshev_equals_plain_label():
    for p in range(-3, 4):
        for q in range(-3, 4):
            if math.gcd(p, q) != 1:
                continue
            for n in range(9):
                assert chebyshev_t(n, (p, q)) == curve(n * p, n * q)


def test_chebyshev_rejects_non_coprime():
    with pytest.raises(ValueError):
        chebyshev_t(2, (2, 4))
    with pytest.raises(ValueError):
        chebyshev_t(2, (0, 0))


def test_chebyshev_closure_property():
    for p, q in [(1, 0), (0, 1), (1, 1), (2, 3), (3, -2)]:
        for n in range(1, 6):
            got = curve(p, q) * curve(n * p, n * q)
            want = curve((n + 1) * p, (n + 1) * q) + curve((n - 1) * p, (n - 1) * q)
            assert got == want


def test_t_to_jw_base_cases():
    assert t_to_jw(0) == {0: 2}
    assert t_to_jw(1) == {1: 1}
    assert t_to_jw(3) == {3: 1, 1: -1}


def _poly_mul_x(p):
    return {e + 1: c for e, c in p.items()}


def _poly_sub(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) - c
    return {e: c for e, c in out.items() if c}


def test_t_to_jw_against_polynomial_model():
    # Independent oracle: both families as honest polynomials in x.
    t_polys = [{0: 2}, {1: 1}]
    s_polys = [{0: 1}, {1: 1}]
    for _ in range(20):
        t_polys.append(_poly_sub(_poly_mul_x(t_polys[-1]), t_polys[-2]))
        s_polys.append(_poly_sub(_poly_mul_x(s_polys[-1]), s_polys[-2]))
    for n in range(21):
        combo = {}
        for level, coef in t_to_jw(n).items():
            for e, c in s_polys[level].items():
                combo[e] = combo.get(e, 0) + coef * c
        combo = {e: c for e, c in combo.items() if c}
        assert combo == t_polys[n], n
        # and for n >= 2 the closed difference form holds
        if n >= 2:
            assert _poly_sub(s_polys[n], s_polys[n - 2]) == t_polys[n]


def test_framing_twist():
    x = curve(1, 0)
    assert framing_twist(x, 0) == x
    assert framing_twist(x, 1) == x.scale(-a_pow(3))
    assert framing_twist(framing_twist(x, -1), 1) == x
    assert framing_twist(x, 2) == x.scale(a_pow(6))
    y = curve(2, 1).scale((a_pow(1) + TWO).inverse()) + curve(1, 0)
    assert framing_twist(y, -3) == y.scale(-a_pow(-9))


def test_commutator_of_equal_arguments_vanishes():
    x = curve(2, 3).scale(a_pow(1)) + curve(1, 0)
    assert commutator(x, x).is_zero()


def test_commutator_worked_example():
    got = commutator(curve(1, 0), curve(0, 1))
    want = (curve(1, 1) - curve(1, -1)).scale(a_pow(1) - a_pow(-1))
    assert got == want


def test_commutator_with_unit_vanishes():
    x = curve(4, -1) + scalar(TWO)
    assert commutator(x, SkeinT2Element.unit()).is_zero()


def test_commutator_closed_form():
    rng = random.Random(12)
    for _ in range(200):
        p, q, r, s = (rng.randint(-7, 7) for _ in range(4))
        if (p, q) == (0, 0) or (r, s) == (0, 0):
            continue
        d = p * s - q * r
        got = commutator(curve(p, q), curve(r, s))
        want = (curve(p + r, q + s) - curve(p - r, q - s)).scale(a_pow(d) - a_pow(-d))
        assert got == want
