import json
import random

import pytest

from skeincalc.abelianize import AbElement, CLASSES, closure_check, reduce_element, reduce_label
from skeincalc.checks import certificate_sweep
from skeincalc.errors import VerificationError
from skeincalc.labels import AbCertificate, CertStep, _step, certificate, verify_certificate
from skeincalc.ratfunc import RationalFunction, a_pow
from skeincalc.torus2 import EMPTY, canonical_pair, commutator, curve, scalar

ONE = RationalFunction.one()
BOX3 = [(p, q) for p in range(-3, 4) for q in range(-3, 4) if (p, q) != (0, 0)]
BOX4 = [(p, q) for p in range(-4, 5) for q in range(-4, 5) if (p, q) != (0, 0)]


def test_reduce_label_parity_table():
    assert reduce_label(3, 4) == (1, 0)
    assert reduce_label(2, 2) == (2, 0)
    assert reduce_label(1, 1) == (1, 1)
    assert reduce_label(-3, 5) == (1, 1)
    assert reduce_label(0, 7) == (0, 1)


def test_reduce_label_rejects_origin():
    with pytest.raises(ValueError):
        reduce_label(0, 0)


def test_constructor_refuses_keys_outside_the_five_classes():
    one = RationalFunction.one()
    for key in ((3, 1), (0, 2), (-1, 0), (True, 0), (1.0, 0), (1,), "ab"):
        with pytest.raises(ValueError):
            AbElement({key: one})
    # (3,1) is a curve label, not a class: the quotient maps it onto (1,1).
    assert reduce_element(curve(3, 1)) == AbElement({(1, 1): one})
    assert AbElement({(2, 0): one, EMPTY: one}) == reduce_element(curve(4, 2) + scalar(one))


def test_reduce_element_linearity():
    x = curve(3, 4).scale(a_pow(1)) + curve(1, 0)
    assert reduce_element(x) == AbElement({(1, 0): a_pow(1) + ONE})


def test_reduce_element_empty_passthrough():
    two = RationalFunction.from_int(2)
    assert reduce_element(scalar(two)) == AbElement({EMPTY: two})


def test_reduce_element_cancellation():
    assert reduce_element(curve(5, 3) - curve(1, 1)).is_zero()


def test_certificate_already_canonical():
    cert = certificate(1, 0)
    assert cert.steps == ()
    assert cert.canonical == (1, 0)
    verify_certificate(cert)


def test_certificate_steps_are_hashable():
    steps = certificate(7, 9).steps
    assert hash(steps[0]) == hash(certificate(7, 9).steps[0])
    assert len(set(steps)) == len(steps)


def test_certificate_single_step_example():
    cert = certificate(3, 1)
    assert len(cert.steps) == 1
    step = cert.steps[0]
    assert step.from_pair == (3, 1)
    assert step.to_pair == (1, 1)
    assert step.conjugator == (1, 0)
    assert step.scale == (a_pow(1) - a_pow(-1)).inverse()
    # the step really is one rewrite: expand the commutator by hand
    assert commutator(curve(1, 0), curve(2, 1)) == (
        (curve(3, 1) - curve(1, 1)).scale(a_pow(1) - a_pow(-1))
    )
    verify_certificate(cert)


def test_certificate_even_even_chain():
    cert = certificate(4, 2)
    assert cert.canonical == (2, 0)
    assert cert.steps[-1].to_pair == (2, 0)
    verify_certificate(cert)


def test_certificate_box_sweep():
    assert certificate_sweep(12) == (624, None)
    # far labels: one step off the axis, two along it
    for label, length in (((10**9 + 1, 1), 1), ((10**12, 0), 2)):
        cert = certificate(*label)
        assert len(cert.steps) == length
        verify_certificate(cert)
        doc = json.loads(json.dumps(cert.to_json_dict()))
        assert AbCertificate.from_json_dict(doc) == cert


def test_step_expansion_matches_the_curve_product():
    # The closed form [c, m] = (A^d - A^-d) (L(c+m) - L(c-m)) that replay
    # relies on, against the curve product, which stays the reference here;
    # c runs over both signs of every label in the box.  The step from
    # m + c to m - c with conjugator c then holds with its derived scale.
    cases = 0
    for c in BOX3:
        for m in BOX3:
            d = c[0] * m[1] - c[1] * m[0]
            if d == 0:
                continue
            product = commutator(curve(*c), curve(*m))
            frm, to = (m[0] + c[0], m[1] + c[1]), (m[0] - c[0], m[1] - c[1])
            step = CertStep(frm, to, c)
            plus, minus, k = step._labels()
            assert k == d
            assert product == (curve(*plus) - curve(*minus)).scale(a_pow(d) - a_pow(-d)), (c, m)
            assert product.scale(step.scale) == curve(*frm) - curve(*to), (c, m)
            cases += 1
    assert cases == 2112


def test_derived_scale_is_the_inverse_of_a_d_minus_a_minus_d():
    # The closed form sign(D) A^|D| / (A^2|D| - 1) against the inverse it
    # replaces, for both orientations of the step from (1,d) to (-1,d)
    # with conjugator (1,0), midpoint (0,d) and det(c, m) = d.
    for d in [*range(-64, 0), *range(1, 65)]:
        forward, backward = CertStep((1, d), (-1, d), (1, 0)), CertStep((-1, d), (1, d), (1, 0))
        for step, want in ((forward, a_pow(d) - a_pow(-d)), (backward, a_pow(-d) - a_pow(d))):
            scale = step.scale
            assert scale == want.inverse() and str(scale) == str(want.inverse()), (d, step)
            assert RationalFunction(scale.num, scale.den) == scale  # canonical as built


def test_every_derived_scale_of_box_8_makes_its_step_hold():
    # The element comparison replay no longer makes, over every certificate
    # that certificate_sweep(8) replays: scale * [c, m] == from - to.
    assert certificate_sweep(8) == (288, None)
    steps = 0
    for p in range(-8, 9):
        for q in range(-8, 9):
            if (p, q) == (0, 0):
                continue
            for step in certificate(p, q).steps:
                f, t, c = step.from_pair, step.to_pair, step.conjugator
                m = ((f[0] + t[0]) // 2, (f[1] + t[1]) // 2)
                assert commutator(curve(*c), curve(*m)).scale(step.scale) == curve(*f) - curve(*t)
                steps += 1
    assert steps == 304


def test_certificate_holds_only_ints():
    def leaves(x):
        if isinstance(x, (list, dict)):
            for y in x.values() if isinstance(x, dict) else x:
                yield from leaves(y)
        else:
            yield x

    for label in BOX4 + [(10**9 + 1, 1), (10**12, 0)]:
        doc = certificate(*label).to_json_dict()
        assert all(type(x) is int for x in leaves(doc)), doc
    for p, q in ((3.0, 1), (3, 1.0), (True, 1), ("3", 1), (2.5, 1)):
        with pytest.raises(ValueError, match="label must be 2 ints"):
            certificate(p, q)


def test_certificate_verifier_rejects_tampering():
    cert = certificate(5, 2)
    bad = AbCertificate(cert.source, cert.canonical, cert.steps[:-1])
    with pytest.raises(VerificationError):
        verify_certificate(bad)
    # Moving the conjugator of any one step of any chain off +-v breaks it.
    for label in BOX4:
        cert = certificate(*label)
        for i, step in enumerate(cert.steps):
            c = step.conjugator
            moved = CertStep(step.from_pair, step.to_pair, (c[0] + 1, c[1]))
            steps = cert.steps[:i] + (moved,) + cert.steps[i + 1 :]
            with pytest.raises(VerificationError):
                verify_certificate(AbCertificate(cert.source, cert.canonical, steps))
    cert = certificate(4, 0)
    assert len(cert.steps) == 2
    first, second = cert.steps
    x, y, v = first.from_pair, first.to_pair, first.conjugator
    for steps in (
        (CertStep(x, y, (1, 1)), second),  # (1, 1) is not +-v
        (CertStep(x, (y[0], -y[1]), v), second),
    ):
        with pytest.raises(VerificationError):
            verify_certificate(AbCertificate(cert.source, cert.canonical, steps))
    # curves are unoriented, so the negated conjugator names the same curve
    flipped = CertStep(x, y, (-v[0], -v[1]))
    verify_certificate(AbCertificate(cert.source, cert.canonical, (flipped, second)))


def test_certificate_verifier_checks_the_class():
    # A true chain onto a label that is not the input's class, and an
    # empty chain on a label that is not a class.
    for cert in (
        AbCertificate((5, 1), (3, 1), (_step((5, 1), (3, 1)),)),
        AbCertificate((3, 1), (3, 1), ()),
    ):
        with pytest.raises(VerificationError, match="is not the class of"):
            verify_certificate(cert)
    with pytest.raises(VerificationError, match="not a curve label"):
        verify_certificate(AbCertificate((0, 0), (2, 0), ()))


def test_certificate_verifier_refuses_a_zero_last_label():
    # (0,0) names no curve; the step's expansion is checked before the end
    # of the chain, so this is a failed replay, not a ValueError.
    for label in ((4, 0), (5, 2)):
        cert = certificate(*label)
        *head, last = cert.steps
        zero = CertStep(last.from_pair, (0, 0), last.conjugator)
        with pytest.raises(VerificationError):
            verify_certificate(AbCertificate(cert.source, cert.canonical, (*head, zero)))


def test_certificate_sweep_refuses_a_longer_chain(monkeypatch):
    from skeincalc import abelianize, checks

    def padded(p, q):
        cert = certificate(p, q)
        if not cert.steps:
            return cert
        # Out from the class to another label of it and back: two more
        # steps that each hold, so the chain still verifies.
        c0, c1 = cert.canonical
        via = (c0, c1 + 2) if c0 else (2, c1)
        detour = (_step(cert.canonical, via), _step(via, cert.canonical))
        return AbCertificate(cert.source, cert.canonical, cert.steps + detour)

    assert checks.certificate_sweep(3) == (48, None)
    monkeypatch.setattr(abelianize, "certificate", padded)
    verify_certificate(padded(3, 0))
    verify_certificate(padded(3, 2))
    # (-3,-3) comes first and is parallel to its class (1,1): 2 + 2 steps.
    with pytest.raises(VerificationError, match=r"^\(-3, -3\) certified in 4 steps$"):
        checks.certificate_sweep(3)


def test_certificate_json_roundtrip():
    cert = certificate(-6, 4)
    doc = json.loads(json.dumps(cert.to_json_dict()))
    assert AbCertificate.from_json_dict(doc) == cert
    assert list(doc) == ["input", "canonical", "steps"]
    if doc["steps"]:
        assert list(doc["steps"][0]) == ["from", "to", "conjugator"]


def test_certificate_json_pairs_must_be_two_ints():
    doc = json.loads(json.dumps(certificate(5, 2).to_json_dict()))
    doc["steps"][0]["from"] = [5.0, 2]
    with pytest.raises(ValueError, match=r"from must be 2 ints, got \[5.0, 2\]"):
        AbCertificate.from_json_dict(doc)


def test_certificate_records_built_in_process_must_hold_ints():
    # As the loader refuses them: a float field would reach the scale as a
    # float exponent, and a bool would be read as 0 or 1.
    cert = certificate(3, 1)
    (step,) = cert.steps
    assert step == CertStep((3, 1), (1, 1), (1, 0))
    for bad in (
        CertStep((3, 1), (1, 1), (1.0, 0)),
        CertStep((3, 1), (1.0, 1), (1, 0)),
        CertStep((3, 1), (1, 1), (True, 0)),
        CertStep((3, 1), (1, 1), (1, 0, 0)),
    ):
        with pytest.raises(ValueError):
            verify_certificate(AbCertificate(cert.source, cert.canonical, (bad,)))
        with pytest.raises(ValueError):
            bad.scale
    for source, canonical in (((3.0, 1), (1, 1)), ((3, 1), (True, 1)), ((3, 1), (1, 1, 0))):
        with pytest.raises(ValueError):
            verify_certificate(AbCertificate(source, canonical, cert.steps))


def test_quotient_kills_commutators():
    for p in range(-3, 4):
        for q in range(-3, 4):
            for r in range(-3, 4):
                for s in range(-3, 4):
                    x, y = curve(p, q), curve(r, s)
                    assert reduce_element(commutator(x, y)).is_zero()


def test_reduce_of_product_is_symmetric():
    rng = random.Random(13)
    for _ in range(150):
        x = curve(rng.randint(-6, 6), rng.randint(-6, 6))
        y = curve(rng.randint(-6, 6), rng.randint(-6, 6))
        assert reduce_element(x * y) == reduce_element(y * x)


def test_image_spanned_by_five_classes():
    seen = {EMPTY}
    for p in range(-5, 6):
        for q in range(-5, 6):
            if (p, q) == (0, 0):
                continue
            seen.add(reduce_label(p, q))
    assert seen == set(CLASSES)
    assert len(seen) == 5


def test_closure_check_matches_parities():
    for n in range(2, 7):
        part = closure_check(n)
        assert len(part) == 4
        for rep, members in part.items():
            classes = {reduce_label(*m) for m in members}
            assert classes == {reduce_label(*rep)}


def test_closure_check_connects_collinear_labels():
    part = closure_check(3)
    root = {m: rep for rep, members in part.items() for m in members}
    assert root[(1, 0)] == root[(3, 0)]


def test_closure_check_rejects_small_box():
    with pytest.raises(ValueError):
        closure_check(1)


def test_closure_check_deterministic_representatives():
    part = closure_check(4)
    for rep, members in part.items():
        assert rep == min(members)
        assert members == tuple(sorted(members))


def _reference_verify(cert):
    # verify_certificate as an element comparison: each step's derived
    # scale times the commutator, built by the curve product, against
    # from - to.  A step with no integer midpoint or with d = 0 has no
    # scale, and a step with from - to == 0 claims nothing: all are refused.
    if cert.source == (0, 0):
        raise VerificationError("(0,0) is not a curve label")
    cur = canonical_pair(*cert.source)
    for step in cert.steps:
        f, t, c = step.from_pair, step.to_pair, step.conjugator
        if f != cur:
            raise VerificationError(f"step starts at {f}, chain is at {cur}")
        if (f[0] + t[0]) % 2 or (f[1] + t[1]) % 2:
            raise VerificationError(f"step {f} -> {t} has no integer midpoint")
        product = commutator(curve(*c), curve((f[0] + t[0]) // 2, (f[1] + t[1]) // 2))
        expected = curve(*f) - curve(*t)
        if expected.is_zero() or product.is_zero() or product.scale(step.scale) != expected:
            raise VerificationError(f"step {f} -> {t}: {product} does not give {expected}")
        cur = t
    if canonical_pair(*cur) != cert.canonical:
        raise VerificationError(f"chain ends at {cur}, not at {cert.canonical}")
    if cert.canonical != reduce_label(*cert.source):
        raise VerificationError(f"{cert.canonical} is not the class of {cert.source}")


def _step_mutants(step):
    # Every single mutation of one step: its conjugator, from or to.  The
    # conjugator -(from + m) makes L(c+m) == L(from) but not L(c-m) == L(to).
    f, t, c = step.from_pair, step.to_pair, step.conjugator
    m = ((f[0] + t[0]) // 2, (f[1] + t[1]) // 2)
    for conj in ((-c[0], -c[1]), (c[0] + 1, c[1]), (c[0], c[1] + 1), (-f[0] - m[0], -f[1] - m[1])):
        yield CertStep(f, t, conj)
    for move in ((2, 0), (0, 2)):
        yield CertStep((f[0] + move[0], f[1] + move[1]), t, c)
        yield CertStep(f, (t[0] + move[0], t[1] + move[1]), c)
    yield CertStep((-f[0], -f[1]), t, c)
    yield CertStep(f, (-t[0], -t[1]), c)
    yield CertStep((0, 0), t, c)
    yield CertStep(f, (0, 0), c)
    yield CertStep(t, f, c)


def _verdict(verify, cert):
    try:
        verify(cert)
    except VerificationError:
        return "refused"
    return "accepted"


def test_step_rule_agrees_with_the_element_comparison():
    # Each certificate of box 4, also with an idle step from its class to
    # itself, under every single mutation of one step: the step rule
    # accepts exactly when the element comparison does.  Their messages
    # differ, since the rule builds no element to print.
    verdicts = {"accepted": 0, "refused": 0}
    for label in BOX4:
        cert = certificate(*label)
        chains = [cert.steps]
        if cert.steps:
            last = cert.steps[-1]
            chains.append(cert.steps + (CertStep(last.to_pair, last.to_pair, last.conjugator),))
        for steps in chains:
            for i, step in enumerate(steps):
                for mutant in _step_mutants(step):
                    tampered = AbCertificate(
                        cert.source, cert.canonical, steps[:i] + (mutant,) + steps[i + 1 :]
                    )
                    want = _verdict(_reference_verify, tampered)
                    assert _verdict(verify_certificate, tampered) == want, (tampered, want)
                    verdicts[want] += 1
    # Both verdicts occur.  The 80 accepted mutants are the negated
    # conjugators, one per step of the box's certificates: each names the
    # same commutator with the labels swapped.  Every idle chain is refused.
    assert (verdicts["accepted"], verdicts["refused"]) == (80, 2936)
