import json
import random

import pytest

from skeincalc.abelianize import (
    AbCertificate,
    AbElement,
    CLASSES,
    CertStep,
    _step,
    certificate,
    closure_check,
    reduce_element,
    reduce_label,
    verify_certificate,
)
from skeincalc.checks import certificate_sweep
from skeincalc.errors import VerificationError
from skeincalc.expressions import parse_scalar
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
    # The closed form against the product it replaces, which stays the
    # reference here; c runs over both signs of every label in the box.
    rational = parse_scalar("(2/3*A - 1)/(A^2 + 1)")
    cases = 0
    for c in BOX3:
        for m in BOX3:
            d = c[0] * m[1] - c[1] * m[0]
            if d == 0:
                continue
            product = commutator(curve(*c), curve(*m))
            frm, to = (m[0] + c[0], m[1] + c[1]), (m[0] - c[0], m[1] - c[1])
            for s in (ONE, RationalFunction.zero(), rational, (a_pow(d) - a_pow(-d)).inverse()):
                assert CertStep(frm, to, c, s).expansion() == product.scale(s), (c, m, s)
                cases += 1
    assert cases == 4 * 2112


def test_certificate_verifier_rejects_tampering():
    cert = certificate(5, 2)
    bad = AbCertificate(cert.source, cert.canonical, cert.steps[:-1])
    with pytest.raises(VerificationError):
        verify_certificate(bad)
    # Negating the scale of any one step of any chain breaks it.
    for label in BOX4:
        cert = certificate(*label)
        for i, step in enumerate(cert.steps):
            negated = CertStep(step.from_pair, step.to_pair, step.conjugator, -step.scale)
            steps = cert.steps[:i] + (negated,) + cert.steps[i + 1 :]
            with pytest.raises(VerificationError):
                verify_certificate(AbCertificate(cert.source, cert.canonical, steps))
    cert = certificate(4, 0)
    assert len(cert.steps) == 2
    first, second = cert.steps
    x, y, v, s = first.from_pair, first.to_pair, first.conjugator, first.scale
    for steps in (
        (CertStep(x, y, (1, 1), s), second),  # (1, 1) is not +-v
        (CertStep(x, (y[0], -y[1]), v, s), second),
    ):
        with pytest.raises(VerificationError):
            verify_certificate(AbCertificate(cert.source, cert.canonical, steps))
    # curves are unoriented, so the negated conjugator names the same curve
    flipped = CertStep(x, y, (-v[0], -v[1]), s)
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
        zero = CertStep(last.from_pair, (0, 0), last.conjugator, last.scale)
        with pytest.raises(VerificationError):
            verify_certificate(AbCertificate(cert.source, cert.canonical, (*head, zero)))


def test_certificate_sweep_refuses_a_longer_chain(monkeypatch):
    from skeincalc import abelianize, checks

    def padded(p, q):
        cert = certificate(p, q)
        if not cert.steps:
            return cert
        # A step from the class to itself, scaled by 0, still verifies.
        last = cert.steps[-1]
        idle = CertStep(last.to_pair, last.to_pair, last.conjugator, RationalFunction.zero())
        return AbCertificate(cert.source, cert.canonical, cert.steps + (idle,))

    assert checks.certificate_sweep(3) == (48, None)
    monkeypatch.setattr(abelianize, "certificate", padded)
    verify_certificate(padded(3, 0))
    with pytest.raises(VerificationError, match="certified in 3 steps"):
        checks.certificate_sweep(3)


def test_certificate_json_roundtrip():
    cert = certificate(-6, 4)
    doc = json.loads(json.dumps(cert.to_json_dict()))
    assert AbCertificate.from_json_dict(doc) == cert
    assert list(doc) == ["input", "canonical", "steps"]
    if doc["steps"]:
        assert list(doc["steps"][0]) == ["from", "to", "conjugator", "scale"]


def test_certificate_json_pairs_must_be_two_ints():
    doc = json.loads(json.dumps(certificate(5, 2).to_json_dict()))
    doc["steps"][0]["from"] = [5.0, 2]
    with pytest.raises(ValueError, match=r"from must be 2 ints, got \[5.0, 2\]"):
        AbCertificate.from_json_dict(doc)


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
    # verify_certificate as it was before the step rule: each step compared
    # as two skein elements.  This is the reference the rule must agree with.
    if cert.source == (0, 0):
        raise VerificationError("(0,0) is not a curve label")
    cur = canonical_pair(*cert.source)
    for step in cert.steps:
        if step.from_pair != cur:
            raise VerificationError(f"step starts at {step.from_pair}, chain is at {cur}")
        expansion = step.expansion()
        expected = curve(*step.from_pair) - curve(*step.to_pair)
        if expansion != expected:
            raise VerificationError(
                f"step {step.from_pair} -> {step.to_pair}: expansion {expansion} != {expected}"
            )
        cur = step.to_pair
    if canonical_pair(*cur) != cert.canonical:
        raise VerificationError(f"chain ends at {cur}, not at {cert.canonical}")
    if cert.canonical != reduce_label(*cert.source):
        raise VerificationError(f"{cert.canonical} is not the class of {cert.source}")


def _step_mutants(step):
    # Every single mutation of one step: its scale, conjugator, from or to.
    f, t, c, s = step.from_pair, step.to_pair, step.conjugator, step.scale
    m = ((f[0] + t[0]) // 2, (f[1] + t[1]) // 2)
    d = c[0] * m[1] - c[1] * m[0]
    other = (a_pow(-d) - a_pow(d)).inverse()  # the scale of the other orientation
    for scale in (-s, RationalFunction.zero(), s * a_pow(1), s * RationalFunction.from_int(2), other):
        yield CertStep(f, t, c, scale)
    for conj in ((-c[0], -c[1]), (c[0] + 1, c[1]), (c[0], c[1] + 1)):
        yield CertStep(f, t, conj, s)
    for move in ((2, 0), (0, 2)):
        yield CertStep((f[0] + move[0], f[1] + move[1]), t, c, s)
        yield CertStep(f, (t[0] + move[0], t[1] + move[1]), c, s)
    yield CertStep((-f[0], -f[1]), t, c, s)
    yield CertStep(f, (-t[0], -t[1]), c, s)
    yield CertStep((0, 0), t, c, s)
    yield CertStep(f, (0, 0), c, s)
    yield CertStep(t, f, c, s)


def _outcome(verify, cert):
    try:
        verify(cert)
    except VerificationError as exc:
        return str(exc)
    return None


def test_step_rule_agrees_with_the_element_comparison():
    # Each certificate of box 4, also with an idle step from its class to
    # itself scaled by 0, under every single mutation of one step: the step
    # rule accepts exactly when the element comparison does, and refuses
    # with the same message.
    accepted = refused = 0
    for label in BOX4:
        cert = certificate(*label)
        chains = [cert.steps]
        if cert.steps:
            last = cert.steps[-1]
            idle = CertStep(last.to_pair, last.to_pair, last.conjugator, RationalFunction.zero())
            chains.append(cert.steps + (idle,))
        for steps in chains:
            for i, step in enumerate(steps):
                for mutant in _step_mutants(step):
                    tampered = AbCertificate(
                        cert.source, cert.canonical, steps[:i] + (mutant,) + steps[i + 1 :]
                    )
                    want = _outcome(_reference_verify, tampered)
                    assert _outcome(verify_certificate, tampered) == want, (tampered, want)
                    accepted += want is None
                    refused += want is not None
    # Both verdicts occur: a negated conjugator names the same commutator
    # with the labels swapped, and an idle step takes any conjugator.
    assert (accepted, refused) == (720, 3224)
