"""Curve labels of the 2-torus and their commutator certificates, in integers.

A label (p, q) != (0, 0) names one curve together with (-p, -q).
certificate() witnesses its collapse onto its class in the commutator
quotient (abelianize) with at most two steps.  A step holds from, to
and a conjugator c; with m the midpoint of from and to it claims
scale * [c, m] = from - to.  By the closed form [c, m] = (A^d - A^-d)
(P - M) of the product rule (Frohman-Gelca, Trans. AMS 352, 2000), with
d = det(c, m) != 0, P = L(c+m) and M = L(c-m) two distinct nonzero
labels, F = L(from) and T = L(to), some scale makes the claim hold
exactly when neither pair is (0,0) (curve(0,0) is 2*empty, which no
expansion holds) and {P, M} == {F, T}.  The scale is 1/(A^d - A^-d)
when P == F and its negative when P == T.  A step with F == T claims
nothing (its scale would be 0), and P != M refuses it.  verify_certificate()
decides on integers alone, and this module imports no algebra; only
CertStep.scale, which derives the scale, imports ratfunc.
"""

from __future__ import annotations

from .errors import Record, VerificationError, int_tuple, json_fields


def canonical_pair(p: int, q: int) -> tuple[int, int]:
    """Pick the canonical representative of {(p,q), (-p,-q)}; (0,0) is rejected."""
    if p == 0 and q == 0:
        raise ValueError("(0,0) is not a curve label")
    return (p, q) if p > 0 or (p == 0 and q > 0) else (-p, -q)


def reduce_label(p: int, q: int) -> tuple[int, int]:
    """Class of a curve label, determined by coordinate parities alone."""
    if p == 0 and q == 0:
        raise ValueError("(0,0) is not a curve label (it is twice the empty link)")
    pp, qq = p % 2, q % 2
    return (pp, qq) if pp or qq else (2, 0)


class CertStep(Record):
    """One commutator rewrite: scale * [conjugator, midpoint] = from - to."""

    __slots__ = ("from_pair", "to_pair", "conjugator")

    def _labels(self) -> tuple[tuple[int, int], tuple[int, int], int]:
        """L(c+m), L(c-m) and d = det(c, m), c the conjugator and m the midpoint of from and to."""
        fp, tp = self.from_pair, self.to_pair
        if (fp[0] + tp[0]) % 2 or (fp[1] + tp[1]) % 2:
            raise VerificationError(f"step {fp} -> {tp} has no integer midpoint")
        m0, m1 = (fp[0] + tp[0]) // 2, (fp[1] + tp[1]) // 2
        c0, c1 = self.conjugator
        d = c0 * m1 - c1 * m0
        if d == 0:
            raise VerificationError(f"step {fp} -> {tp}: conjugator determinant is 0")
        # d != 0 makes c+m and c-m two distinct nonzero curves, so no term merges.
        return canonical_pair(c0 + m0, c1 + m1), canonical_pair(c0 - m0, c1 - m1), d

    @property
    def scale(self):
        """1/(A^d - A^-d) if L(c+m) is L(from), else its negative, for a step that holds.

        With D = +-d that is sign(D) A^|D| / (A^2|D| - 1), already
        canonical (coprime, monic, constant term -1): no gcd, no inverse.
        """
        from .ratfunc import LaurentPoly, RationalFunction

        plus, _, d = self._labels()
        if plus != canonical_pair(*self.from_pair):
            d = -d
        k = abs(d)
        return RationalFunction._raw(
            LaurentPoly._raw({k: 1 if d > 0 else -1}), LaurentPoly._raw({2 * k: 1, 0: -1})
        )


class AbCertificate(Record):
    """Telescoping chain of commutator rewrites from a label to its class."""

    __slots__ = ("source", "canonical", "steps")

    def to_json_dict(self) -> dict:
        return {
            "input": list(self.source),
            "canonical": list(self.canonical),
            "steps": [
                {"from": list(s.from_pair), "to": list(s.to_pair),
                 "conjugator": list(s.conjugator)}
                for s in self.steps
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "AbCertificate":
        kinds = {"input": object, "canonical": object, "steps": list}
        source, canonical, steps = json_fields(doc, "certificate", kinds)
        keys = ("from", "to", "conjugator")
        step_kinds = dict.fromkeys(keys, object)
        steps = tuple(
            CertStep(*map(int_tuple, json_fields(s, "step", step_kinds), (2, 2, 2), keys))
            for s in steps
        )
        return cls(int_tuple(source, 2, "input"), int_tuple(canonical, 2, "canonical"), steps)


def _step(x: tuple[int, int], y: tuple[int, int]) -> CertStep:
    # x = u + v and y = u - v, so [v, u] = (A^d - A^-d) (x - y), d = det(v, u).
    return CertStep(x, y, ((x[0] - y[0]) // 2, (x[1] - y[1]) // 2))


def certificate(p: int, q: int) -> AbCertificate:
    """Commutator certificate collapsing (p,q) onto its parity class.

    Two labels x != y with equal parities and det(x, y) != 0 are one
    scaled commutator apart, so a label steps straight to its class.  A
    label parallel to its class (c0, c1), such as (p,0) or (0,q), first
    steps to (c0, c1+2), or to (2, c1) when c0 = 0; that label is
    parallel to neither.  p and q must be ints (a bool or float is a
    ValueError), as in a loaded certificate.
    """
    p, q = int_tuple((p, q), 2, "label")
    start = canonical_pair(p, q)  # refuses (0,0)
    target = reduce_label(p, q)
    if start == target:
        return AbCertificate((p, q), target, ())
    if start[0] * target[1] - start[1] * target[0]:
        return AbCertificate((p, q), target, (_step(start, target),))
    c0, c1 = target
    via = (c0, c1 + 2) if c0 else (2, c1)
    return AbCertificate((p, q), target, (_step(start, via), _step(via, target)))


def verify_certificate(cert: AbCertificate) -> None:
    """Replay a certificate; raise VerificationError on any defect.

    One walk from canonical_pair(source): each step starts where the chain
    stands and has an integer midpoint m, d = det(c, m) != 0, to != (0,0)
    and {P, M} == {F, T} (module docstring), so its derived scale times
    [c, m] is from - to; P != M refuses an idle step, F == T.  The walk ends on the canonical label, the
    input's class, so the steps telescope to source - canonical.
    """
    if cert.source == (0, 0):
        raise VerificationError("(0,0) is not a curve label")
    cur = canonical_pair(*cert.source)
    for step in cert.steps:
        fp, tp = step.from_pair, step.to_pair
        if fp != cur:
            raise VerificationError(f"step starts at {fp}, chain is at {cur}")
        plus, minus, _ = step._labels()
        if not any(tp):  # fp is the chain's label, never (0,0)
            raise VerificationError(f"step {fp} -> {tp}: (0,0) is not a curve label")
        f, t = canonical_pair(*fp), canonical_pair(*tp)
        if (plus, minus) != (f, t) and (plus, minus) != (t, f):
            raise VerificationError(
                f"step {fp} -> {tp}: conjugator {step.conjugator} relates {plus} and {minus}"
            )
        cur = tp
    if canonical_pair(*cur) != cert.canonical:
        raise VerificationError(f"chain ends at {cur}, not at {cert.canonical}")
    if cert.canonical != reduce_label(*cert.source):
        raise VerificationError(f"{cert.canonical} is not the class of {cert.source}")
