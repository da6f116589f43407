"""Read-only record types and the package's lazily resolved re-exports."""

import copy
import importlib
import json
import math
import pickle
import random
from fractions import Fraction

import pytest

import skeincalc
from skeincalc.abelianize import AbCertificate, CertStep, certificate, verify_certificate
from skeincalc.errors import Record, VerificationError
from skeincalc.expressions import parse_scalar
from skeincalc.ratfunc import LaurentPoly
from skeincalc.torus3 import (
    Curve3,
    Generator,
    Reduction3Certificate,
    ReductionStep,
    StandardEmbedding,
    generators,
    reduce_curve,
    replay_certificate,
)

# The names the package re-exported eagerly before it resolved them on
# first use, with the module each one was imported from.
OLD_EXPORTS = {
    "abelianize": "AbCertificate AbElement CertStep CLASSES certificate closure_check"
    " reduce_element reduce_label verify_certificate",
    "errors": "VerificationError",
    "expressions": "ExpressionError parse_element parse_scalar",
    "quantum_torus": "QTorusElement embed_curve embed_element",
    "ratfunc": "LaurentPoly RationalFunction a_pow",
    "torus2": "EMPTY SkeinT2Element canonical_pair chebyshev_t commutator curve"
    " framing_twist scalar t_to_jw",
    "torus3": "Curve3 Generator Reduction3Certificate ReductionStep StandardEmbedding"
    " common_curve extended_gcd find_diffeo generators grade_decompose reduce_curve"
    " replay_certificate",
}
OLD_NAMES = {name for names in OLD_EXPORTS.values() for name in names.split()}


def _ab_certificate():
    return certificate(3, 1)


def _t3_certificate():
    return reduce_curve(Curve3(1, 2, 1))[1]


def _embedding():
    return StandardEmbedding(((1, 0, 0), (0, 1, 0), (1, 0, 1)), (1, 2))


# (build a value, its repr under the frozen dataclasses these classes replace)
RECORDS = {
    "Curve3": (lambda: Curve3(1, 0, 0), "Curve3(p=1, q=0, r=0)"),
    "CertStep": (
        lambda: _ab_certificate().steps[0],
        "CertStep(from_pair=(3, 1), to_pair=(1, 1), conjugator=(1, 0),"
        " scale=RationalFunction((A)/(A^2 - 1)))",
    ),
    "AbCertificate": (
        _ab_certificate,
        "AbCertificate(source=(3, 1), canonical=(1, 1), steps=(CertStep(from_pair=(3, 1),"
        " to_pair=(1, 1), conjugator=(1, 0), scale=RationalFunction((A)/(A^2 - 1))),))",
    ),
    "ReductionStep": (
        lambda: ReductionStep(_embedding(), (1, 2), (1, 0)),
        "ReductionStep(embedding=StandardEmbedding([[1, 0, 0], [0, 1, 0], [1, 0, 1]],"
        " columns=(1, 2)), from_pair=(1, 2), to_pair=(1, 0))",
    ),
    "Reduction3Certificate": (
        _t3_certificate,
        "Reduction3Certificate(source=Curve3(p=1, q=2, r=1), canonical=Curve3(p=1, q=0, r=1),"
        " steps=(ReductionStep(embedding=StandardEmbedding([[0, 0, 1], [0, 1, 0], [-1, 0, 1]],"
        " columns=(2, 3)), from_pair=(2, 1), to_pair=(0, 1)),))",
    ),
    "Generator": (lambda: generators()[1], "Generator(kind='curve', curve=Curve3(p=1, q=0, r=0))"),
    "StandardEmbedding": (
        _embedding,
        "StandardEmbedding([[1, 0, 0], [0, 1, 0], [1, 0, 1]], columns=(1, 2))",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_equality_hash_and_repr(name):
    build, want_repr = RECORDS[name]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert repr(a) == want_repr
    fields = tuple(getattr(a, f) for f in a.__slots__)
    assert hash(a) == hash(fields)
    # Another type with the same fields is a different value.
    lookalike = type("Lookalike", (Record,), {"__slots__": a.__slots__})
    assert lookalike(*fields) != a and a != lookalike(*fields)
    assert a != fields


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_fields_are_read_only(name):
    a = RECORDS[name][0]()
    field = a.__slots__[0]
    before = getattr(a, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(a, field, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert getattr(a, field) is before


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_copies_and_pickles(name):
    a = RECORDS[name][0]()
    assert copy.copy(a) == a
    assert copy.deepcopy(a) == a
    assert pickle.loads(pickle.dumps(a)) == a


def test_certificates_are_hashable_values():
    ab, t3 = _ab_certificate(), _t3_certificate()
    assert {ab, _ab_certificate()} == {ab}
    assert {t3, _t3_certificate()} == {t3}
    assert AbCertificate.from_json_dict(ab.to_json_dict()) == ab
    assert Reduction3Certificate.from_json_dict(t3.to_json_dict()) == t3


# (loader, path to the edited value, new value or None to delete the key,
# what the ValueError says); the path () replaces the whole document.
MALFORMED = [
    ("ab", (), [5, 2], "certificate must be a JSON object"),
    ("ab", ("input",), None, "certificate has no 'input'"),
    ("ab", ("steps", 0, "scale"), None, "step has no 'scale'"),
    ("ab", ("steps",), {}, "steps must be a list"),
    ("ab", ("steps",), "", "steps must be a list"),
    ("ab", ("steps", 0), 1, "step must be a JSON object"),
    ("ab", ("steps", 0, "scale"), 5, "scale must be a str"),
    ("t3", (), "certificate", "certificate must be a JSON object"),
    ("t3", ("canonical",), None, "certificate has no 'canonical'"),
    ("t3", ("steps", 0, "matrix"), None, "step has no 'matrix'"),
    ("t3", ("steps",), 7, "steps must be a list"),
    ("t3", ("steps", 0), [1], "step must be a JSON object"),
    ("t3", ("steps", 0, "matrix"), 5, "matrix must be a list"),
    ("t3", ("steps", 0, "matrix"), [1, 0, 0], "matrix must be 3x3"),
    ("t3", ("steps", 0, "matrix", 2), 5, "matrix must be 3x3"),
    ("t3", ("steps", 0, "matrix", 2), [0, 1], "matrix must be 3x3"),
    ("t3", ("steps", 0, "columns"), 2, "columns must be a list"),
]


@pytest.mark.parametrize("kind, path, value, message", MALFORMED)
def test_malformed_certificate_json_is_a_value_error(kind, path, value, message):
    # Never the KeyError or TypeError that reading the document would raise.
    if kind == "ab":
        cert, loader = certificate(5, 2), AbCertificate.from_json_dict
    else:
        cert, loader = reduce_curve(Curve3.of(7, 4, 2))[1], Reduction3Certificate.from_json_dict
    doc = json.loads(json.dumps(cert.to_json_dict()))
    assert loader(doc) == cert
    if not path:
        doc = value
    else:
        *head, last = path
        parent = doc
        for key in head:
            parent = parent[key]
        if value is None:
            del parent[last]
        else:
            parent[last] = value
    with pytest.raises(ValueError, match=message):
        loader(doc)


def test_record_defaults_and_arity():
    with pytest.raises(TypeError):
        ReductionStep(_embedding(), (1, 2), (1, 0), (0, 1, 2))
    assert Generator("alpha").curve is None
    assert Generator(kind="curve", curve=Curve3(1, 1, 1)).curve == Curve3(1, 1, 1)
    with pytest.raises(TypeError):
        CertStep((3, 1), (1, 1), (1, 0))
    with pytest.raises(TypeError):
        AbCertificate((3, 1), (1, 1), (), ())


def test_curve3_validation_messages():
    with pytest.raises(ValueError, match=r"^\(2,4,6\) is not coprime$"):
        Curve3(2, 4, 6)
    with pytest.raises(ValueError, match=r"^\(-1,0,0\) is not sign-canonical; use Curve3.of$"):
        Curve3(-1, 0, 0)
    with pytest.raises(ValueError, match=r"^\(0,0,0\) is not coprime$"):
        Curve3(0, 0, 0)
    with pytest.raises(ValueError, match=r"^\(-2,-4,-6\) is not coprime$"):
        Curve3.of(-2, -4, -6)
    assert Curve3.of(-1, 2, 0) == Curve3(1, -2, 0)


def test_standard_embedding_validation_is_unchanged():
    with pytest.raises(ValueError, match="matrix determinant is 2, expected 1"):
        StandardEmbedding(((2, 0, 0), (0, 1, 0), (0, 0, 1)), (1, 2))
    with pytest.raises(ValueError, match="columns must be two distinct 1-based indices"):
        StandardEmbedding(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (2, 2))


def test_every_old_reexport_resolves_to_its_home_object():
    assert len(OLD_NAMES) == 40
    for module, names in OLD_EXPORTS.items():
        home = importlib.import_module(f"skeincalc.{module}")
        for name in names.split():
            assert getattr(skeincalc, name) is getattr(home, name), name
    assert set(skeincalc.__all__) == OLD_NAMES
    assert OLD_NAMES <= set(dir(skeincalc))


def test_star_import_and_readme_example():
    namespace = {}
    exec("from skeincalc import *", namespace)
    assert set(namespace) - {"__builtins__"} == OLD_NAMES
    exec(
        "from skeincalc import curve, commutator, certificate, verify_certificate,"
        " reduce_curve, Curve3",
        namespace,
    )
    assert namespace["Curve3"] is Curve3


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        skeincalc.no_such_name
    assert getattr(skeincalc, "no_such_name", None) is None
    assert not hasattr(skeincalc, "Token")
    with pytest.raises(ImportError):
        exec("from skeincalc import no_such_name", {})


# The mutations of each certificate kind's JSON, and the keys of its pairs.
MUTATIONS = {
    "ab": (("scale", "conjugator", "pair", "drop", "repeat", "delete"), ("from", "to")),
    "t3": (("matrix", "pair", "drop", "repeat", "delete"), ("from_pair", "to_pair")),
}


def _mutate(doc, kind, rng):
    # One seeded single mutation of a certificate document, in place;
    # returns its name.  A certificate with no step has its input moved or
    # a key deleted.  A changed entry is moved by a small integer or
    # replaced by a value of another type.
    steps = doc["steps"]
    names, pair_keys = MUTATIONS[kind]
    name = rng.choice(names) if steps else rng.choice(("pair", "delete"))
    bad = rng.choice((None, None, None, 1.5, "1", True, [1]))
    if name == "delete":
        target = rng.choice([doc, *steps])
        del target[rng.choice(list(target))]
    elif name == "drop":
        del steps[rng.randrange(len(steps))]
    elif name == "repeat":
        i = rng.randrange(len(steps))
        steps.insert(i, copy.deepcopy(steps[i]))
    elif name == "scale":
        step = rng.choice(steps)
        scale = parse_scalar(step["scale"])
        num, den = dict(scale.num.terms), dict(scale.den.terms)
        poly = rng.choice((num, den))
        poly[rng.choice(list(poly))] += rng.choice((-2, -1, 1, 2, Fraction(1, 2)))
        step["scale"] = f"({LaurentPoly(num)})/({LaurentPoly(den)})"
    else:
        if name == "matrix":
            holder, key = rng.choice(rng.choice(steps)["matrix"]), rng.randrange(3)
        elif name == "conjugator":
            holder, key = rng.choice(steps), "conjugator"
        elif steps:
            holder, key = rng.choice(steps), rng.choice(pair_keys)
        else:
            holder, key = doc, "input"
        if name != "matrix" and bad is not None and rng.random() < 0.5:
            holder[key] = bad  # the whole pair
        else:
            if name != "matrix":
                holder, key = holder[key], rng.randrange(len(holder[key]))
            holder[key] = bad if bad is not None else holder[key] + rng.choice((-2, -1, 1, 2))
    return name


@pytest.mark.parametrize("kind", ["ab", "t3"])
def test_every_json_mutation_is_malformed_or_tampered(kind):
    # Each seeded single mutation of a valid certificate is refused by the
    # loader (ValueError) or by the replay (VerificationError), never with a
    # KeyError, TypeError or AttributeError.  Only a mutation that left the
    # certificate as it was, or a 3-torus certificate's claim (_claim) as
    # it was, may pass.
    rng = random.Random(57)
    outcomes = {}
    for _ in range(600):
        if kind == "ab":
            label = (rng.randint(-9, 9), rng.randint(-9, 9))
            if label == (0, 0):
                continue
            cert, load, replay = certificate(*label), AbCertificate.from_json_dict, verify_certificate
        else:
            triple = [rng.randint(-20, 20) for _ in range(3)]
            if math.gcd(*triple) != 1:
                continue
            cert = reduce_curve(Curve3.of(*triple))[1]
            load, replay = Reduction3Certificate.from_json_dict, replay_certificate
        doc = json.loads(json.dumps(cert.to_json_dict()))
        mutation = _mutate(doc, kind, rng)
        try:
            mutant = load(doc)
            replay(mutant)
        except (ValueError, VerificationError) as exc:
            outcome = type(exc).__name__
        else:
            outcome = "unchanged" if mutant == cert else "same claim"
            if outcome != "unchanged":
                assert kind == "t3" and _claim(mutant) == _claim(cert), doc
        outcomes.setdefault(mutation, set()).add(outcome)
    # Every mutation was tried and refused at least once.
    assert set(outcomes) == set(MUTATIONS[kind][0])
    assert all(seen & {"ValueError", "VerificationError"} for seen in outcomes.values())


def _claim(cert):
    # What a 3-torus certificate claims.  A step reads only the selected
    # columns of its matrix, the third being free but for the determinant,
    # and a pair and its negative name the same curve.
    def curve(pair):
        return max(pair, tuple(-x for x in pair))

    steps = [(s.embedding.selected(), curve(s.from_pair), curve(s.to_pair)) for s in cert.steps]
    return cert.source, cert.canonical, steps
