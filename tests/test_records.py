"""Read-only record types and the package's lazily resolved re-exports."""

import copy
import importlib
import pickle

import pytest

import skeincalc
from skeincalc.abelianize import AbCertificate, CertStep, certificate
from skeincalc.errors import Record
from skeincalc.torus3 import (
    Curve3,
    Generator,
    Reduction3Certificate,
    ReductionStep,
    StandardEmbedding,
    build_m3,
    generators,
    reduce_curve,
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
    " build_m1 build_m2 build_m3 common_curve extended_gcd find_diffeo generators"
    " grade_decompose homology_class reduce_curve replay_certificate trivial_embedding",
}
OLD_NAMES = {name for names in OLD_EXPORTS.values() for name in names.split()}


def _ab_certificate():
    return certificate(3, 1)


def _t3_certificate():
    return reduce_curve(Curve3(1, 2, 1))[1]


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
        lambda: ReductionStep(build_m3(), (1, 2), (1, 0)),
        "ReductionStep(embedding=StandardEmbedding([[1, 0, 0], [0, 1, 0], [1, 0, 1]],"
        " columns=(1, 2)), from_pair=(1, 2), to_pair=(1, 0), permutation=(0, 1, 2))",
    ),
    "Reduction3Certificate": (
        _t3_certificate,
        "Reduction3Certificate(source=Curve3(p=1, q=2, r=1), canonical=Curve3(p=1, q=0, r=1),"
        " steps=(ReductionStep(embedding=StandardEmbedding([[1, 0, 0], [0, 1, 0], [1, 0, 1]],"
        " columns=(1, 2)), from_pair=(1, 2), to_pair=(1, 0), permutation=(0, 1, 2)),))",
    ),
    "Generator": (lambda: generators()[1], "Generator(kind='curve', curve=Curve3(p=1, q=0, r=0))"),
    "StandardEmbedding": (
        build_m3,
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


def test_record_defaults_and_arity():
    assert ReductionStep(build_m3(), (1, 2), (1, 0)).permutation == (0, 1, 2)
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
    assert len(OLD_NAMES) == 45
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
