"""The package's record classes against dataclass oracles.

Each record class is a slotted value on ``jetcocycles._record.Record``.
For every one, a dataclass with the same fields, annotations and defaults
is the oracle for construction, equality, hashing, repr and immutability;
the validation and normalization each record's ``__init__`` does are
checked on their own.  The start-up guard checks that importing the
package loads neither ``dataclasses`` nor ``inspect``.
"""

import dataclasses
import inspect
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import jetcocycles
from jetcocycles.charts import AnsatzTerm, CorrectionResult, EquivalenceResult, GlobalityResult
from jetcocycles.cochains import Cochain1, Cochain2, LambdaVerdict, det_expr
from jetcocycles.expr import DiffExpr, jet
from jetcocycles.lampoly import LamPoly
from jetcocycles.linalg import AffineSolution
from jetcocycles.report import CheckRecord
from jetcocycles.wittmodel import CertificateResult, LaurentDensity, WittField


def _alt_term():
    return AnsatzTerm(1, 2, (("T", 0),), jet("T", 0))


# class, frozen, (field, annotation) pairs, one valid argument tuple, and
# for each field a replacement that keeps the arguments valid
CASES = [
    (AffineSolution, False,
     [("nvars", "int"), ("particular", "Row"), ("nullspace", "List[Row]")],
     (2, {0: 1}, [{1: Fraction(1, 2)}]),
     (3, {0: 2}, [])),
    (Cochain1, True,
     [("coeff", "DiffExpr"), ("value_weight", "Rat"), ("module_lambda", "Module")],
     (jet("f", 2), 2, None),
     (jet("f", 3), Fraction(1, 2), 2)),
    (Cochain2, True,
     [("coeff", "DiffExpr"), ("value_weight", "Rat"), ("module_lambda", "Module")],
     (det_expr(0, 1), 1, LamPoly.lam()),
     (det_expr(0, 2), 2, 3)),
    (LambdaVerdict, True,
     [("kind", "str"), ("values", "Tuple[Rat, ...]"), ("trivial_action_pass", "bool")],
     ("finite", (1, Fraction(3, 2)), False),
     ("all", (), True)),
    (GlobalityResult, True,
     [("ok", "bool"), ("weight", "int"), ("residual", "DiffExpr")],
     (False, 2, jet("f", 0)),
     (True, 3, DiffExpr.zero())),
    (AnsatzTerm, True,
     [("p", "int"), ("q", "int"), ("symbols", "_Symbols"), ("m", "DiffExpr")],
     (0, 1, (("T", 0),), jet("T", 0)),
     (1, 2, (), DiffExpr.one())),
    (CorrectionResult, True,
     [("symbol", "DiffExpr"), ("weight", "int"), ("module_lambda", "Optional[Rat]"),
      ("ansatz", "Tuple[AnsatzTerm, ...]"), ("solution", "Optional[AffineSolution]")],
     (det_expr(0, 1), 1, None, (), None),
     (det_expr(0, 2), 2, 1, (_alt_term(),), AffineSolution(1, {}, [{0: 1}]))),
    (EquivalenceResult, True,
     [("name", "str"), ("ok", "bool"), ("residual", "DiffExpr")],
     ("c1", True, DiffExpr.zero()),
     ("c2", False, jet("f", 0))),
    (LaurentDensity, True,
     [("coeffs", "Tuple[Tuple[int, Rat], ...]"), ("weight", "Rat")],
     (((0, 1), (2, Fraction(-1, 3))), 2),
     (((1, 1),), Fraction(1, 2))),
    (WittField, True,
     [("coeffs", "Tuple[Tuple[int, Rat], ...]")],
     (((1, 1),),),
     (((2, 1),),)),
    (CertificateResult, True,
     [("verdict", "str"), ("window", "int"), ("module_lambda", "Optional[Rat]"),
      ("degree_shift", "Optional[int]")],
     ("NONTRIVIAL", 3, None, 0),
     ("INCONCLUSIVE", 4, 1, None)),
    (CheckRecord, True,
     [("check_id", "str"), ("description", "str"), ("lam", "str"), ("status", "str"),
      ("residual", "str"), ("paper_ref", "str")],
     ("table3.det12", "det(1,2)", "symbolic", "FAIL", "f[0]", "derived"),
     ("witt.kn", "kn", "2", "PASS", "g[1]", "Table 3")),
]

# the defaults today's classes keep, as dataclass fields
DEFAULTS = {Cochain2: {"module_lambda": dataclasses.field(default_factory=LamPoly.lam)}}

IDS = [case[0].__name__ for case in CASES]


def _oracle(cls, frozen, fields):
    specs = [(name, ann, DEFAULTS.get(cls, {})[name]) if name in DEFAULTS.get(cls, {})
             else (name, ann) for name, ann in fields]
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=frozen)


def _values(rec, fields):
    return [getattr(rec, name) for name, _ in fields]


def _variants(args, alts):
    """args with one field replaced, for each field in turn."""
    for i, alt in enumerate(alts):
        yield args[:i] + (alt,) + args[i + 1:]


@pytest.mark.parametrize("cls, frozen, fields, args, alts", CASES, ids=IDS)
def test_signature_matches_the_oracle(cls, frozen, fields, args, alts):
    oracle = _oracle(cls, frozen, fields)
    ours = inspect.signature(cls).parameters.values()
    theirs = inspect.signature(oracle).parameters.values()
    assert [(p.name, p.kind, p.annotation, p.default is p.empty) for p in ours] \
        == [(p.name, p.kind, p.annotation, p.default is p.empty) for p in theirs]
    assert cls.__slots__ == tuple(name for name, _ in fields)


@pytest.mark.parametrize("cls, frozen, fields, args, alts", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, frozen, fields, args, alts):
    rec = cls(*args)
    assert cls(**{name: a for (name, _), a in zip(fields, args)}) == rec
    assert not hasattr(rec, "__dict__")
    with pytest.raises(TypeError):
        cls(*args, *args[:1])


def test_cochain2_module_defaults_to_one_immutable_symbolic_lam():
    """The default module is one LamPoly.lam() shared by every cochain,
    which is safe because a LamPoly cannot be changed."""
    a, b = Cochain2(det_expr(0, 1), 1), Cochain2(det_expr(0, 1), 1)
    assert a.module_lambda == LamPoly.lam() and type(a.module_lambda) is LamPoly
    assert a.module_lambda is b.module_lambda
    with pytest.raises(AttributeError):
        a.module_lambda.coeffs = (0, 2)
    assert b.module_lambda == LamPoly.lam()
    assert a == Cochain2(det_expr(0, 1), 1, LamPoly.lam())
    assert Cochain2(det_expr(0, 1), 1, None).module_lambda is None


@pytest.mark.parametrize("cls, frozen, fields, args, alts", CASES, ids=IDS)
def test_equality_follows_the_oracle_field_by_field(cls, frozen, fields, args, alts):
    oracle = _oracle(cls, frozen, fields)
    rec = cls(*args)
    twin = oracle(*_values(rec, fields))
    assert rec == cls(*args) and not rec != cls(*args)
    for variant in _variants(args, alts):
        other = cls(*variant)
        assert rec != other and not rec == other
        assert twin != oracle(*_values(other, fields))
    # a record equals only a record of its own class
    assert rec.__eq__(twin) is NotImplemented and rec != twin
    assert rec.__eq__(_values(rec, fields)) is NotImplemented
    assert rec != tuple(_values(rec, fields))


def test_records_of_different_classes_differ_on_equal_fields():
    coeffs = ((1, 1),)
    density, field = LaurentDensity(coeffs, -1), WittField(coeffs)
    assert field.as_density() == density
    assert field.__eq__(density) is NotImplemented and field != density
    g = GlobalityResult(True, 2, DiffExpr.zero())
    e = EquivalenceResult(True, 2, DiffExpr.zero())   # same values, other class
    assert g != e and e != g


@pytest.mark.parametrize("cls, frozen, fields, args, alts", CASES, ids=IDS)
def test_hash_follows_the_oracle(cls, frozen, fields, args, alts):
    oracle = _oracle(cls, frozen, fields)
    rec = cls(*args)
    twin = oracle(*_values(rec, fields))
    if frozen:
        assert hash(rec) == hash(cls(*args))
        assert {rec: 1}[cls(*args)] == 1
        hash(twin)
    else:
        assert cls.__hash__ is None is oracle.__hash__
        with pytest.raises(TypeError):
            hash(rec)
        with pytest.raises(TypeError):
            hash(twin)


@pytest.mark.parametrize("cls, frozen, fields, args, alts", CASES, ids=IDS)
def test_repr_matches_the_oracle(cls, frozen, fields, args, alts):
    oracle = _oracle(cls, frozen, fields)
    for a in (args, *_variants(args, alts)):
        rec = cls(*a)
        assert repr(rec) == repr(oracle(*_values(rec, fields)))
    assert repr(cls(*args)).startswith(cls.__name__ + "(" + fields[0][0] + "=")


@pytest.mark.parametrize("cls, frozen, fields, args, alts", CASES, ids=IDS)
def test_frozen_records_refuse_assignment_and_deletion(cls, frozen, fields, args, alts):
    rec = cls(*args)
    before = _values(rec, fields)
    if not frozen:
        for (name, _), alt in zip(fields, alts):
            setattr(rec, name, alt)
        assert rec == cls(*alts)
        delattr(rec, fields[0][0])
        assert not hasattr(rec, fields[0][0])
        return
    for (name, _), alt in zip(fields, alts):
        with pytest.raises(AttributeError):
            setattr(rec, name, alt)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1
    with pytest.raises(AttributeError):
        del rec.not_a_field
    assert _values(rec, fields) == before


# -- validation and normalization ----------------------------------------


def test_cochain1_must_be_linear_in_f():
    for coeff in (jet("f", 0) * jet("f", 1), jet("g", 1), DiffExpr.one()):
        with pytest.raises(ValueError, match="linear"):
            Cochain1(coeff, 2, None)


def test_cochain2_must_be_bilinear_and_antisymmetric():
    with pytest.raises(ValueError, match="bilinear"):
        Cochain2(det_expr(0, 1) * jet("f", 0), 1)
    with pytest.raises(ValueError, match="bilinear"):
        Cochain2(jet("f", 0), 1)
    with pytest.raises(ValueError, match="antisymmetric"):
        Cochain2(jet("f", 0) * jet("g", 1), 1)


def test_value_weight_and_module_are_normalized():
    c = Cochain2(det_expr(0, 1), Fraction(4, 2), LamPoly.const(2))
    assert type(c.value_weight) is int and c.value_weight == 2
    assert type(c.module_lambda) is int and c.module_lambda == 2
    half = Cochain2(det_expr(0, 1), Fraction(1, 2), LamPoly.const(Fraction(1, 2)))
    assert type(half.value_weight) is Fraction and type(half.module_lambda) is Fraction
    b = Cochain1(jet("f", 2), Fraction(6, 3), LamPoly.const(3))
    assert type(b.value_weight) is int and b.value_weight == 2
    assert type(b.module_lambda) is int and b.module_lambda == 3
    for bad in (1.0, 0.5):
        with pytest.raises(TypeError):
            Cochain2(det_expr(0, 1), bad)
        with pytest.raises(TypeError):
            Cochain2(det_expr(0, 1), 1, bad)


def test_check_records_need_a_residual_to_fail_and_a_reference():
    with pytest.raises(ValueError, match="residual"):
        CheckRecord("x", "d", "symbolic", "FAIL", "", "derived")
    with pytest.raises(ValueError, match="reference"):
        CheckRecord("x", "d", "symbolic", "PASS", "", "")
    assert CheckRecord("x", "d", "2", "PASS", "", "derived").residual == ""


# -- start-up guard ----------------------------------------------------------

_PROBE = ("import sys\n"
          "{imports}"
          "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n")


def test_import_loads_neither_dataclasses_nor_inspect():
    src = os.path.dirname(os.path.dirname(jetcocycles.__file__))
    env = {**os.environ, "PYTHONPATH": src}

    def loaded(imports: str) -> str:
        return subprocess.run([sys.executable, "-c", _PROBE.format(imports=imports)],
                              check=True, env=env, capture_output=True,
                              text=True).stdout.strip()

    bare = loaded("")
    if bare:
        pytest.skip(f"the bare interpreter already loads {bare}")
    assert loaded("import jetcocycles\nimport jetcocycles.cli\n") == ""
