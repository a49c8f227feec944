"""The value types ModularMatrix, GeneratorWord, EvalResult and CliConfig.

Each is immutable, prints as `Name(field=value, ...)`, gives equal values
equal hashes, survives pickling and copying, and checks its fields however it
is built.  ModularMatrix, EvalResult and CliConfig are named tuples: they
unpack, each equals the plain tuple of its fields, and the namedtuple
constructors `_make` and `_replace` run the same checks as the class.  A
matrix takes only entries of type int and neither concatenates nor repeats.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from etaforge import IDENTITY, EvalResult, GeneratorWord, ModularMatrix, omega, t_power
from etaforge.campaigns import CliConfig

# (build a value, one of its fields, its repr)
VALUES = {
    "ModularMatrix": (lambda: ModularMatrix(2, 1, 1, 1), "a", "ModularMatrix(a=2, b=1, c=1, d=1)"),
    "GeneratorWord": (
        lambda: GeneratorWord((2, "S", 1)),
        "factors",
        "GeneratorWord(factors=(2, 'S', 1))",
    ),
    "EvalResult": (
        lambda: EvalResult(1 + 2j, 0.5, 3),
        "value",
        "EvalResult(value=(1+2j), tail_bound=0.5, terms_used=3)",
    ),
    "CliConfig": (lambda: CliConfig(order=5), "seed", "CliConfig(order=5, trials=None, seed=0)"),
}


@pytest.mark.parametrize("kind", VALUES)
def test_assigning_a_field_raises(kind):
    build, field, _ = VALUES[kind]
    value = build()
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("kind", VALUES)
def test_repr_text(kind):
    build, _, text = VALUES[kind]
    assert repr(build()) == text


@pytest.mark.parametrize("kind", VALUES)
def test_equal_values_have_equal_hashes(kind):
    build, _, _ = VALUES[kind]
    assert build() == build() and hash(build()) == hash(build())


def test_equal_hashes_across_canonical_signs():
    assert ModularMatrix(-2, -1, -1, -1) == ModularMatrix(2, 1, 1, 1)
    assert hash(ModularMatrix(-2, -1, -1, -1)) == hash(ModularMatrix(2, 1, 1, 1))
    assert GeneratorWord((1, 1, "S", 0)) == GeneratorWord((2, "S"))
    assert hash(GeneratorWord((1, 1, "S", 0))) == hash(GeneratorWord((2, "S")))


@pytest.mark.parametrize("kind", VALUES)
def test_pickle_and_copy_round_trip(kind):
    build, _, _ = VALUES[kind]
    value = build()
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert twin == value and type(twin) is type(value)


def test_make_and_replace_run_the_matrix_checks():
    assert ModularMatrix._make((-2, -1, -1, -1)) == ModularMatrix(2, 1, 1, 1)
    assert IDENTITY._replace(b=5) == t_power(5)
    assert ModularMatrix(0, -1, 1, 0)._replace(b=1, c=-1) == ModularMatrix(0, -1, 1, 0)
    with pytest.raises(ValueError, match="determinant 1"):
        ModularMatrix._make((1, 0, 0, 2))
    with pytest.raises(ValueError, match="determinant 1"):
        ModularMatrix(2, 1, 1, 1)._replace(b=0)
    with pytest.raises(ValueError, match="type int"):
        IDENTITY._replace(b=0.5)


def test_make_and_replace_run_the_config_checks():
    assert CliConfig._make((5, None, 1)) == CliConfig(order=5, seed=1)
    with pytest.raises(ValueError, match="order"):
        CliConfig()._replace(order=0)
    with pytest.raises(ValueError, match="seed"):
        CliConfig._make((None, None, 1.5))


def test_named_tuples_unpack_and_equal_their_fields():
    a, b, c, d = ModularMatrix(0, 1, -1, 0)
    assert (a, b, c, d) == (0, -1, 1, 0) == ModularMatrix(0, 1, -1, 0)
    value, bound, terms = EvalResult(1j, 0.0, 7)
    assert (value, bound, terms) == (1j, 0.0, 7) == EvalResult(1j, 0.0, 7)
    assert CliConfig(3, 4, 5) == (3, 4, 5)


def test_matrix_does_not_concatenate_or_repeat():
    m = ModularMatrix(2, 1, 1, 1)
    for op in (
        lambda: m + m,
        lambda: m + (1,),
        lambda: (1,) + m,
        lambda: 2 * m,
        lambda: m * 2,
    ):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize(
    "entries",
    [(2.0, 1, 1, 1), (1, 0, 0, 1.0), (True, 0, 0, True), (2, 1, True, 1), (Fraction(2), 1, 1, 1)],
)
def test_matrix_and_omega_reject_entries_not_of_type_int(entries):
    with pytest.raises(ValueError, match="matrix entries must be of type int"):
        ModularMatrix(*entries)
    with pytest.raises(ValueError, match="matrix entries must be of type int"):
        omega(*entries)


@pytest.mark.parametrize("factors", [(True,), ("S", False), (2, 1.0), (Fraction(1),)])
def test_generator_word_rejects_factors_not_of_type_int(factors):
    with pytest.raises(ValueError, match="word factor"):
        GeneratorWord(factors)


@pytest.mark.parametrize(
    "kwargs",
    [{"order": 2.0}, {"order": True}, {"trials": False}, {"trials": 10.0},
     {"seed": 1.5}, {"seed": True}, {"seed": None}],
)
def test_cli_config_rejects_bools_and_floats(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        CliConfig(**kwargs)
