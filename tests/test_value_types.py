"""The value types ModularMatrix, GeneratorWord, QSeries, BiSeries,
EvalResult and CliConfig.

Each is a named tuple: it is immutable, prints as `Name(field=value, ...)`
(a series by its leading terms), survives pickling and copying, unpacks and
equals the plain tuple of its fields.  Every type but EvalResult checks its
fields however it is built, `_make` and `_replace` included.  Equal
values have equal hashes, except that a series holds a dict and cannot be
hashed.  A matrix takes only entries of type int, a word only int
T-exponents; no value concatenates, repeats or subtracts.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from etaforge import (
    IDENTITY,
    BiSeries,
    EvalResult,
    GeneratorWord,
    ModularMatrix,
    QSeries,
    omega,
    t_power,
)
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
    "QSeries": (
        lambda: QSeries({0: 1, 2: -3, 3: 0}, 4),
        "coeffs",
        "QSeries(+1*q^0 -3*q^2; order=4)",
    ),
    "BiSeries": (
        lambda: BiSeries({(0, 0): 1, (1, -1): 2}, 3),
        "order",
        "BiSeries(+1*w^0*z^0 +2*w^1*z^-2; order=3)",
    ),
}
SERIES = ("QSeries", "BiSeries")


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


@pytest.mark.parametrize("kind", [kind for kind in VALUES if kind not in SERIES])
def test_equal_values_have_equal_hashes(kind):
    build, _, _ = VALUES[kind]
    assert build() == build() and hash(build()) == hash(build())


@pytest.mark.parametrize("kind", SERIES)
def test_series_compare_by_value_and_cannot_be_hashed(kind):
    build, _, _ = VALUES[kind]
    assert build() == build()
    with pytest.raises(TypeError):
        hash(build())


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


def test_make_and_replace_run_the_word_checks():
    assert GeneratorWord._make([(1, 1, "S", 0)]) == GeneratorWord((2, "S"))
    assert GeneratorWord(("S",))._replace(factors=(3, 0, -3)).factors == ()
    with pytest.raises(ValueError, match="word factor"):
        GeneratorWord._make([(2, 1.0)])
    with pytest.raises(ValueError, match="word factor"):
        GeneratorWord(("S",))._replace(factors=(True,))


def test_make_and_replace_run_the_series_checks():
    assert QSeries._make(({1: 0, 2: 5}, 3)).coeffs == {2: 5}
    assert QSeries({3: 1}, 4)._replace(order=3) == QSeries({3: 1}, 3)
    with pytest.raises(ValueError, match="exponent 7 outside"):
        QSeries._make(({7: 1}, 4))
    with pytest.raises(ValueError, match="exponent 3 outside"):
        QSeries({3: 1}, 4)._replace(order=2)
    with pytest.raises(ValueError, match="order must be >= 0"):
        QSeries({}, 4)._replace(order=-1)
    assert BiSeries._make(({(1, 1): 0, (2, -1): 4}, 2)).coeffs == {(2, -1): 4}
    with pytest.raises(ValueError, match="w-exponent 2 outside"):
        BiSeries({(2, 1): 1}, 3)._replace(order=1)
    with pytest.raises(ValueError, match="z\\^2-exponent 2 exceeds"):
        BiSeries._make(({(1, 2): 1}, 3))


def test_named_tuples_unpack_and_equal_their_fields():
    a, b, c, d = ModularMatrix(0, 1, -1, 0)
    assert (a, b, c, d) == (0, -1, 1, 0) == ModularMatrix(0, 1, -1, 0)
    (factors,) = GeneratorWord((1, 1, "S"))
    assert (factors,) == ((2, "S"),) == GeneratorWord((1, 1, "S"))
    value, bound, terms = EvalResult(1j, 0.0, 7)
    assert (value, bound, terms) == (1j, 0.0, 7) == EvalResult(1j, 0.0, 7)
    assert CliConfig(3, 4, 5) == (3, 4, 5)
    coeffs, order = QSeries({0: 1, 1: 0}, 3)
    assert (coeffs, order) == ({0: 1}, 3) == QSeries({0: 1, 1: 0}, 3)
    assert BiSeries({(1, 1): 2}, 1) == ({(1, 1): 2}, 1)
    # a word's length is its field count; its factors are counted apart
    assert len(GeneratorWord((2, "S", 1))) == 1


@pytest.mark.parametrize("kind", VALUES)
def test_does_not_concatenate_or_repeat(kind):
    build, _, _ = VALUES[kind]
    v = build()
    for op in (
        lambda: v + v,
        lambda: v + (1,),
        lambda: (1,) + v,
        lambda: 2 * v,
        lambda: v * 2,
        lambda: v - v,
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
