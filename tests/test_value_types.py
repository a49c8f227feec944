"""The value types ModularMatrix, GeneratorWord, QSeries, BiSeries,
EvalResult and CliConfig.

Each is a named tuple: it is immutable, prints as `Name(field=value, ...)`
(a series by its leading terms), survives pickling and copying, unpacks and
equals the plain tuple of its fields.  Every type but EvalResult checks its
fields however it is built, `_make` and `_replace` included.  Equal
values have equal hashes, except that a series holds a dict and cannot be
hashed.  No value concatenates, repeats or subtracts.  Every integer
argument of the package, in a value type or not, refuses a value not of type
int with one message, pinned by one contract test.
"""

import copy
import pickle
import random
import re
from fractions import Fraction
from functools import partial

import pytest

from etaforge import (
    IDENTITY,
    S,
    BiSeries,
    EvalResult,
    GeneratorWord,
    ModularMatrix,
    QSeries,
    chi12,
    dedekind_sum_fast,
    dedekind_sum_naive,
    decompose,
    euler_product_series,
    eta_char_qseries,
    floor_square_sum_check,
    floor_sum_check,
    jtp_product_side,
    jtp_shift_residual,
    jtp_sum_side,
    omega,
    pentagonal_series,
    transform_factor,
)
from etaforge.campaigns import CliConfig, random_unimodular_matrix

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
PRODUCERS = (
    euler_product_series,
    pentagonal_series,
    jtp_product_side,
    jtp_sum_side,
    jtp_shift_residual,
    eta_char_qseries,
)


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
    assert IDENTITY._replace(b=5) == ModularMatrix(1, 5, 0, 1)
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
    # random.Random(-n) draws the stream of Random(n)
    with pytest.raises(ValueError, match="^seed must be a non-negative int, got -1$"):
        CliConfig(seed=-1)
    with pytest.raises(ValueError, match="^seed must be a non-negative int, got -5$"):
        CliConfig()._replace(seed=-5)


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


# Every integer argument of the package, each given as (call, valid
# arguments, the name of each argument, or None where it is not an integer):
# one contract, checked in each position, that a value not of type int is
# refused with the one message, before any other check on that argument.
MATRIX = (2, 1, 1, 1), tuple(f"matrix entry {x}" for x in "abcd")
DEDEKIND = (2, 7), ("h", "k")
INT_ARGUMENTS = {
    "ModularMatrix": (ModularMatrix, *MATRIX),
    "omega": (omega, *MATRIX),
    # the one check decompose makes before its unchecked descent
    "decompose": (lambda *entries: decompose(entries), *MATRIX),
    "transform_factor": (lambda *entries: transform_factor(entries, 1j), *MATRIX),
    "ModularMatrix.__matmul__": (lambda *entries: S @ entries, *MATRIX),
    "GeneratorWord": (
        lambda *factors: GeneratorWord(factors),
        (2, "S", 1),
        ("word factor other than 'S'", None, "word factor other than 'S'"),
    ),
    "CliConfig": (CliConfig, (5, 10, 0), ("order", "trials", "seed")),
    **{producer.__name__: (producer, (3,), ("order",)) for producer in PRODUCERS},
    "QSeries": (
        lambda e, c, order: QSeries({e: c}, order),
        (1, 2, 3),
        ("exponent", "coefficient", "order"),
    ),
    "BiSeries": (
        lambda m, j, c, order: BiSeries({(m, j): c}, order),
        (1, -1, 2, 3),
        ("w-exponent", "z^2-exponent", "coefficient", "order"),
    ),
    "QSeries.coeff": (lambda e: euler_product_series(10).coeff(e), (2,), ("exponent",)),
    "BiSeries.coeff": (
        lambda m, j: jtp_sum_side(4).coeff(m, j),
        (1, 1),
        ("w-exponent", "z^2-exponent"),
    ),
    "dedekind_sum_naive": (dedekind_sum_naive, *DEDEKIND),
    "dedekind_sum_fast": (dedekind_sum_fast, *DEDEKIND),
    "floor_sum_check": (floor_sum_check, *DEDEKIND),
    "floor_square_sum_check": (floor_square_sum_check, *DEDEKIND),
    "random_unimodular_matrix": (
        lambda min_c: random_unimodular_matrix(random.Random(0), min_c),
        (2,),
        ("min_c",),
    ),
    "chi12": (chi12, (5,), ("n",)),
}
NOT_INTS = (True, False, 2.0, 2.5, Fraction(2))


def _not_int_cases():
    for kind, (call, args, names) in INT_ARGUMENTS.items():
        for i, name in enumerate(names):
            for bad in NOT_INTS if name else ():
                given = args[:i] + (bad,) + args[i + 1:]
                yield pytest.param(call, given, name, bad, id=f"{kind}-{i}-{bad!r}")
    # inputs pinned before the contract covered every position; each names
    # its first argument not of type int
    for entries, i in [
        ((2.0, 1, 1, 1), 0),
        ((1, 0, 0, 1.0), 3),
        ((True, 0, 0, True), 0),
        ((2, 1, True, 1), 2),
        ((Fraction(2), 1, 1, 1), 0),
    ]:
        for kind in ("ModularMatrix", "omega"):
            call, _, names = INT_ARGUMENTS[kind]
            yield pytest.param(call, entries, names[i], entries[i], id=f"{kind}{entries}")
    call, _, (name, _, _) = INT_ARGUMENTS["GeneratorWord"]
    for factors, bad in [((True,), True), (("S", False), False), ((2, 1.0), 1.0),
                         ((Fraction(1),), Fraction(1))]:
        yield pytest.param(call, factors, name, bad, id=f"GeneratorWord{factors}")
    for kwargs in [{"order": 2.0}, {"order": True}, {"trials": False}, {"trials": 10.0},
                   {"seed": 1.5}, {"seed": True}, {"seed": None}]:
        ((name, bad),) = kwargs.items()
        yield pytest.param(partial(CliConfig, **kwargs), (), name, bad, id=f"CliConfig-{kwargs}")
    # 1e18 would otherwise meet the limit check
    for producer in PRODUCERS:
        for bad in (3.0, 1e18):
            yield pytest.param(producer, (bad,), "order", bad, id=f"{producer.__name__}-{bad!r}")


@pytest.mark.parametrize("call, args, name, bad", list(_not_int_cases()))
def test_integer_arguments_refuse_values_not_of_type_int(call, args, name, bad):
    message = f"{name} must be of type int, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(*args)
