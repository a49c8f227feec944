"""The shared base of the package's six named-tuple value types, and the
package's one check that an integer argument is of type int."""


def check_int(name: str, value: object) -> None:
    """Raise ValueError unless value is of type int (a bool, a float or a
    Fraction is refused even where it equals an int).

    Every integer argument of the package is checked here, one call per
    argument.  Only `modgroup._check_unimodular`, run several times per eta
    evaluation, tests its four entries in one inline `type(...) is ... is
    int` chain and calls this only to name the bad entry.  `qseries.chi12` is
    exempt: it runs once per term of the character series, whose callers
    pass it range indices.
    """
    if type(value) is not int:
        raise ValueError(f"{name} must be of type int, got {value!r}")


class ValueTuple(tuple):
    """Base listed before the `namedtuple` base of a value type.

    Its `_make`, which `_replace` calls too, builds through the subclass's
    `__new__`, so a value checks its fields however it is built (the
    namedtuple default skips `__new__`).  A value drops the tuple `+` and
    `*`: it is not a sequence to concatenate or repeat.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    __add__ = __radd__ = __mul__ = __rmul__ = None
