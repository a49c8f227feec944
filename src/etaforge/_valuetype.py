"""The shared base of the package's six named-tuple value types."""


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
