"""mpmath's ``libmp`` on its own, and the number types the numeric reports use with it.

``libmp`` is mpmath's layer of pure functions on raw floats, the tuples
``(sign, man, exp, bc)`` worth ``(-1)^sign man 2^exp`` (``mpf_*``), and on
pairs of them, outward-rounded intervals (``mpi_*``).  mpmath's ``mp`` and
``iv`` contexts make these calls for their arithmetic.  ``import mpmath``
also loads the contexts, the special functions, calculus and matrices, none
of which this package calls, and takes several times as long as
``libmp`` alone.  So this module loads the ``libmp`` package from its file,
under the private name ``cqgkhint._libmp.libmp``, which skips
``mpmath/__init__``; ``libmp`` imports nothing of mpmath outside itself.  When
mpmath is already loaded, its own ``libmp`` is used instead.

:class:`MpfValue` carries a raw float as ``_mpf_``, the attribute that
mpmath's converters read, so library callers can hand it to mpmath as an
exact number.  :class:`Intervals` makes the ``mpi_*`` calls of the ``iv``
context at a fixed precision, and :func:`n_over_d` the ``mpf_*`` calls of
the ``mp`` context for one ratio ``n/d``.
"""

from __future__ import annotations

import os
import sys
from functools import reduce
from importlib.util import find_spec, module_from_spec, spec_from_file_location

__all__ = ["Intervals", "MpfValue", "libmp", "n_over_d"]


def _load_libmp():
    loaded = sys.modules.get("mpmath.libmp")
    if loaded is not None:
        return loaded
    mpmath = find_spec("mpmath")
    if mpmath is None:
        raise ModuleNotFoundError("cqgkhint needs mpmath", name="mpmath")
    name = f"{__name__}.libmp"
    directory = os.path.join(mpmath.submodule_search_locations[0], "libmp")
    spec = spec_from_file_location(
        name, os.path.join(directory, "__init__.py"), submodule_search_locations=[directory]
    )
    module = module_from_spec(spec)
    sys.modules[name] = module  # its relative imports resolve against this entry
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


libmp = _load_libmp()


def _raw(x):
    """``x`` as a raw float, exactly, or None for another type."""
    if hasattr(x, "_mpf_"):
        return x._mpf_
    if isinstance(x, int):
        return libmp.from_int(x)
    if isinstance(x, float):
        return libmp.from_float(x)
    return None


def n_over_d(n: int, d, prec: int) -> tuple:
    """``n / d`` for an integer ``n`` and a positive rational ``d``, as a raw float.

    Rounded as mpmath's ``mp.mpf(n) * d.denominator / d.numerator`` rounds it
    at ``mp.prec = prec``: to nearest, three times.
    """
    rnd = libmp.round_nearest
    x = libmp.mpf_mul_int(libmp.from_int(n, prec, rnd), d.denominator, prec, rnd)
    return libmp.mpf_div(x, libmp.from_int(d.numerator), prec, rnd)


class MpfValue:
    """A real number held as mpmath's raw float ``_mpf_``.

    ``mpmath.mpf(x)``, ``mpmath.nstr(x)`` and mixed arithmetic or comparison
    with an ``mpf`` read ``x`` exactly, as an ``mpf`` of the same value.
    ``float``, ``int``, ``hash`` and comparisons with ints, floats and
    mpf-likes are computed here, in ``libmp``.  Everything else is that of
    ``mpmath.mpf``: it imports mpmath on first use, arithmetic rounds to
    mpmath's working precision, and its results are ``mpf``.
    """

    __slots__ = ("_mpf_",)

    def __init__(self, raw: tuple):
        self._mpf_ = raw

    def __float__(self):
        return libmp.to_float(self._mpf_, rnd=libmp.round_nearest)

    def __int__(self):
        return int(libmp.to_int(self._mpf_))

    def __bool__(self):
        return self._mpf_ != libmp.fzero

    def __hash__(self):
        return libmp.mpf_hash(self._mpf_)

    def __repr__(self):
        digits = libmp.repr_dps(max(self._mpf_[3], 53))
        return f"{type(self).__name__}({libmp.to_str(self._mpf_, digits)!r})"

    def _mpf(self):
        import mpmath

        return mpmath.mp.make_mpf(self._mpf_)


def _comparison(name, compare):
    def method(self, other):
        raw = _raw(other)
        if raw is None:
            return getattr(self._mpf(), name)(other)
        return compare(self._mpf_, raw)

    return method


def _mpf_method(name):
    def method(self, *args):
        return getattr(self._mpf(), name)(*args)

    return method


for _name, _compare in [
    ("__eq__", libmp.mpf_eq),
    ("__lt__", libmp.mpf_lt),
    ("__le__", libmp.mpf_le),
    ("__gt__", libmp.mpf_gt),
    ("__ge__", libmp.mpf_ge),
]:
    setattr(MpfValue, _name, _comparison(_name, _compare))
for _name in ["add", "sub", "mul", "truediv", "pow"]:
    setattr(MpfValue, f"__{_name}__", _mpf_method(f"__{_name}__"))
    setattr(MpfValue, f"__r{_name}__", _mpf_method(f"__r{_name}__"))
for _name in ["__neg__", "__pos__", "__abs__"]:
    setattr(MpfValue, _name, _mpf_method(_name))


class Intervals:
    """Outward-rounded interval arithmetic on raw ``(a, b)`` pairs at ``prec`` bits.

    Each method makes the ``mpi_*`` call that the same operation of mpmath's
    ``iv`` context makes at ``iv.prec = prec``: an integer operand is first
    the interval ``[floor, ceiling]`` of it at ``prec`` bits, ``x ** n`` for
    an integer ``n`` is ``mpi_pow_int``, and ``iv.log`` is ``mpi_log``.
    """

    def __init__(self, prec: int):
        self.prec = prec

    def integer(self, n: int) -> tuple:
        prec = self.prec
        lower = libmp.from_int(n, prec, libmp.round_floor)
        return lower, libmp.from_int(n, prec, libmp.round_ceiling)

    def rational(self, x) -> tuple:
        """A rational, as ``iv.mpf(numerator) / iv.mpf(denominator)``."""
        return self.div(self.integer(x.numerator), self.integer(x.denominator))

    def add(self, x: tuple, y: tuple) -> tuple:
        return libmp.mpi_add(x, y, self.prec)

    def sub(self, x: tuple, y: tuple) -> tuple:
        return libmp.mpi_sub(x, y, self.prec)

    def mul(self, *factors: tuple) -> tuple:
        """The product, multiplied from the left."""
        return reduce(lambda x, y: libmp.mpi_mul(x, y, self.prec), factors)

    def div(self, x: tuple, y: tuple) -> tuple:
        return libmp.mpi_div(x, y, self.prec)

    def pow(self, x: tuple, e) -> tuple:
        """``x ** e`` for an integer or rational ``e``; ``x > 0`` when ``e`` is not an integer.

        A non-integer ``e`` gives ``exp(log(x) * e)``, with ``e`` taken as the
        interval :meth:`rational` of it.
        """
        if e.denominator == 1:
            return libmp.mpi_pow_int(x, int(e), self.prec)
        return self.exp(self.mul(self.log(x), self.rational(e)))

    def sqrt(self, x: tuple) -> tuple:
        return libmp.mpi_sqrt(x, self.prec)

    def log(self, x: tuple) -> tuple:
        return libmp.mpi_log(x, self.prec)

    def exp(self, x: tuple) -> tuple:
        return libmp.mpi_exp(x, self.prec)
