"""The package surface and the frozen record base behind its result types."""

import dataclasses
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import cqgkhint
from cqgkhint.models import IrrData
from cqgkhint.record import Record
from cqgkhint.rootsys import QSpectrum


class Pair(Record):
    left: object
    right: int


class OtherPair(Record):
    left: object
    right: int


def test_record_fields_follow_the_annotations():
    assert Pair._fields == ("left", "right")
    assert IrrData._fields == ("label", "n", "d", "chi_sup", "length")
    assert QSpectrum._fields == ("entries",)


def test_record_positional_and_keyword_construction_agree():
    a = Pair((1, 2), 3)
    assert a == Pair(left=(1, 2), right=3) == Pair((1, 2), right=3)
    assert (a.left, a.right) == ((1, 2), 3)


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((1,), {}),
        ((1, 2, 3), {}),
        ((1,), {"left": 2}),
        ((1, 2), {"extra": 3}),
        ((), {"left": 1, "rigth": 2}),
    ],
)
def test_record_refuses_missing_extra_and_repeated_fields(args, kwargs):
    with pytest.raises(TypeError):
        Pair(*args, **kwargs)


def test_record_equality_and_hash_are_by_type_and_value():
    a, b = Pair("x", 1), Pair("x", 1)
    assert a == b and hash(a) == hash(b)
    assert a != Pair("x", 2)
    assert a != OtherPair("x", 1)
    assert a != ("x", 1)
    assert len({a, b, Pair("x", 2), OtherPair("x", 1)}) == 3
    data = IrrData(label=(1, 0), n=3, d=Fraction(7, 2), chi_sup=3, length=1)
    assert {data: 1}[IrrData((1, 0), 3, Fraction(7, 2), 3, 1)] == 1


def test_record_repr_names_every_field_in_order():
    data = IrrData(label=(1, 0), n=3, d=Fraction(7, 2), chi_sup=3, length=1)
    assert repr(data) == "IrrData(label=(1, 0), n=3, d=Fraction(7, 2), chi_sup=3, length=1)"
    assert repr(Pair("x", 1)) == "Pair(left='x', right=1)"


def test_record_refuses_every_write():
    a = Pair("x", 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.left = "y"
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.new_field = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del a.right
    assert a == Pair("x", 1)


def test_qspectrum_keeps_its_checks():
    with pytest.raises(ValueError):
        QSpectrum(())
    with pytest.raises(ValueError):
        QSpectrum(((Fraction(2), 0),))
    assert QSpectrum(((Fraction(1), 2),)).n == 2


def test_every_public_name_resolves():
    for name in cqgkhint.__all__:
        assert getattr(cqgkhint, name) is not None, name
    namespace = {}
    exec("from cqgkhint import *", namespace)
    assert set(cqgkhint.__all__) <= set(namespace)
    assert set(cqgkhint.__all__) <= set(dir(cqgkhint))


def test_unknown_names_raise_attribute_error_and_submodules_still_import():
    with pytest.raises(AttributeError):
        cqgkhint.no_such_name
    from cqgkhint import chebyshev, fusion, khintchine, models, rootsys, schur, verify

    assert schur.CentralSeries is cqgkhint.CentralSeries
    assert khintchine.KpEvaluator is cqgkhint.KpEvaluator
    assert all(m.__name__.startswith("cqgkhint.") for m in (chebyshev, fusion, models, rootsys, verify))


def test_importing_the_package_loads_no_submodule():
    src = str(Path(__file__).resolve().parent.parent / "src")
    script = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "import cqgkhint\n"
        "print(sorted(m for m in sys.modules if m.startswith('cqgkhint.') or m == 'mpmath'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_the_cli_catches_the_khintchine_divergence_error():
    from cqgkhint import cli, exact, khintchine

    assert khintchine.KacDivergenceError is cli.KacDivergenceError is exact.KacDivergenceError
    assert khintchine.HorizonError is exact.HorizonError
    assert khintchine.DEFAULT_PRECISION_BITS == cli.DEFAULT_PRECISION_BITS == 192


@pytest.mark.parametrize(
    "path", sorted((Path(cqgkhint.__file__).parent).glob("*.py")), ids=lambda path: path.name
)
def test_module_compiles_without_warnings(path):
    # a CLI process compiles every module it imports when no bytecode is cached, so a
    # compile-time warning (an invalid escape, say) would print on every command's stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(encoding="utf-8"), str(path), "exec")
