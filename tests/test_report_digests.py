"""Pinned report bytes: the sha256 of ``cli.main`` stdout, and the exit code.

The corpus runs every ``K_p`` summation and tail path of both families (the
graded ``oplus``/``aut`` levels with the Euler-Maclaurin tail, near the Kac
point and at fast decay too, where the cutoff waits for its corrections, its tail bound on inconclusive caps, and its
refusal at 64 bits; the Drinfeld-Jimbo psi-table blocks with the geometric
tail), the Kac witnesses, inconclusive caps, and precisions other than the
default, so a refactor of the summation or of the tails that moves one bit
of any report fails here.  A deliberate change of a report must update its
digest here and say why.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cqgkhint.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")

# command -> (exit code, sha256 of stdout)
PINNED = {
    "kp --model oplus:3:7/2 --p 4": (0, "6b6e9e0322208cef211d876d0f47d7ca16ae47bda2248e04d18ffd138f04751e"),
    "kp --model oplus:3:7/2 --p 5/2": (0, "fa62266548b4d558728e14fbb37af2639d50faa9eca1e58e328eecc3a2c1c0cd"),
    "table --model oplus:3:7/2 --kind kp": (0, "1a4a5a09ddd8ffd1584a6727fcec26391f75ee0e35dbeb85ef2939208b16cf6a"),
    "decay --model oplus:3:7/2": (0, "5d70b896072ffec424833110aef01e0a93db624bd793e0246201712497245fc1"),
    "constants --model oplus:3:7/2 --p 4 --r 3": (0, "fbb0980e935ba7c2b33bc2e90e5c22f2797c864fc8a83f13598254db000d03a9"),
    "kp --model oplus:2:5/2 --p 4": (0, "657f3fbe77630edb429a3851a28f034d6eaaa16758772263b6d908fe8d6d60d1"),
    "kp --model oplus:2:5/2 --p 5/2": (0, "b139dbe3e0a399d0cfe891df9ab7d39f670b838265a2b40c63aa82fae8c4c95d"),
    "table --model oplus:2:5/2 --kind kp": (0, "e7f9a7218089d5493928bf4c1aaac916c1a15c84a713e56098fb1ffd03831fd9"),
    "decay --model oplus:2:5/2": (0, "2764182bcfa1621567218e5581362c66c3909d49650f5d02804e47eab0e1ca97"),
    "constants --model oplus:2:5/2 --p 4 --r 3": (0, "2e3064b0a44a61b6355aec39b9c15b61215f30bd7840988e16f1230d5fd489f5"),
    "kp --model oplus:4:5 --p 4": (0, "17455d12829d8831def32c1dc6250cbad529f500a1abc5ccd9d67bea057a27f7"),
    "kp --model oplus:4:5 --p 5/2": (0, "da8fa5a3a51c240db9a4c65a171cdc9d210939248cd91818d5aa725b91596868"),
    "table --model oplus:4:5 --kind kp": (0, "2e98abd26fdaec1a2f28b95ce54db50d55a376165c3e3e7575e8aeeb88c2c617"),
    "decay --model oplus:4:5": (0, "28fe2c5928f0c126ed776ac24726f4e1702b5fe758051f16991eb255d73d7ff5"),
    "constants --model oplus:4:5 --p 4 --r 3": (0, "ce5be392b391da6a21803234856db9d2d6881349ccd46594d4be4b6c9c9d684f"),
    "kp --model aut:5:5 --p 4": (0, "78e823e187fcdaf9d6d2de8dd7f1b85e6e6607b1b59f59bf8aa5b3ee273d5b37"),
    "kp --model aut:5:5 --p 5/2": (0, "a1945288a8ac4df863d1de6411bd0d7b8ab97cf17d338193d88cea4efb07f63c"),
    "table --model aut:5:5 --kind kp": (0, "2566333727f372f3d61f1834886a37488dd8ccde1c884b4953ec8df03fa8ddea"),
    "decay --model aut:5:5": (0, "f0ee649407035735e2347564f5f18ba0e31e3d16a5fa24cc56366ffe6155cb87"),
    "constants --model aut:5:5 --p 4 --r 3": (0, "3aa251f93a5f4d98b82d2ce9b33c52b499e6a1e9ceed73e160b5883632e4a885"),
    "kp --model aut:4:5 --p 4": (0, "e3d5f2fe24499c4f75341bae0dc21d7938ffd23b1685b6ee70532c03d77cb2c9"),
    "kp --model aut:4:5 --p 5/2": (0, "d05497a3d26d675904fc63443a448a06641c446c6e3a2b059d7c9a8daf850133"),
    "table --model aut:4:5 --kind kp": (0, "5900e64e4ededcee2a047ed86896df9781cfc193bef0dd3196fde4e346e6638d"),
    "decay --model aut:4:5": (0, "8ef7c10db50585844df50967ebdbe296b0f2c078ef9715c37feb8a33ae75b6ef"),
    "constants --model aut:4:5 --p 4 --r 3": (0, "ec9b388b2ff6667b02177716e37ab7b982f8fa62b3b49b812b731242000134fa"),
    "kp --model aut:6:7 --p 4": (0, "64010e1c1724e2bcefb906e1854e529cc7faceea6ef38e93d7c4dfd63c435b8d"),
    "kp --model aut:6:7 --p 5/2": (0, "651e03f5f40e46063ebd1d14d1e83ba056d1d5dcdf63598ad87c4ac5bf5d4481"),
    "table --model aut:6:7 --kind kp": (0, "41c8c10726ee6286d120a2f2efb867a3f936b6e31c8ebb94c19a54ed9ee2f1e8"),
    "decay --model aut:6:7": (0, "e8d37a35f7a3c7c8ee23f11424f7c2526629a6aa044659409c80d8a87fb67334"),
    "constants --model aut:6:7 --p 4 --r 3": (0, "65ee3118964edac57e138cc2ef6a9ea25ac8214ef7586bf055911d7fda4468d4"),
    "kp --model oplus:3:3 --p 4": (0, "30755cde9768264baf85bef43a4ef6eb552b290d6387b7be021fe2017a79b9b3"),
    "decay --model oplus:3:3": (0, "30f6cacf3e6e6795692c2f91493f054e2526a9c3a5794dd573565069b03d5099"),
    "kp --model aut:4:3 --p 4": (0, "5597c575b8b0480b6767f427d466329c0eba4ebff16398b160808ec4369b3004"),
    "decay --model aut:4:3": (0, "3795e58954e9fe4f1fd54e256e9de309b198f529c3bcf469404b28c8400e122c"),
    "kp --model djq:A1:1/2 --p 4": (0, "df1edec124790c74338e0b54918889fbe8302d37ee746ed47300b42023274c5f"),
    "kp --model djq:A2:1/2 --p 4": (0, "692ed5577593c77ab10b3f91e2293b3d7fcaddae9b71098288dd5dc12b8cb03d"),
    "kp --model djq:B2:3/4 --p 4": (0, "49d8ef9b7f5088927fd294b51fd66f79de22a12ba465a0d526fe8741339abe32"),
    "kp --model djq:G2:1/2 --p 4": (0, "b94582926e165c95e0e6f9ce8cecd1ea42d279155707461ab2d4b21d81b9fdb6"),
    "kp --model djq:A3:1/2 --p 4": (0, "df810ca46b67b80128beda6b1a98df55119e88985212a1be8870f046183059b7"),
    "kp --model djq:C3:1/2 --p 4": (0, "430c143b0a3a592fd5bd34b1bec0ee3707f8abfc6c32632b4e2839f404c52479"),
    "kp --model djq:B3:1/2 --p 4": (0, "cc339d1f2a7f469c84a579594b823dccbd7a521d328c44fab6426b35521a91be"),
    "table --model djq:A2:1/2 --kind kp": (0, "7d8f20d8b9d0e492a7f34303c977a3769b9c26a71fa11e686e9f16cf6d036f5e"),
    "decay --model djq:A2:1/2": (0, "8cb7453b374e6d90e9a23190617e24f0efe63ea7963a4dccb832ea602b26592d"),
    "kp --model djq:A3:0.99 --p 4 --max-length 150": (3, "b6ce5fb25e4de3f4442ca2e48bfbfb4856a20fcc87b33f4d54b9b169da099623"),
    "kp --model oplus:3:7/2 --p 4 --precision-bits 128": (0, "ea2e00ac87d53520b4a5ae46db3eaba4625ff087f10f209670231c47f175cfec"),
    "kp --model djq:B2:3/4 --p 4 --precision-bits 320": (0, "85a5a849dd2274a31102a93786e2fc06f94a1d9f9bfb62e71d7ed15a1cb1a759"),
    "kp --model oplus:3:100 --p 5/2": (0, "ff486ec377b3fd8d74f28f6e1bfe2668efc69aeb43ad88de014aab1eb66a923f"),
    "kp --model oplus:3:100 --p 2": (0, "750449fffe2bb8cdcf67d62efcc399beb7ef9571a5dc6e45e8cc159177229b0d"),
    "kp --model oplus:3:7/2 --p 4 --max-length 10": (3, "ca2772a39f5436fb5afeeef3a27465c0bdfe7d71bb9a4ccd5028b17b27c9b982"),
    "kp --model oplus:3:7/2 --p 4 --precision-bits 64 --tol 1e-19": (3, "9a6a076ba616e0f609fcbd1b8ad9e5d22e5cd091db8bc3ea816854cf866ad901"),
    "kp --model oplus:3:3.01 --p 4": (0, "e62a6fb204da17bb6207e590e1a48e813dd5dad9e761ad6e314aeca96593b307"),
    "kp --model oplus:100:100000 --p 2": (0, "506ac02b73c47eb76243b2922e75f6a862b6d9237b182ac2d8ec63c41bf735bc"),
    "kp --model aut:4:5000 --p 2": (0, "27242be210e65688822e18ea7cab383df44d7091bccdce517c342503f0a8e9f1"),
}


@pytest.mark.parametrize("command", PINNED)
def test_report_bytes_pinned(capsys, command):
    code = main(command.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINNED[command]


def _run_fresh(args: list[str]) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


def _mpmath_modules(importtime: bytes) -> list[str]:
    """The ``mpmath`` modules named in ``-X importtime`` output."""
    names = (line.rsplit(b"|", 1)[-1].strip().decode() for line in importtime.splitlines())
    return [name for name in names if name.split(".")[0] == "mpmath"]


@pytest.mark.parametrize(
    "command",
    [
        "table --model aut:5:5 --kind kp",
        "kp --model djq:A3:1/2 --p 4",
        "constants --model oplus:3:7/2 --p 4 --r 3",
        "kp --model djq:A3:0.99 --p 4 --max-length 150",
        "decay --model oplus:3:7/2",
        "decay --model djq:A2:1/2",
    ],
)
def test_report_bytes_pinned_without_mpmath(command):
    # the K_p and decay commands, run as fresh processes, import no mpmath
    # module and print the pinned bytes
    proc = _run_fresh(["-X", "importtime", "-m", "cqgkhint.cli", *command.split()])
    assert _mpmath_modules(proc.stderr) == [], proc.stderr.decode()[-2000:]
    assert (proc.returncode, hashlib.sha256(proc.stdout).hexdigest()) == PINNED[command]


_LIBMP_AGAINST_MPMATH = """
import json, sys
from cqgkhint._libmp import libmp
alone = "mpmath" not in sys.modules
fractions = ((7, 2), (1, 3), (10**40 + 1, 7))
xs = [libmp.from_rational(n, d, 200, libmp.round_nearest) for n, d in fractions]
ivs = [(x, libmp.mpf_add(x, libmp.fone, 200, libmp.round_ceiling)) for x in xs]

def values(lib):
    return [
        [lib.mpf_log(x, prec, lib.round_nearest) for x in xs for prec in (64, 192)],
        [lib.mpf_exp(x, prec, lib.round_nearest) for x in xs for prec in (64, 192)],
        [lib.mpi_log(v, prec) for v in ivs for prec in (64, 192)],
        [lib.to_str(x, digits, strip_zeros=True) for x in xs for digits in (17, 55)],
    ]

private = values(libmp)
import mpmath
print(json.dumps([alone, libmp.__name__, private == values(mpmath.libmp)]))
nstr = [mpmath.nstr(mpmath.mp.make_mpf(x), 55) for x in xs]
print(json.dumps([libmp.to_str(x, 55, strip_zeros=True) == s for x, s in zip(xs, nstr)]))
"""


def test_libmp_loads_without_mpmath_and_matches_it():
    proc = _run_fresh(["-c", _LIBMP_AGAINST_MPMATH])
    assert proc.returncode == 0, proc.stderr.decode()
    same_module, same_str = map(json.loads, proc.stdout.splitlines())
    assert same_module == [True, "cqgkhint._libmp.libmp", True]
    assert same_str == [True, True, True]
