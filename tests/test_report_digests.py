"""Pinned report bytes: the sha256 of ``cli.main`` stdout, and the exit code.

The corpus runs every ``K_p`` summation and tail path of both families (the
graded ``oplus``/``aut`` levels and the Drinfeld-Jimbo psi-table blocks), the
Kac witnesses, an inconclusive cap, and precisions other than the default, so
a refactor of the summation or of the tails that moves one bit of any report
fails here.  A deliberate change of a report must update its digest here and
say why.
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
    "kp --model oplus:3:7/2 --p 4": (0, "18750a889191575fa67066570de5695f3849abdb62aed7f762a2b316d7100f8d"),
    "kp --model oplus:3:7/2 --p 5/2": (0, "a0ddeedf9756b616e49cb0517fa04a6efbb88c928f10b46974644dd11ed2f1ca"),
    "table --model oplus:3:7/2 --kind kp": (0, "2d786d870b25cc7567a675af833c579d88bbec589b4615a3ac02244ea1efd02a"),
    "decay --model oplus:3:7/2": (0, "271b5e5617321bb632c92a6da6236485ce0ce1e014f28da295cc8f5f1c060505"),
    "constants --model oplus:3:7/2 --p 4 --r 3": (0, "0753014620b985e6db20a88eef34d9d92641c1f570b75b079168297927f7a759"),
    "kp --model oplus:2:5/2 --p 4": (0, "314c0f7a9f55aa1f2f24c1aaeb3e12ef1fce91d4da2c0d8bb78602c34ca3de16"),
    "kp --model oplus:2:5/2 --p 5/2": (0, "5385e0a5b5618505cfc3a006d87e93110402f2b4a244f153f85fe77b561794fd"),
    "table --model oplus:2:5/2 --kind kp": (0, "9c61d1fce81718061ab1f7df4c970d17caa398650f1c34bf8a03541a11734045"),
    "decay --model oplus:2:5/2": (0, "c8343f48cc3e3102b2dbf840f1cba38ca7dbc0d5c16494b61eb99999d11f6d83"),
    "constants --model oplus:2:5/2 --p 4 --r 3": (0, "5edac7b64d0a8dee39107d0c940ff3af2e499c5df9913034fc7507eab1fcf83a"),
    "kp --model oplus:4:5 --p 4": (0, "6331f23a837dbb96812cf43949a15bed981606c4238eb59208f1aafa098fc204"),
    "kp --model oplus:4:5 --p 5/2": (0, "23e979d45f6bc78655afe6e96cd380cb50bfabb46d5dfb44064a726a85e385df"),
    "table --model oplus:4:5 --kind kp": (0, "c1251dbb4bd6861c33ca1fe6fa39061f7e9ae7dd67c3d4d2953c359dcfacbe75"),
    "decay --model oplus:4:5": (0, "8bf190088aa85825635226d49fc374cf2607d25018fa2ff9cb58e21f3c4bbc3a"),
    "constants --model oplus:4:5 --p 4 --r 3": (0, "5b92527b0581880bf7392a2cd480bf73f152af8519de516c3eeff3f8bc07ae6b"),
    "kp --model aut:5:5 --p 4": (0, "1db3867aac332ff484d41724e44f6f494440fface0a528119755f969befa37a3"),
    "kp --model aut:5:5 --p 5/2": (0, "1538f611fe24f355f5667703e0c4d95fdd0b990280e50e5452ffc2984c66e1a8"),
    "table --model aut:5:5 --kind kp": (0, "1d7a1b8f2a6bca247c8b732ad6dc895cf9bdc4c296a3a9279db6d3dc0cd760bc"),
    "decay --model aut:5:5": (0, "12ecc852b0a85e478b2ad1f5060c5dde0ba1f75115eb466d2e52d8260d9ea046"),
    "constants --model aut:5:5 --p 4 --r 3": (0, "a28c845fd5f35a845e12ec9d1a190a714a36ead1bced65526e26a58f943d33ed"),
    "kp --model aut:4:5 --p 4": (0, "2a12ed9551b093fcb5bade5b1341782a426b5e108c81d1f29efb4b8f5d61733f"),
    "kp --model aut:4:5 --p 5/2": (0, "db1c2d252df03d41bda91576e6ef879d51bef33c523b55df0752a95f505f34a6"),
    "table --model aut:4:5 --kind kp": (0, "9d7609481f4831f1a19523ef6cd818d83d3fbebca6cad24e0b936aac5d6e98fa"),
    "decay --model aut:4:5": (0, "c73f16731b3fbb9116f3710ef62efe0971ebf9b3321be326e5042004a04b0cb5"),
    "constants --model aut:4:5 --p 4 --r 3": (0, "c90e047e8f5d50b602ab234e1fe8b181ddaf7804bab6c112a5a36105eb7dcb61"),
    "kp --model aut:6:7 --p 4": (0, "586991c733dbb29a4ca904ccc2102ab3657be4b85e8697d53ce8c91370985243"),
    "kp --model aut:6:7 --p 5/2": (0, "5933f54b28b3604ad2c0ff9adb26275d3c87ac9cd89de50e57db08c1fc71aeb0"),
    "table --model aut:6:7 --kind kp": (0, "ee9d4b51705dbf9f8883f5d2ae260816f2f86b05fc076eca3655a151056e4fed"),
    "decay --model aut:6:7": (0, "d2a6b327491db16fde7f48b5a83461a2ca19ab48c1e5b49a24fb995017747c0d"),
    "constants --model aut:6:7 --p 4 --r 3": (0, "fbde9c20acccdf24c1614d51c2cc99c9b9a171f3d67968547a4f991c868f262b"),
    "kp --model oplus:3:3 --p 4": (0, "7326c0828d9bd8ee8bb87b17ab0e0376d02a13c26c8743e3c656af4c5833b545"),
    "decay --model oplus:3:3": (0, "90645472c03f03dc2d5d8009654941ba7bcf1675ed7f2d303df5bef47f29439b"),
    "kp --model aut:4:3 --p 4": (0, "129b2003e8b5c9e076bada649077c760e9240f4dc268a18e25c8de473a10f758"),
    "decay --model aut:4:3": (0, "c609615484280551285c24fb9c693f3ac3a10101e42e80626ab690ce8d5dbb04"),
    "kp --model djq:A1:1/2 --p 4": (0, "5f767d267592100724c3c382cbd4dd7aaad63adb99b1e679187bd74d5ee1ca09"),
    "kp --model djq:A2:1/2 --p 4": (0, "27a1b64a4a58b3c874ac902b536a6f1f297bc84a6a7b675f2ef5d3d2fdd5d0f8"),
    "kp --model djq:B2:3/4 --p 4": (0, "a08056c233b5e0a46aa5fcffc852885523381c3975354e1ece751ebc7b6e1c82"),
    "kp --model djq:G2:1/2 --p 4": (0, "6f7b295607131930fa13e7eec9da119e82829e28558513ddb27bf2390db28a9f"),
    "kp --model djq:A3:1/2 --p 4": (0, "e1d02e242d1dec235cbdac1821571f5da71575860d40906198e052f5fb69343c"),
    "kp --model djq:C3:1/2 --p 4": (0, "e9adab46ce25c553b77a7e1f297724b1a2b4a634ac90d3808d5861cea530da9e"),
    "kp --model djq:B3:1/2 --p 4": (0, "3b19a12038073729afe461820bd2708c55dba6b3c8b32f2349013847fc416ffc"),
    "table --model djq:A2:1/2 --kind kp": (0, "675e6ad780c2ce264ccaeb463ab734331cd025e30141614406c89363791e40c5"),
    "decay --model djq:A2:1/2": (0, "d7cd902bb4b636f961ee49228fed9dc2d64f6bdce6a1f93cc0f94e949c3d45d2"),
    "kp --model djq:A3:0.99 --p 4 --max-length 150": (3, "1a0c13c96f44346287282470496d96c486c891945f0cb2e8a5eeb04789793c48"),
    "kp --model oplus:3:7/2 --p 4 --precision-bits 128": (0, "26358997ca8f07fd4b8b3d674e1f227781b2aa359e615415f2af35df04bbf660"),
    "kp --model djq:B2:3/4 --p 4 --precision-bits 320": (0, "3502ca9a887d1b751708dca5a0644eddb53f28331278157bddb1eb820e3ac408"),
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
