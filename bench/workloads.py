"""The benchmark's workloads: seeded lists of ``cqgkhint`` CLI commands.

Each command carries the name of the output check it must pass (see
``oracle.py``).  Seed 0 gives the reference lists below unchanged; any other
seed draws every parameter from the bounded set stated next to it and
shuffles the order of the commands and of every p-list.  The sets are kept
small and of comparable cost, so runs on different seeds stay comparable:

* ``dj-kp``       q of B3 and G2 from {1/2, 1/3}; r of ``constants`` from
                  {3, 2, 5/2} (r only changes exponents, not the work).
* ``dj-sweep``    p-lists in any order (level data is shared across p).
* ``graded-kp``   p-lists drawn from lists of equal length and equal sum
                  (the graded level count grows linearly in p); Nq and d1
                  stay fixed, since nearby values move the level count, and
                  so the cost, by 10-40%.
* ``data-reports`` Nq from {7/2, 9/2}, d1 from {5, 6}, q of A2 from
                  {1/2, 1/3}, q of C3 and B2 from {3/4, 2/3}, and the
                  ``spectrum`` weight from {666, 567, 765}.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]
    check: str  # kp | kp-table | constants | divergent | digest | verify | fusion

    @property
    def text(self) -> str:
        return " ".join(self.args)


# Launched several times per run to measure set-up: import, parse and emit.
SETUP = Command(("fusion", "--rule", "su2", "--k", "1", "--l", "1"), "fusion")

GRADED_TOL = "1e-30"
GRADED_P3 = ("3,4,6", "3,9/2,11/2", "7/2,4,11/2")
GRADED_P4 = ("3,4,6,8", "3,5,6,7", "4,5,11/2,13/2", "7/2,9/2,6,7")


class _Draw:
    """Seeded choices; seed 0 always takes the first option, in order."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def pick(self, options):
        return options[0] if self.seed == 0 else self.rng.choice(options)

    def order(self, items):
        items = list(items)
        if self.seed != 0:
            self.rng.shuffle(items)
        return items

    def p_list(self, options) -> str:
        return ",".join(self.order(self.pick(options).split(",")))


def _kp(model, p, *extra):
    return Command(("kp", "--model", model, "--p", p, *extra), "kp")


def _kp_table(model, p_list, *extra):
    return Command(("table", "--model", model, "--kind", "kp", "--p-list", p_list, *extra), "kp-table")


def _dj_kp(d: _Draw) -> list[Command]:
    return d.order([
        _kp("djq:A3:1/2", "4", "--workers", "2"),
        _kp("djq:B2:3/4", "4"),
        _kp("djq:A2:3/5", "6"),
        _kp(f"djq:B3:{d.pick(['1/2', '1/3'])}", "4"),
        _kp(f"djq:G2:{d.pick(['1/2', '1/3'])}", "4"),
        Command(("constants", "--model", "djq:B2:3/4", "--p", "4", "--r", d.pick(["3", "2", "5/2"])), "constants"),
    ])


def _dj_sweep(d: _Draw) -> list[Command]:
    return d.order([
        _kp_table("djq:A2:1/2", d.p_list(["3,4,6,8,12"])),
        _kp_table("djq:B2:3/4", d.p_list(["3,4,8"])),
    ])


def _graded_kp(d: _Draw) -> list[Command]:
    tol = ("--tol", GRADED_TOL)
    return d.order([
        _kp_table("oplus:3:7/2", d.p_list(GRADED_P3), *tol),
        _kp_table("oplus:4:5", d.p_list(GRADED_P4), *tol),
        _kp_table("aut:5:5", d.p_list(GRADED_P4), *tol),
        _kp_table("aut:6:7", d.p_list(GRADED_P4), *tol),
        Command(("kp", "--model", "oplus:3:3"), "divergent"),
    ])


def _data_reports(d: _Draw) -> list[Command]:
    return d.order([
        Command(("table", "--model", f"oplus:3:{d.pick(['7/2', '9/2'])}", "--kind", "ratios", "--max-length", "600"), "digest"),
        Command(("dims", "--model", f"aut:5:{d.pick(['5', '6'])}", "--max-length", "600"), "digest"),
        Command(("dims", "--model", f"djq:A2:{d.pick(['1/2', '1/3'])}", "--max-length", "60"), "digest"),
        Command(("verify", "--model", f"djq:C3:{d.pick(['3/4', '2/3'])}"), "verify"),
        Command(("verify", "--model", f"oplus:3:{d.pick(['7/2', '9/2'])}", "--horizon", "200"), "verify"),
        Command(("spectrum", "--model", "djq:A3:1/2", "--mu", d.pick(["6,6,6", "5,6,7", "7,6,5"])), "digest"),
        Command(("decay", "--model", f"djq:B2:{d.pick(['3/4', '2/3'])}", "--horizon", "40"), "digest"),
    ])


WORKLOADS = {
    "dj-kp": _dj_kp,
    "dj-sweep": _dj_sweep,
    "graded-kp": _graded_kp,
    "data-reports": _data_reports,
}


def commands(workload: str, seed: int) -> list[Command]:
    return WORKLOADS[workload](_Draw(seed))


def every_command(workload: str) -> set[Command]:
    """Every command any seed can produce, for building the reference file."""
    found: set[Command] = set()
    for seed in range(400):
        found.update(commands(workload, seed))
    return found
