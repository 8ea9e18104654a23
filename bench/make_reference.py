"""Rebuild ``reference.json``: the values the output checks compare against.

Usage (from the repository root; takes a few minutes)::

    python3 bench/make_reference.py

For every ``K_p`` that any seed of any workload asks for, the CLI is run at
``tol`` times 1e-8 and 320 bits, and the lower end of that interval is
stored: it is at most the true ``K_p`` and above the lower end of any
interval at ``tol`` itself.  For every exact report a workload checks by
digest, the digest of the report as the current code writes it is stored.
Rebuild only when the inputs change, never to make a failing check pass.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

from oracle import DEFAULT_TOL, REFERENCE_PATH, kp_key, option, report_digest
from workloads import WORKLOADS, every_command

ROOT = Path(__file__).resolve().parent.parent
TIGHTEN = 1e-8
REFERENCE_BITS = "320"


def cli(*args) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "cqgkhint.cli", *args], env=env, cwd=ROOT, capture_output=True, check=True
    )
    return json.loads(out.stdout)


def main() -> int:
    wanted = defaultdict(set)  # (model, tol) -> p values
    digests = {}
    for workload in WORKLOADS:
        for cmd in every_command(workload):
            model, tol = option(cmd.args, "--model"), option(cmd.args, "--tol", DEFAULT_TOL)
            if cmd.check in ("kp", "constants"):
                wanted[model, tol].add(Fraction(option(cmd.args, "--p")))
            elif cmd.check == "kp-table":
                wanted[model, tol].update(Fraction(p) for p in option(cmd.args, "--p-list").split(","))
            elif cmd.check == "digest":
                digests[cmd.text] = report_digest(cli(*cmd.args))
    kp = {}
    for (model, tol), ps in sorted(wanted.items()):
        p_list = ",".join(str(p) for p in sorted(ps))
        print(f"reference K_p for {model} at p in {{{p_list}}}", file=sys.stderr, flush=True)
        report = cli(
            "table", "--model", model, "--kind", "kp", "--p-list", p_list,
            "--tol", repr(float(tol) * TIGHTEN), "--precision-bits", REFERENCE_BITS,
        )
        for row in report["rows"]:
            if row["verdict"] != "converged":
                raise SystemExit(f"reference for {model} p={row['p']} did not converge")
            kp[kp_key(report["model"], row["p"], tol)] = row["kp_lower"]
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"kp": dict(sorted(kp.items())), "digest": dict(sorted(digests.items()))}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
