"""Run one ``cqgkhint`` CLI command with spans around every layer's calls.

Usage: ``python bench/traced_cli.py SPANS_PATH <cli args...>`` with ``src`` on
``PYTHONPATH``.  The package is left unedited: the recorder wraps public
functions and methods from here, class-level for ``KpEvaluator``, the model
classes and ``RootSystem``, and module-level (in every module that imported
the name) for functions such as ``chebyshev_f`` or ``cli._emit``.  Spans stay
in memory until the command ends, then go to SPANS_PATH as JSON rows of
``[name, start_ns, end_ns, parent_index, count, key]``.  ``count`` is the
work a call did, taken from its arguments and return value (labels, terms,
levels, recursion steps, bytes); ``key`` names the data a call asked for, so
repeated requests can be counted.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import threading
import time


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, fn, count=None):
        """``fn`` recording one span per call; ``count(args, result)`` gives (count, key)."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            # a worker thread's outermost span belongs to the span that the
            # main thread is blocked in (the thread pool's submitter)
            origin = stack or rec._main_stack
            span = [name, 0, 0, origin[-1] if origin else -1, 1, None]
            with rec._lock:
                index = len(rec.spans)
                rec.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                span[4], span[5] = count(args, result)
            return result

        return traced


def _label_count(evaluator, k) -> int:
    # labels of length k: one per level for the graded families, the number
    # of dominant weights with coordinate sum k for Drinfeld-Jimbo
    rank = getattr(evaluator.model, "rank", 1)
    return math.comb(k + rank - 1, rank - 1)


def _level_entries(args, result):
    evaluator, k = args[0], args[1]
    return len(result), f"{evaluator.model.spec_string()}|{k}"


def _level_term_sum(args, result):
    return _label_count(args[0], args[1]), None


def _kp_constant(args, result):
    return result.terms_summed, None


def _length(args, result):
    return len(result), None


def _first_arg(args, result):
    return int(args[0]), None


def _returned(args, result):
    return int(result), None


def install(rec: Recorder):
    """Wrap every traced layer boundary; returns the wrapped ``cli.main``."""
    import cqgkhint.cli as cli
    from cqgkhint import chebyshev, fusion, khintchine, models, rootsys, verify

    def method(cls, attr, name, count=None):
        if attr in vars(cls):
            setattr(cls, attr, rec.wrap(name, vars(cls)[attr], count))

    def function(module, attr, name, count=None):
        original = getattr(module, attr, None)
        if original is None:
            return
        traced = rec.wrap(name, original, count)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("cqgkhint"):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    ev = khintchine.KpEvaluator
    method(ev, "level_entries", "khintchine.level_entries", _level_entries)
    method(ev, "level_term_sum", "khintchine.level_term_sum", _level_term_sum)
    method(ev, "tail_bound", "khintchine.tail_bound")
    method(ev, "kp_constant", "khintchine.kp_constant", _kp_constant)
    method(ev, "_prefetch", "khintchine.prefetch")
    function(khintchine, "norm_equivalence_constants", "khintchine.norm_equivalence_constants")
    function(khintchine, "decay_rate", "khintchine.decay_rate")
    for cls in (models.QuantumGroupModel, models.DrinfeldJimboModel,
                models.FreeOrthogonalModel, models.QuantumAutomorphismModel):
        method(cls, "level_data", "models.level_data", _length)
        method(cls, "irr_data", "models.irr_data")
        method(cls, "enumerate_level", "models.enumerate_level", _length)
    function(chebyshev, "chebyshev_f", "chebyshev", _first_arg)
    function(chebyshev, "chebyshev_g", "chebyshev", _first_arg)
    rs = rootsys.RootSystem
    for attr in ("weight_system", "q_matrix_spectrum", "quantum_dimension",
                 "quantum_dimension_product", "weyl_dimension"):
        method(rs, attr, f"rootsys.{attr}")
    function(verify, "verify_model", "verify.verify_model")
    function(fusion, "tensor_decompose", "fusion")
    function(fusion, "tensor_with_generator", "fusion")
    function(cli, "_emit", "cli._emit", _returned)
    return rec.wrap("cli.main", cli.main)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    traced_main = install(rec)
    try:
        return traced_main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(rec.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
