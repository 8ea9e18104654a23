"""Representation data and certified Khintchine constants for non-Kac
compact quantum groups.

The public surface groups into:

* :mod:`cqgkhint.rootsys` — root systems, Freudenthal weight multiplicities,
  quantum dimensions and modular-matrix spectra (all exact rationals);
* :mod:`cqgkhint.chebyshev` — the dimension polynomials ``f_k`` / ``g_k`` with
  certified growth envelopes;
* :mod:`cqgkhint.fusion` — the su2/so3-type fusion rings;
* :mod:`cqgkhint.models` — the three model families behind one graded API;
* :mod:`cqgkhint.schur` — exact Schur-orthogonality and modular-automorphism
  identity checks;
* :mod:`cqgkhint.khintchine` — ``K_p`` with certified tail bounds, decay
  rates and norm-equivalence constants;
* :mod:`cqgkhint.cli` — the ``cqgkhint`` command-line tool.

Importing the package loads none of them: each public name is imported from
its submodule on first use.  So ``cqgkhint.cli`` loads only what the chosen
command runs.  The commands that compute ``K_p``, decay bases or ratio
tables load mpmath's ``libmp`` layer alone (see :mod:`cqgkhint._libmp`), and
no command imports mpmath itself.
"""

__version__ = "0.1.0"

# public name -> defining submodule; each is imported on first use (PEP 562),
# so a command that needs no high-precision arithmetic never loads mpmath or libmp
_EXPORTS = {
    "chebyshev": ("ChebEnvelope", "chebyshev_f", "chebyshev_g", "envelope"),
    "fusion": ("tensor_decompose", "tensor_with_generator", "trivial_multiplicity"),
    "khintchine": (
        "ConstantsReport",
        "DecayReport",
        "KpEvaluator",
        "KpReport",
        "certified_tail",
        "decay_rate",
        "kp_constant",
        "norm_equivalence_constants",
    ),
    "models": (
        "DrinfeldJimboModel",
        "FreeOrthogonalModel",
        "IrrData",
        "QuantumAutomorphismModel",
        "construct_model",
        "parse_model_spec",
    ),
    "rootsys": ("QSpectrum", "RootSystem", "build_root_system"),
    "schur": (
        "CentralSeries",
        "CoefficientVector",
        "apply_modular_automorphism",
        "apply_modular_imaginary",
        "character_vector",
        "l2_khintchine_check",
        "l2_norm",
        "l2_norm_squared",
        "modular_duality_check",
        "smoothed_character_norm_check",
        "symmetrize_spectrum",
    ),
    "verify": ("VerifyReport", "verify_model"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        # unknown names include submodules not yet imported: raising here lets
        # ``from cqgkhint import schur`` fall back to importing the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted([*globals(), *_SOURCE])


__all__ = [*_SOURCE, "__version__"]
