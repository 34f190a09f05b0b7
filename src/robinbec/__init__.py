"""robinbec: Bose gas in a 1D box with attractive (Robin) walls.

Exact one-body spectrum, an exact Gibbs oracle for the quadratic
mean-field coupling to the k >= 2 particle number (capped-Fock wall
modes, the k >= 2 sector on a certified particle-number window), density
equation solvers, condensation diagnostics, and spatial density profiles.

`import robinbec` loads no layer module.  Each name of `__all__`, the
public functions and classes and the modules that define them, resolves
on first access (`robinbec.solve_mu`, `from robinbec import thermo`) by
importing its module, so a program pays only for the layers it uses.
"""

import importlib

__version__ = "0.1.0"

# name -> the module that defines it; each module is exported under its own name
_EXPORTS = {
    name: module
    for module, names in (
        ("errors", "NumericalFailure ValidationError"),
        ("csvio", ""),
        ("spectrum", "BoxParams BracketFailure NoSecondBoundState OutOfDomain SpectrumTable "
                     "bound_state_gap build_spectrum eigenfunction_eval write_spectrum_csv"),
        ("gibbs_oracle", "BadMode CapOverflow ConstrainedZ DiagonalObservable IndexClash "
                         "ModelParams NonpositiveGap TruncationSpec UnknownMode "
                         "check_moment_log_inequality check_occupation_bound "
                         "check_wall_mode_occupation constrained_partition "
                         "exchange_identity_sides grand_expectation make_truncation run_check "
                         "truncation_for_check"),
        ("thermo", "CutoffTooSmall MuAsymptoticsReport NotCondensing SigmaZero ThermoInput "
                   "ThermoState critical_density equal_distribution_gap mu_asymptotics_check "
                   "solve_mu suggest_k_max write_sweep_csv"),
        ("profile", "EmptyCondensate Profile density_profile localization_radius profile_input "
                    "profile_mass write_profile_csv"),
    )
    for name in (module, *names.split())
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    loaded = importlib.import_module(f".{module}", __name__)
    return loaded if name == module else getattr(loaded, name)


def __dir__():
    return sorted({*globals(), *__all__})
