"""What `import robinbec` gives: the names its `__init__` has always
exported, each resolved on first access to the object its module defines,
and nothing else."""

import importlib

import pytest

import robinbec

# module -> the names the package exported when its __init__ imported every
# layer; each module was an attribute of the package too
EXPORTED = {
    "errors": ("NumericalFailure", "ValidationError"),
    "csvio": (),
    "spectrum": ("BoxParams", "BracketFailure", "NoSecondBoundState", "OutOfDomain",
                 "SpectrumTable", "bound_state_gap", "build_spectrum", "eigenfunction_eval",
                 "write_spectrum_csv"),
    "gibbs_oracle": ("BadMode", "CapOverflow", "ConstrainedZ", "DiagonalObservable",
                     "IndexClash", "ModelParams", "NonpositiveGap", "TruncationSpec",
                     "UnknownMode", "check_moment_log_inequality", "check_occupation_bound",
                     "check_wall_mode_occupation", "constrained_partition",
                     "exchange_identity_sides", "grand_expectation", "make_truncation",
                     "run_check", "truncation_for_check"),
    "thermo": ("CutoffTooSmall", "MuAsymptoticsReport", "NotCondensing", "SigmaZero",
               "ThermoInput", "ThermoState", "critical_density", "equal_distribution_gap",
               "mu_asymptotics_check", "solve_mu", "suggest_k_max", "write_sweep_csv"),
    "profile": ("EmptyCondensate", "Profile", "density_profile", "localization_radius",
                "profile_input", "profile_mass", "write_profile_csv"),
}
NAMES = {name for module, names in EXPORTED.items() for name in (module, *names)}


def test_every_export_is_its_modules_object():
    for module, names in EXPORTED.items():
        home = importlib.import_module(f"robinbec.{module}")
        assert getattr(robinbec, module) is home
        assert [name for name in names if getattr(robinbec, name) is not getattr(home, name)] == []


def test_all_and_dir_list_the_exports():
    assert sorted(robinbec.__all__) == sorted(NAMES)
    assert NAMES | {"__version__"} <= set(dir(robinbec))
    star = {}
    exec("from robinbec import *", star)
    assert set(star) - {"__builtins__"} == NAMES


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="'robinbec' has no attribute 'no_such_name'"):
        robinbec.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from robinbec import no_such_name  # noqa: F401
