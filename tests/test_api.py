"""The package's public names, listed: adding or dropping one is an edit to
``PUBLIC`` or ``MODULES`` below. Each name that only repeated another public
call stays gone, with the call that replaces it noted beside it."""
import importlib
import inspect
import pkgutil

import pytest

import steepdesc
from steepdesc import diagnostics, losses, optimizers, rng
from steepdesc.diagnostics import KKTReport
from steepdesc.optimizers import OptimizerState
from steepdesc.params import ParamVector

PUBLIC = {
    "AdamMethod", "DataSource", "Dataset", "Evaluation", "InitSpec", "KKTReport",
    "LossSpec", "MarginReport", "ModelSpec", "NormSpec", "OptimizerSpec",
    "OptimizerState", "OracleResult", "ParamVector", "RunConfig", "RunLog",
    "ShampooMethod", "SteepestMethod", "TeacherSpec", "dual_norm_value",
    "emit_csv", "emit_svg", "evaluate", "evaluate_accuracy", "forward",
    "forward_batch", "from_flat", "gen_teacher", "grid_max_margin",
    "init_params", "kkt_residuals", "load_checkpoint", "load_config",
    "load_idx", "log_loss", "loss_subgradient", "margin_report",
    "network_subgradient", "norm_subgradient", "norm_value", "output_margins",
    "phi_inverse", "run_training", "sample_dataset", "save_checkpoint",
    "separation_threshold", "steepest_direction", "step_adam", "step_shampoo",
    "step_steepest", "take_step", "thin_svd",
}

# each module's public functions and classes, those it defines itself
MODULES = {
    "__main__": set(),
    "cli": {"cli_main", "main"},
    "data": {"Dataset", "TeacherSpec", "export_csv", "gen_teacher", "load_dataset",
             "load_idx", "load_points_csv", "sample_dataset", "save_dataset"},
    "diagnostics": {"KKTReport", "MarginReport", "kkt_residuals", "margin_report"},
    "errors": {"ConfigError", "DataFormatError", "DivergenceError",
               "InvariantViolation", "NonFiniteError", "NotSeparatedError",
               "ShapeMismatchError", "SteepdescError", "ZeroVectorError"},
    "harness": {"DataSource", "LogRow", "RunConfig", "RunLog", "check_invariants",
                "config_from_values", "emit_csv", "emit_svg", "evaluate_accuracy",
                "load_config", "parse_norm", "read_flat_config", "resolve_data",
                "run_training"},
    "losses": {"Evaluation", "LossSpec", "evaluate", "log_loss", "log_terms",
               "log_weights", "loss_subgradient", "output_margins", "phi_inverse",
               "separation_threshold"},
    "models": {"InitSpec", "ModelSpec", "forward", "forward_batch",
               "hidden_subgradient_sum", "init_params", "load_checkpoint",
               "network_subgradient", "save_checkpoint", "weighted_subgradient_sum"},
    "norms": {"NormSpec", "dual_norm_value", "norm_subgradient", "norm_value",
              "steepest_direction", "thin_svd", "unit_direction_and_dual",
              "unit_steepest_direction"},
    "optimizers": {"AdamMethod", "OptimizerSpec", "OptimizerState", "ShampooMethod",
                   "SteepestMethod", "step_adam", "step_shampoo", "step_steepest",
                   "take_step"},
    "oracle": {"OracleResult", "grid_max_margin"},
    "params": {"Layout", "ParamVector", "from_flat"},
    "rng": {"Xoshiro256pp", "splitmix64_stream"},
}

REMOVED = [
    (optimizers, "apply_switch"),      # run_training switches to spec.switch_to
    (diagnostics, "detect_separation"),  # log_loss < separation_threshold(loss)
    (losses, "phi"),                   # -log_terms(loss, u)
    (KKTReport, "lambdas"),            # np.exp(report.log_lambda)
    (ParamVector, "copy"),             # v.like(v.flat().copy())
    (ParamVector, "zeros_like"),       # v.like(np.zeros(v.size))
    (ParamVector, "trainable_view"),   # v.like(v.trainable_flat())
    (ParamVector, "n_blocks"),         # len(v.shapes())
    (ParamVector, "views"),            # v.layout.views
    (rng, "derive_seeds"),             # splitmix64_stream(seed, n)
    (OptimizerState, "fresh"),         # OptimizerState()
]


def test_public_names_are_the_listed_set():
    names = {name for name, value in vars(steepdesc).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert names == PUBLIC


def test_every_module_is_listed():
    assert {m.name for m in pkgutil.iter_modules(steepdesc.__path__)} == set(MODULES)


@pytest.mark.parametrize("module", sorted(MODULES))
def test_module_defines_the_listed_functions_and_classes(module):
    mod = importlib.import_module(f"steepdesc.{module}")
    names = {name for name, value in vars(mod).items()
             if not name.startswith("_")
             and (inspect.isfunction(value) or inspect.isclass(value))
             and value.__module__ == mod.__name__}
    assert names == MODULES[module]


@pytest.mark.parametrize("owner, name", REMOVED,
                         ids=[f"{getattr(o, '__name__', o)}.{n}" for o, n in REMOVED])
def test_removed_wrapper_stays_gone(owner, name):
    assert not hasattr(owner, name)
    assert name not in vars(steepdesc)
