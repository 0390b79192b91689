"""Steepest descent under arbitrary norms for homogeneous classifiers,
instrumented with margin, alignment, and approximate-KKT diagnostics."""

from .data import Dataset, TeacherSpec, gen_teacher, load_idx, sample_dataset
from .diagnostics import KKTReport, MarginReport, kkt_residuals, margin_report
from .harness import (DataSource, RunConfig, RunLog, emit_csv, emit_svg,
                      evaluate_accuracy, load_config, run_training)
from .losses import (Evaluation, LossSpec, evaluate, log_loss, loss_subgradient,
                     output_margins, phi_inverse, separation_threshold)
from .models import (InitSpec, ModelSpec, forward, forward_batch, init_params,
                     load_checkpoint, network_subgradient, save_checkpoint)
from .norms import (NormSpec, dual_norm_value, norm_subgradient, norm_value,
                    steepest_direction, thin_svd)
from .optimizers import (AdamMethod, OptimizerSpec, OptimizerState,
                         ShampooMethod, SteepestMethod, step_adam, step_shampoo,
                         step_steepest, take_step)
from .oracle import OracleResult, grid_max_margin
from .params import ParamVector, from_flat

__version__ = "0.1.0"
