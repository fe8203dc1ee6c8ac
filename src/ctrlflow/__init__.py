"""ctrlflow: measure transport and set stabilization for control-affine systems.

The package builds feedback laws in three steps: construct trajectory/control
ensembles between two sample clouds (exact steering primitives or noising
runs, re-timed into forward trajectories), regress the conditional-mean
control on (time, state), and integrate the resulting closed loop forward.
"""

from .config import SCHEMA_VERSION, ExperimentConfig, config_hash, load_config
from .errors import (
    BlowUpError,
    ConfigurationError,
    CtrlFlowError,
    EmptyDatasetError,
    InfeasibleTargetError,
    StageError,
    TrainingDivergedError,
    UncontrollablePairError,
    UnknownSystemError,
    UnstableGainError,
)
from .experiments import ExperimentReport, emit_plot_data, run_experiment, verify
from .flow import (
    FlowInfo,
    integrate_closed_loop_batch,
    snapshots_from_arrays,
)
from .interpolants import (
    brockett_steer_pair_batch,
    equilibrium_control,
    feedback_steer_pair_batch,
    gramian,
    min_energy_pair_batch,
    place_poles,
)
from .measures import (
    EmpiricalMeasure,
    build_coupling,
    sample_measure,
    sliced_wasserstein2,
    wasserstein2,
)
from .noising import (
    NoisingConfig,
    NoisingReport,
    QuadraticCost,
    endpoint_map_batch,
    generate_noising_dataset,
    hamiltonian,
    hamiltonian_drift,
    pmp_extremal_batch,
    pmp_optimal_control,
    sample_brownian_control,
)
from .regression import (
    FeedbackLaw,
    RegressionDataset,
    crossval_loss,
    dataset_from_pairs,
    fit_feedback,
    load_dataset,
    save_dataset,
)
from .systems import (
    ControlAffineSystem,
    builtin_names,
    builtin_system,
    linear_system,
    six_state_matrices,
    six_state_output,
)
from .trajectory import PairEnsemble

__version__ = "0.1.0"

__all__ = [
    "SCHEMA_VERSION",
    "ExperimentConfig",
    "config_hash",
    "load_config",
    "BlowUpError",
    "ConfigurationError",
    "CtrlFlowError",
    "EmptyDatasetError",
    "InfeasibleTargetError",
    "StageError",
    "TrainingDivergedError",
    "UncontrollablePairError",
    "UnknownSystemError",
    "UnstableGainError",
    "FlowInfo",
    "integrate_closed_loop_batch",
    "snapshots_from_arrays",
    "brockett_steer_pair_batch",
    "equilibrium_control",
    "feedback_steer_pair_batch",
    "gramian",
    "min_energy_pair_batch",
    "place_poles",
    "EmpiricalMeasure",
    "build_coupling",
    "sample_measure",
    "sliced_wasserstein2",
    "wasserstein2",
    "NoisingConfig",
    "NoisingReport",
    "QuadraticCost",
    "endpoint_map_batch",
    "generate_noising_dataset",
    "hamiltonian",
    "hamiltonian_drift",
    "pmp_extremal_batch",
    "pmp_optimal_control",
    "sample_brownian_control",
    "FeedbackLaw",
    "RegressionDataset",
    "crossval_loss",
    "dataset_from_pairs",
    "fit_feedback",
    "load_dataset",
    "save_dataset",
    "ControlAffineSystem",
    "builtin_names",
    "builtin_system",
    "linear_system",
    "six_state_matrices",
    "six_state_output",
    "PairEnsemble",
    "run_experiment",
    "emit_plot_data",
    "verify",
    "ExperimentReport",
]

