"""Stochastic digital twin of a few-atom MOT / optical dipole trap experiment.

Deterministic trap physics (atomtrap.physics), exact stochastic kinetics
(atomtrap.kinetics), photon-count signal synthesis (atomtrap.signals),
statistical recovery of the physics from the signals (atomtrap.analysis),
timing protocols (atomtrap.sequence) and figure-level experiment drivers
(atomtrap.runner). All randomness flows through counter-based per-run
streams (atomtrap.streams), so every result is a pure function of the
configuration and a master seed.
"""

from .physics import (
    AtomParams,
    GaussianBeam,
    TrapModel,
    MotCloud,
    FluorescenceBudget,
    beam_intensity,
    trap_depth,
    peak_scattering_rate,
    fluorescence_budget,
    geometric_loading_efficiency,
    intensity_averaging_factor,
    amplitude_for_factor,
    effective_relaxation_rates,
)
from .kinetics import (
    MotRates,
    HyperfineRates,
    StateTrajectory,
    gillespie_mot,
    dipole_survival,
    magnetic_trap_survival,
    hyperfine_telegraph,
    analytic_occupation,
    mot_endpoint,
    hyperfine_endpoint,
)
from .signals import (
    DetectorModel,
    BurstModel,
    PhotonTrace,
    PiecewiseRate,
    synthesize_counts,
    synthesize_mot_trace,
    synthesize_detection_burst,
)
from .analysis import (
    Segmentation,
    FitResult,
    FitError,
    BurstClassification,
    detect_steps,
    infer_atom_numbers,
    classify_burst,
    fit_exponential_survival,
    fit_relaxation,
    fit_relaxation_joint,
)
from .sequence import (
    Channel,
    SequenceEvent,
    Sequence,
    Violation,
    PhysicsBundle,
    RunRecord,
    MOT_OPERATION,
    DIPOLE_HOLD,
    build_protocol,
    chain,
    validate_sequence,
    Phase,
    SequencePlan,
    compile_sequence,
    run_plan,
    simulate_sequence,
    sequence_to_csv,
    sequence_from_csv,
)
from .streams import run_stream
from .runner import (
    ConfigError,
    ExperimentConfig,
    Dataset,
    EXPERIMENT_KINDS,
    load_config,
    parse_config,
    serialize_config,
    run_experiment,
    export_dataset,
    load_dataset_json,
)

__version__ = "0.1.0"
