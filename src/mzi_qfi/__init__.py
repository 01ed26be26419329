"""Two-mode Fock-space analytics for interferometric phase estimation.

Builds the standard interferometer probe families, evaluates their first and
second order coherence functions, computes the quantum Fisher information by
independent routes, and quantifies mode versus particle entanglement.
"""

from .coherence import CoherenceReport, analyze
from .entanglement import ModeEntanglementReport, schmidt
from .errors import (
    CutoffExceededError,
    MziError,
    NormalizationError,
    ParameterError,
    SectorSupportError,
    StateFileError,
    TruncationLossError,
    TruncationOverflowError,
    UnattainableTargetError,
)
from .fock import (
    FockState,
    inner,
    make_fock,
    pad_to,
    state_distance,
)
from .particle import (
    ParticleReport,
    Sector,
    SectorDecomposition,
    decompose_sectors,
    particle_moments,
    qfi_particle,
    sector_moments,
)
from .qfi import (
    QfiReport,
    ScalingClass,
    build_report,
    classify_scaling,
    qfi_fidelity,
    qfi_mode,
    qfi_path_symmetric,
    qfi_variance,
)
from .schwinger import (
    SpinDirection,
    apply_rotation,
    beam_splitter,
    mzi_unitary,
    phase_shift,
)
from .serialize import read_state_file, write_state_file
from .states import ProbeSpec, build, build_for_nbar, solve_param_for_nbar

__version__ = "0.1.0"

__all__ = [
    "CoherenceReport",
    "CutoffExceededError",
    "FockState",
    "ModeEntanglementReport",
    "MziError",
    "NormalizationError",
    "ParameterError",
    "ParticleReport",
    "ProbeSpec",
    "QfiReport",
    "ScalingClass",
    "Sector",
    "SectorDecomposition",
    "SectorSupportError",
    "SpinDirection",
    "StateFileError",
    "TruncationLossError",
    "TruncationOverflowError",
    "UnattainableTargetError",
    "analyze",
    "apply_rotation",
    "beam_splitter",
    "build",
    "build_for_nbar",
    "build_report",
    "classify_scaling",
    "decompose_sectors",
    "inner",
    "make_fock",
    "mzi_unitary",
    "pad_to",
    "particle_moments",
    "phase_shift",
    "qfi_fidelity",
    "qfi_mode",
    "qfi_particle",
    "qfi_path_symmetric",
    "qfi_variance",
    "read_state_file",
    "schmidt",
    "sector_moments",
    "solve_param_for_nbar",
    "state_distance",
    "write_state_file",
]
