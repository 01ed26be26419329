"""The package's public surface, pinned so that adding or removing a name is deliberate."""

import pytest

import mzi_qfi
from mzi_qfi import coherence, fock, particle, schwinger, states

PUBLIC_NAMES = [
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

#: The ladder-operator layer; the generators are defined by the sector blocks alone.
LADDER_NAMES = ["LadderState", "StateLike", "MomentSpec", "moment", "apply_ladder",
                "RAISE_HEADROOM", "j_moment", "apply_generator", "GeneratorTag"]


def test_all_is_pinned():
    assert mzi_qfi.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_listed_name_resolves(name):
    assert getattr(mzi_qfi, name) is not None


@pytest.mark.parametrize("module", [mzi_qfi, fock, schwinger], ids=lambda m: m.__name__)
@pytest.mark.parametrize("name", LADDER_NAMES)
def test_ladder_layer_is_gone(module, name):
    assert not hasattr(module, name)


@pytest.mark.parametrize("owner,name", [
    (fock, "_raise"), (fock, "_grid_of"), (schwinger, "_TAGS"), (schwinger, "_number_j_moment"),
    (schwinger.SpinDirection, "as_tuple"), (states, "squeezed_vacuum_reference"),
    (particle, "_sector_ks"), (schwinger, "_sector_kvals"), (schwinger, "_photon_totals"),
    (fock, "_lower"), (coherence, "_real_moment"), (coherence, "_HERMITICITY_TOL"),
    (schwinger, "_real"), (schwinger, "_J_IMAG_TOL"),
    (mzi_qfi, "locality_check"), (mzi_qfi, "multiqubit_oracle"),
    (particle, "locality_check"), (particle, "multiqubit_oracle"),
    (schwinger, "sector_generator_matrix"),
])
def test_removed_helpers_are_gone(owner, name):
    assert not hasattr(owner, name)
