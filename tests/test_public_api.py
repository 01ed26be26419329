"""The package's public surface, pinned so that adding or removing a name is deliberate."""

import inspect
import types

import pytest

import mzi_qfi
from mzi_qfi import coherence, fock, particle, qfi, schwinger, states

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

#: The parameter names of every public callable: each function, each class's
#: constructor and each public method a class defines. The errors take a message
#: alone and are left out.
PUBLIC_SIGNATURES = {
    "CoherenceReport": ("nbar_a nbar_b nbar g2_a g2_b g2_ab var_na var_nb cov_nab "
                        "path_symmetric tol"),
    "CoherenceReport.as_dict": "self",
    "FockState": "amplitudes cutoff truncation_loss",
    "FockState.from_grid": "grid truncation_loss",
    "FockState.probabilities": "self",
    "ModeEntanglementReport": "schmidt_values entropy entropy_bits separable tol",
    "ModeEntanglementReport.as_dict": "self",
    "ParticleReport": "n mean_sigma_z var_sigma_z cov_sigma_z f_particle witness_entangled",
    "ParticleReport.as_dict": "self",
    "ProbeSpec": "family params cutoff",
    "QfiReport": ("f_variance f_mode f_path_symmetric f_fidelity f_particle "
                  "crb scaling route_agreement routes_consistent reasons disagreements"),
    "QfiReport.as_dict": "self",
    "ScalingClass": "sub_shot_noise ratio_shot_noise ratio_heisenberg",
    "ScalingClass.as_dict": "self",
    "Sector": "n weight coeffs cutoff",
    "SectorDecomposition": "sectors weights_sum occupied",
    "SectorDecomposition.dominant": "self",
    "SectorDecomposition.fixed_n_sector": "self",
    "SpinDirection": "x y z",
    "SpinDirection.from_sequence": "v",
    "analyze": "state tol",
    "apply_rotation": "state v angle",
    "beam_splitter": "state which",
    "build": "spec",
    "build_for_nbar": "family nbar cutoff",
    "build_report": "state coherence_report decomposition step richardson",
    "classify_scaling": "f nbar bound",
    "decompose_sectors": "state",
    "inner": "x y",
    "make_fock": "j k cutoff",
    "mzi_unitary": "state phi",
    "pad_to": "state cutoff",
    "particle_moments": "sector_state n",
    "phase_shift": "state phi",
    "qfi_fidelity": "state step richardson",
    "qfi_mode": "report",
    "qfi_particle": "decomp",
    "qfi_path_symmetric": "report",
    "qfi_variance": "state",
    "read_state_file": "path",
    "schmidt": "state tol",
    "sector_moments": "sector",
    "solve_param_for_nbar": "family nbar",
    "state_distance": "x y",
    "write_state_file": "state path",
}

METHOD_TYPES = (types.FunctionType, classmethod, staticmethod)

#: The ladder-operator layer; the generators are defined by the sector blocks alone.
LADDER_NAMES = ["LadderState", "StateLike", "MomentSpec", "moment", "apply_ladder",
                "RAISE_HEADROOM", "j_moment", "apply_generator", "GeneratorTag"]


def test_all_is_pinned():
    assert mzi_qfi.__all__ == PUBLIC_NAMES


def public_signatures():
    """The parameter names, space-separated, of each callable that PUBLIC_SIGNATURES pins."""
    def names(obj):
        return " ".join(inspect.signature(obj).parameters)

    found = {}
    for name in mzi_qfi.__all__:
        obj = getattr(mzi_qfi, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            continue
        found[name] = names(obj)
        for attr, value in vars(obj).items() if isinstance(obj, type) else ():
            if not attr.startswith("_") and isinstance(value, METHOD_TYPES):
                found[f"{name}.{attr}"] = names(getattr(obj, attr))
    return found


def test_signatures_are_pinned():
    assert public_signatures() == PUBLIC_SIGNATURES


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
    (fock.FockState, "_norm_squared"), (particle, "_single_sector_n"),
    (particle, "_outside_sector_error"), (fock.FockState, "_in_sector"), (fock, "vdot"),
    (fock, "photon_totals"), (qfi, "FIDELITY_BLOCK_CELLS"), (schwinger, "_memo"),
    (schwinger, "_forget"), (states, "mean_photon_number"), (fock.FockState, "_moments"),
    (fock, "_second_order_moments"), (states, "_solve_for_nbar"), (states, "_mean_level"),
    (states, "_tmsv_diagonal"), (states.Family, "mean"),
])
def test_removed_helpers_are_gone(owner, name):
    assert not hasattr(owner, name)
