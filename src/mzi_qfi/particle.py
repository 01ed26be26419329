"""Fixed-photon-number sector analytics in the particle picture.

A state with exactly n photons can be read as n pseudo-labeled two-level
particles, each photon carrying the which-arm qubit |mu> (mode a) or |nu>
(mode b). The mode-picture generators and the collective spin operators
(half the sum of single-particle Pauli operators) then agree, which turns
collective-spin moments into single-particle Pauli statistics:

    <sigma_z>          = 2 <Jz> / n
    <sigma_z sigma_z>  = (4 <Jz^2> - n) / (n (n - 1))     for n >= 2

The phase-sensitivity decomposition F = n Var[sigma_z] + n(n-1) Cov[sigma_z,
sigma_z] makes the covariance an entanglement witness: product sectors have
zero covariance and are shot-noise limited. A sector is called entangled when
n(n-1) Cov[sigma_z, sigma_z], its excess over shot noise, exceeds its own
round-off bound, ``ROUTE_ROUNDOFF`` <N^2> with <N^2> = n^2, the bound against
which ``qfi`` judges F - nbar. Every sector is read through
:func:`mzi_qfi.fock.state_cells`, in place or from the cells a state holds,
and a decomposition reads only the sectors
:func:`mzi_qfi.fock.occupied_sectors` names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .errors import ParameterError, SectorSupportError
from .fock import ROUTE_ROUNDOFF, FockState, occupied_sectors, sector_kets, state_cells

#: Sector weights below this are dropped from decompositions.
WEIGHT_FLOOR = 1e-14

@dataclass(frozen=True)
class Sector:
    """One total-photon-number component of a state, held as a vector.

    ``coeffs`` are the normalized amplitudes c_k on |k, n-k> for k in
    ``ks``, the kets of sector n that fit under the source state's cutoff.
    ``cutoff`` is ``min(n, source cutoff)``, the smallest per-mode cutoff that
    holds them. ``weight`` is the sector's probability in the source state.
    Equality compares ``coeffs`` with ``np.array_equal``.
    """

    n: int
    weight: float
    coeffs: np.ndarray
    cutoff: int

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        same = (self.n, self.weight, self.cutoff) == (other.n, other.weight, other.cutoff)
        return same and np.array_equal(self.coeffs, other.coeffs)

    @property
    def ks(self) -> np.ndarray:
        """Photon counts in mode a, one per entry of ``coeffs``."""
        return sector_kets(self.n, self.cutoff)

    @property
    def state(self) -> FockState:
        """The sector as a normalized state on a ``cutoff`` grid, holding ``coeffs`` as its cells.

        The state knows its photon number n (``FockState._sector``) and holds
        no grid until its ``amplitudes`` are read, so its norm check, its
        number moments and :func:`particle_moments` cost O(n). Each access
        makes a new state around the same read-only ``coeffs``.
        """
        return FockState._from_cells(self.coeffs, self.n, self.cutoff)


@dataclass(frozen=True)
class SectorDecomposition:
    """Projection of a state onto its total-photon-number sectors.

    ``occupied`` counts the sectors where the state holds a nonzero cell
    (:func:`mzi_qfi.fock.occupied_sectors`), those under ``WEIGHT_FLOOR``
    included, so it can exceed ``len(sectors)``.
    """

    sectors: List[Sector]
    weights_sum: float
    occupied: int

    def dominant(self) -> Sector:
        return max(self.sectors, key=lambda s: s.weight)

    def fixed_n_sector(self) -> Optional[Sector]:
        """The sole sector of a state that occupies exactly one photon-number sector, else ``None``.

        Any nonzero cell outside that sector, however small its weight, means
        the photon number is not fixed; no weight threshold is applied.
        """
        return self.sectors[0] if self.occupied == 1 else None


@dataclass(frozen=True)
class ParticleReport:
    """Single-particle Pauli statistics of one fixed-n sector."""

    n: int
    mean_sigma_z: float
    var_sigma_z: float
    cov_sigma_z: float
    f_particle: float
    witness_entangled: bool

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "mean_sigma_z": self.mean_sigma_z,
            "var_sigma_z": self.var_sigma_z,
            "cov_sigma_z": self.cov_sigma_z,
            "f_particle": self.f_particle,
            "witness_entangled": self.witness_entangled,
        }


def decompose_sectors(state: FockState) -> SectorDecomposition:
    """Project onto each occupied total-photon-number anti-diagonal and renormalize.

    Each kept sector holds only its anti-diagonal, the vector of amplitudes
    on |k, n-k>, so a decomposition costs O(cutoff^2) time and memory in
    all. Only the sectors of :func:`mzi_qfi.fock.occupied_sectors` are read,
    each through :func:`mzi_qfi.fock.state_cells`, so a state that holds the
    cells of its sector reads them, with no scan and no grid. An empty
    sector, which would add exactly 0.0 to ``weights_sum``, is not read;
    ``occupied`` is the number of sectors read.
    """
    occupied = occupied_sectors(state)
    sectors = []
    weights_sum = 0.0
    for n, cells in zip(occupied, state_cells(state, occupied)):
        weight = float(np.square(np.abs(cells)).sum())
        weights_sum += weight
        if weight < WEIGHT_FLOOR:
            continue
        coeffs = cells / math.sqrt(weight)
        coeffs.flags.writeable = False
        sectors.append(Sector(n=n, weight=weight, coeffs=coeffs, cutoff=min(n, state.cutoff)))
    return SectorDecomposition(sectors=sectors, weights_sum=weights_sum, occupied=len(occupied))


#: Weight outside its dominant sector above which :func:`particle_moments`
#: rejects a state that does not know its sector.
SECTOR_SUPPORT_TOL = 1e-12


def _report_from_z_stats(n: int, mean_z: float, mean_zz: Optional[float]) -> ParticleReport:
    var_z = 1.0 - mean_z**2  # sigma_z^2 is the identity on a qubit
    if n == 1:
        cov_z = 0.0  # no particle pairs, covariance term absent by convention
    else:
        assert mean_zz is not None
        cov_z = mean_zz - mean_z**2
    f_particle = n * var_z + n * (n - 1) * cov_z
    return ParticleReport(
        n=n,
        mean_sigma_z=mean_z,
        var_sigma_z=var_z,
        cov_sigma_z=cov_z,
        f_particle=f_particle,
        witness_entangled=n * (n - 1) * cov_z > ROUTE_ROUNDOFF * n * n,
    )


def _sector_report(n: int, ks: np.ndarray, probs: np.ndarray) -> ParticleReport:
    """Pauli statistics from the number distribution ``probs`` on |k, n-k>.

    With dz = 2k - n = 2 Jz on each ket, the bridge gives
    <sigma_z> = <dz>/n and <sigma_z sigma_z> = (<dz^2> - n)/(n(n-1)).
    """
    dz = 2 * ks - n
    mean_z = float(probs @ dz) / n
    mean_zz = None
    if n >= 2:
        mean_zz = (float(probs @ (dz * dz)) - n) / (n * (n - 1))
    return _report_from_z_stats(n, mean_z, mean_zz)


def sector_moments(sector: Sector) -> ParticleReport:
    """Pauli statistics of one sector of a decomposition, in O(n)."""
    if sector.n < 1:
        raise ParameterError(f"particle statistics need n >= 1, got {sector.n}")
    return _sector_report(sector.n, sector.ks, np.abs(sector.coeffs) ** 2)


def particle_moments(sector_state: FockState, n: int) -> ParticleReport:
    """Pauli statistics of a state confined to photon-number sector ``n``.

    A state that holds the cells of its sector (``FockState._sector``) is
    taken at its word. Any other state is decomposed first, and its dominant sector is its
    sector once all but ``SECTOR_SUPPORT_TOL`` of its weight lies there. That
    sector must be ``n``. The statistics come from the grid's own cells of
    sector ``n``, at most n + 1 of them (those a state holds, without a grid,
    through :func:`mzi_qfi.fock.state_cells`), as :func:`sector_moments` reads
    them from a decomposition's normalized vector.
    """
    if n < 1:
        raise ParameterError(f"particle statistics need n >= 1, got {n}")
    actual = sector_state._sector
    if actual is None:
        decomp = decompose_sectors(sector_state)
        top = decomp.dominant()
        off = decomp.weights_sum - top.weight
        if off > SECTOR_SUPPORT_TOL:
            raise SectorSupportError(
                f"state carries weight {off:.3e} outside photon-number sector {top.n}; "
                "decompose into sectors first"
            )
        actual = top.n
    if actual != n:
        raise SectorSupportError(f"state occupies sector {actual}, not the requested {n}")
    [cells] = state_cells(sector_state, [n])
    probs = np.abs(cells) ** 2
    return _sector_report(n, sector_kets(n, sector_state.cutoff), probs)


def qfi_particle(decomp: SectorDecomposition) -> Optional[float]:
    """Particle-picture phase information, defined only at fixed photon number.

    Returns ``None`` when the state has particle-number fluctuations, that is
    when it occupies more than one photon-number sector
    (:meth:`SectorDecomposition.fixed_n_sector`); F = n Var[sigma_z] +
    n(n-1) Cov[sigma_z, sigma_z] holds only at exactly fixed n. Per-sector
    reports remain available through :func:`sector_moments`.
    """
    sector = decomp.fixed_n_sector()
    if sector is None:
        return None
    if sector.n == 0:
        return 0.0  # vacuum: no particles, nothing to estimate with
    return sector_moments(sector).f_particle
