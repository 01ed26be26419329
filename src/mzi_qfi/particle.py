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
which ``qfi`` judges F - nbar.

Every reader of a state's sectors reads one table (:func:`_sector_table`):
for each sector :func:`mzi_qfi.fock.occupied_sectors` names, floored or not,
its weight w = sum p, sum p dz and sum p dz^2, with p = |c|^2 and dz = j - k,
each numpy's pairwise sum of the sector's run (``np.sum``'s bits), with no
BLAS. A state that holds the cells of its one sector is its table's one run
(:func:`_run_sums`). One elementwise formula (:func:`_statistics`) turns
those sums into the Pauli statistics of the CLI's sector documents and sweep
rows, of :func:`qfi_particle`, :func:`sector_moments` and
:func:`particle_moments`. :func:`decompose_sectors` takes its weights from
the table and builds the normalized vectors of the kept sectors only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Union

import numpy as np

from .errors import ParameterError, SectorSupportError
from .fock import ROUTE_ROUNDOFF, FockState, occupied_sectors, sector_kets, state_cells

#: Sector weights below this are dropped from decompositions.
WEIGHT_FLOOR = 1e-14

#: Rows' worth of cells, (cutoff + 1) each, past which :func:`_sector_table`
#: starts a new chunk of a grid's sectors. A chunk's temporaries come to about
#: 60 bytes a cell, so the walk of a cutoff-300 grid peaks near a ninth of a grid.
TABLE_ROWS = 6


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


class SectorDecomposition(NamedTuple):
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


class ParticleReport(NamedTuple):
    """Single-particle Pauli statistics of one fixed-n sector."""

    n: int
    mean_sigma_z: float
    var_sigma_z: float
    cov_sigma_z: float
    f_particle: float
    witness_entangled: bool

    def as_dict(self) -> dict:
        return self._asdict()


class _SectorTable(NamedTuple):
    """Every sector a state occupies, ascending in n, those under ``WEIGHT_FLOOR`` included.

    ``sums[:, i]`` are the weight w = sum p, sum p dz and sum p dz^2 of sector
    ``n[i]`` over its cells in ``sector_kets`` order, with p = |c|^2 and
    dz = j - k; each is ``np.sum``'s pairwise sum of its run. ``weights_sum``
    adds the weights in order, as a loop over the sectors adds them.
    """

    n: np.ndarray
    sums: np.ndarray
    weights_sum: float


def _terms(cells: np.ndarray, dz: Optional[np.ndarray]) -> np.ndarray:
    """The rows p and, given ``dz``, p dz and p dz^2 of ``cells``, with p = |c|^2."""
    terms = np.empty((1 if dz is None else 3, len(cells)))
    p = terms[0]
    np.square(np.abs(cells, p), p)
    if dz is not None:
        np.multiply(np.multiply(p, dz, terms[1]), dz, terms[2])
    return terms


def _run_sums(cells: np.ndarray, n: int, cutoff: int, moments: bool = True) -> np.ndarray:
    """sum p and, with ``moments``, sum p dz and sum p dz^2 over ``cells``, sector ``n``
    of a ``cutoff`` grid."""
    low = n - cutoff if n > cutoff else 0
    dz = np.arange(2 * low - n, 2 * (low + len(cells)) - n, 2, dtype=float) if moments else None
    return np.add.reduce(_terms(cells, dz), 1)


def _sector_table(state: FockState, moments: bool = True) -> _SectorTable:
    """The sums of every sector of :func:`mzi_qfi.fock.occupied_sectors`, in one walk.

    A state that holds the cells of its sector is read from them. A grid's
    sectors are gathered about ``TABLE_ROWS`` rows' worth of cells at a time,
    each sector's run after a slot of its own whose terms are set to 0.0, so
    that one ``np.add.reduceat`` adds to that 0.0 numpy's pairwise sum of
    each run: ``np.sum``'s bits, with no Python per sector. Without
    ``moments``, the table holds the weights alone.
    """
    if state._cells is not None:
        sums = _run_sums(state._cells, state._sector, state.cutoff, moments)
        return _SectorTable(np.array([state._sector]), sums[:, None], float(sums[0]))
    flat, ns = np.ascontiguousarray(state.amplitudes).reshape(-1), np.array(occupied_sectors(state))
    runs = np.minimum(ns, state.cutoff) + 2 - np.maximum(ns - state.cutoff, 0)  # slot and cells
    starts = np.cumsum(runs) - runs
    # place q of the run from start holds j = q + low - 1 - start, the cell (j, n - j)
    # at flat place j c + n (a slot's place lies in the grid, or wraps from its end);
    # low - 1 - start is min(n, c) + 1 - (start + run)
    shifts = np.minimum(ns, state.cutoff) + 1 - (starts + runs)
    places, offsets = ns + shifts * state.cutoff, (2 * shifts - ns).astype(float)
    bounds = [0, *np.flatnonzero(np.diff(starts // (TABLE_ROWS * (state.cutoff + 1)))) + 1, len(ns)]
    sums = []
    for first, last in zip(bounds, bounds[1:]):
        run, q = runs[first:last], np.arange(starts[first], starts[last - 1] + runs[last - 1])
        dz = 2.0 * q + np.repeat(offsets[first:last], run) if moments else None  # 2 j - n
        terms = _terms(flat.take(q * state.cutoff + np.repeat(places[first:last], run)), dz)
        slots = starts[first:last] - starts[first]
        terms[:, slots] = 0.0
        sums.append(np.add.reduceat(terms, slots, axis=1))
    sums = np.concatenate(sums, axis=1)
    return _SectorTable(ns, sums, float(np.cumsum(sums[0])[-1]))


def _statistics(n, weight, first, second) -> tuple:
    """(mean, var, cov, f_particle, witness) of sectors of n >= 1 photons from their sums.

    Elementwise, for numbers or arrays alike. With <x> = sum p x / w and
    dz = 2 Jz on each ket, the bridge gives <sigma_z> = <dz>/n and
    <sigma_z sigma_z> = (<dz^2> - n)/(n(n-1)). A sector of one photon has no
    pairs, and its covariance is 0 by convention (the + 0.0 turns the -0.0 of
    a negative times False into 0.0).
    """
    pairs, mean = n * (n - 1), first / weight / n
    cov = ((second / weight - n) / (pairs + (pairs == 0)) - mean**2) * (pairs > 0) + 0.0
    var = 1.0 - mean**2  # sigma_z^2 is the identity on a qubit
    return mean, var, cov, n * var + pairs * cov, pairs * cov > ROUTE_ROUNDOFF * n * n


def decompose_sectors(state: FockState) -> SectorDecomposition:
    """Project onto each occupied total-photon-number anti-diagonal and renormalize.

    Each kept sector holds only its anti-diagonal, the vector of amplitudes
    on |k, n-k>, so a decomposition costs O(cutoff^2) time and memory in
    all. The weights are those of the sector table, or, for a state that
    holds the cells of its one sector, that sector's weight with no table
    around it; each sector is then read through
    :func:`mzi_qfi.fock.state_cells`, so a state that holds the cells of its
    sector reads them, with no scan and no grid. ``occupied`` is the number
    of sectors in the table.
    """
    if state._cells is not None:  # the one sector a state holds: its weight, with no table
        weights = _run_sums(state._cells, state._sector, state.cutoff, False).tolist()
        ns, weights_sum = [state._sector], weights[0]
    else:
        table = _sector_table(state, moments=False)
        ns, weights, weights_sum = table.n.tolist(), table.sums[0].tolist(), table.weights_sum
    sectors = []
    for n, weight, cells in zip(ns, weights, state_cells(state, ns)):
        if weight >= WEIGHT_FLOOR:
            coeffs = cells / math.sqrt(weight)
            coeffs.flags.writeable = False
            sectors.append(Sector(n, weight, coeffs, min(n, state.cutoff)))
    return SectorDecomposition(sectors, weights_sum, len(ns))


#: Weight outside its dominant sector above which :func:`particle_moments`
#: rejects a state that does not know its sector.
SECTOR_SUPPORT_TOL = 1e-12


def sector_moments(sector: Sector) -> ParticleReport:
    """Pauli statistics of one sector of a decomposition, in O(n): those of ``Sector.state``."""
    return particle_moments(sector.state, sector.n)


def particle_moments(sector_state: FockState, n: int) -> ParticleReport:
    """Pauli statistics of a state confined to photon-number sector ``n``.

    A state that holds the cells of its sector (``FockState._sector``) is
    taken at its word, and read from its at most n + 1 cells. Any other state
    is read through its sector table, and its dominant sector is its sector
    once all but ``SECTOR_SUPPORT_TOL`` of its weight lies there. That sector
    must be ``n``. Both read the same sums of the same cells.
    """
    if n < 1:
        raise ParameterError(f"particle statistics need n >= 1, got {n}")
    actual = sector_state._sector
    if actual is None:
        table = _sector_table(sector_state)
        top = int(np.argmax(table.sums[0]))
        actual, sums = int(table.n[top]), table.sums[:, top].tolist()
        off = table.weights_sum - sums[0]
        if off > SECTOR_SUPPORT_TOL:
            raise SectorSupportError(f"state carries weight {off:.3e} outside photon-number "
                                     f"sector {actual}; decompose into sectors first")
    else:
        sums = _run_sums(sector_state._cells, actual, sector_state.cutoff).tolist()
    if actual != n:
        raise SectorSupportError(f"state occupies sector {actual}, not the requested {n}")
    return ParticleReport(n, *_statistics(n, *sums))


def qfi_particle(decomp: Union[SectorDecomposition, _SectorTable]) -> Optional[float]:
    """Particle-picture phase information, defined only at fixed photon number.

    ``decomp`` is a decomposition or a sector table. Returns ``None`` when
    the state has particle-number fluctuations, that is when it occupies
    more than one photon-number sector
    (:meth:`SectorDecomposition.fixed_n_sector`); F = n Var[sigma_z] +
    n(n-1) Cov[sigma_z, sigma_z] holds only at exactly fixed n. The vacuum
    reads 0. Per-sector reports remain available through :func:`sector_moments`.
    """
    if isinstance(decomp, SectorDecomposition):  # the table of its one sector, if it has one
        decomp = _sector_table(decomp.sectors[0].state) if decomp.occupied == 1 else None
    if decomp is None or len(decomp.n) != 1:
        return None
    n = int(decomp.n[0])
    return _statistics(n, *decomp.sums[:, 0].tolist())[3] if n else 0.0
