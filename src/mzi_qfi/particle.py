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
BLAS. One walk of chunks of sectors (:func:`_walk_sectors`) sums them, from
the rows of :func:`mzi_qfi.fock.state_rows`, however the state is held: a
state that holds the cells of its one sector is a walk of one chunk. One
elementwise formula (:func:`_statistics`) turns those sums into the Pauli
statistics of the CLI's sector documents and sweep rows, of
:func:`qfi_particle`, :func:`sector_moments` and :func:`particle_moments`.

:func:`decompose_sectors` takes its weights from the table, then walks the
kept sectors once more: it divides their cells by the roots of their
weights into one array, checks each one's norm and takes its sums there.
Each ``Sector`` keeps its sums, and so does each state ``Sector.state``
makes: :func:`particle_moments` reads the sums a state carries, or else
the state's table, so ``particle_moments(s.state, s.n)`` reads no cell.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from dataclasses import dataclass
from typing import ClassVar, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .errors import ParameterError, SectorSupportError
from .fock import (
    ROUTE_ROUNDOFF,
    FockState,
    _check_norms,
    _levels,
    _sector_spans,
    occupied_sectors,
    sector_kets,
    state_rows,
)

#: Sector weights below this are dropped from decompositions.
WEIGHT_FLOOR = 1e-14

#: Rows' worth of cells, (cutoff + 1) each, that one chunk of a walk of a
#: state's sectors (:func:`_walk_sectors`) gathers at most, up to cutoff
#: ``SHARE_CUTOFF``, and past it the same share of the grid's cells. A
#: chunk's temporaries come to 24 bytes a cell, so a walk of a cutoff-300
#: grid peaks near a tenth of a grid. :func:`decompose_sectors`' walk of its
#: kept sectors takes 32 bytes a cell, the complex division's buffer
#: included, beside the array of kept cells it fills, and so ``KEPT_ROWS``.
TABLE_ROWS = 18
KEPT_ROWS = 5
SHARE_CUTOFF = 300


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
    _sums: ClassVar[Optional[Tuple[float, float, float]]] = None

    @classmethod
    def _kept(cls, n: int, weight: float, coeffs: np.ndarray, cutoff: int,
              sums: Tuple[float, float, float]) -> "Sector":
        """A sector of :func:`decompose_sectors`, whose ``coeffs`` have passed the norm check
        on ``sums``, the sums p, p dz and p dz^2 of :func:`_walk_sectors` over them."""
        sector = object.__new__(cls)
        held = sector.__dict__
        held["n"], held["weight"], held["coeffs"], held["cutoff"], held["_sums"] = (
            n, weight, coeffs, cutoff, sums)
        return sector

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
        no grid until its ``amplitudes`` are read, so its number moments and
        :func:`particle_moments` cost O(n). Each access makes a new state
        around the same read-only ``coeffs``, so a grid one caller reads is
        not kept by the sector. A sector of :func:`decompose_sectors` passed
        its norm check there, and its state carries the sums it took
        (``FockState._sums``), with no second pass over the cells; any other
        sector's state is checked by ``FockState._from_cells``.
        """
        if self._sums is None:
            return FockState._from_cells(self.coeffs, self.n, self.cutoff)
        return FockState._from_summed_cells(self.coeffs, self.n, self.cutoff, self._sums)


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


def _chunk_bounds(lows: List[int], highs: List[int], cells: int) -> List[int]:
    """Where the chunks of a walk of sectors, ascending, whose runs span j = ``lows`` up to
    ``highs`` begin, then their count.

    Each chunk takes the most sectors, at least one, whose rectangle of
    :func:`_walk_sectors`, a row for each, ``highs[last] - lows[first]``
    wide, holds at most ``cells`` cells; its area grows with each sector.
    """
    bounds = [0]
    while bounds[-1] < len(lows):
        first, low = bounds[-1], lows[bounds[-1]]
        taken = bisect_right(range(first + 1, len(lows) + 1), cells,
                             key=lambda last: (last - first) * (highs[last - 1] - low))
        bounds.append(first + max(1, taken))
    return bounds


def _walk_sectors(state: FockState, ns: np.ndarray, moments: bool = True,
                  roots: Optional[np.ndarray] = None, out: Optional[np.ndarray] = None,
                  spans: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> np.ndarray:
    """The sums of sectors ``ns``, ascending, of ``state``, one column each.

    The sectors are read in chunks, each in one gather of a rectangle of
    the state's rows by photon number (:func:`mzi_qfi.fock.state_rows`). A
    rectangle takes a row for each sector, and the columns from its first
    sector's first j to its last sector's last j, the most of any. The one
    row of a state that holds the cells of its sector is one chunk of one
    run. Its terms are laid out flat after a first term of 0.0. The place
    before each run then holds a term of no run: that first term, the last
    of the row before, or one of the run's own row outside its span. Those
    places' terms are set to 0.0, so that one ``np.add.reduceat`` from each
    of them to the end of its run adds to 0.0 numpy's pairwise sum of the
    run: ``np.sum``'s bits, with no Python per sector. The cells of other
    sectors that the rectangle takes beside each run are fewer the more
    alike its sectors' spans are. Without ``moments``, the sums are sum p
    alone.

    With ``roots``, each sector's cells are first divided by its root in
    complex arithmetic, with the bits of ``cells / root``, and copied into
    ``out``, one run after another. ``spans`` are the caller's
    :func:`mzi_qfi.fock._sector_spans` of ``ns``, if it took them.

    A chunk takes at most ``TABLE_ROWS`` rows' worth of cells, or with
    ``roots``, ``KEPT_ROWS``; past cutoff ``SHARE_CUTOFF``, the same share of
    the grid.
    """
    cutoff = state.cutoff
    sectors, n0, j0 = state_rows(state)  # rows from photon number n0, columns from j = j0
    if len(sectors) == 1:  # one sector's row: one chunk, whose one run starts at the first term
        counts = [sectors.shape[1]]
        bounds, lefts, widths, edges = [0, 1], [0], counts, np.array([0, counts[0] + 1])
    else:
        lows, counts = _sector_spans(ns, cutoff) if spans is None else spans
        lows = lows - j0
        highs = lows + counts
        rows = TABLE_ROWS if roots is None else KEPT_ROWS
        largest = rows * (cutoff + 1) * max(cutoff + 1, SHARE_CUTOFF + 1) // (SHARE_CUTOFF + 1)
        bounds = _chunk_bounds(lows.tolist(), highs.tolist(), largest)
        firsts, lasts = np.array(bounds[:-1], dtype=int), np.array(bounds[1:], dtype=int)
        lefts, widths = lows[firsts], highs[lasts - 1] - lows[firsts]
        chunk = np.repeat(np.arange(len(firsts)), lasts - firsts)
        # each run's slot, read flat in its chunk's terms, then the end of the run
        slots = (np.arange(len(ns)) - firsts[chunk]) * widths[chunk] + lows - lefts[chunk]
        edges = np.stack((slots, slots + counts + 1), axis=1).reshape(-1)
        lefts, widths, counts = lefts.tolist(), widths.tolist(), counts.tolist()
    picked, sums = ns - n0, np.empty((3 if moments else 1, len(ns)))
    if moments:
        twice, rows_n = 2.0 * _levels(cutoff + 1)[0][j0:], ns[:, None]  # 2 j, and n
    if roots is not None:  # and where each sector's cells start in ``out``
        divisors, placed = roots[:, None], list(accumulate(counts, initial=0))
    for first, last, left, width in zip(bounds, bounds[1:], lefts, widths):
        cells = sectors[picked[first:last], left : left + width]
        runs = edges[2 * first : 2 * last]  # slot, end, slot, end, ...
        if roots is not None:
            np.divide(cells, divisors[first:last], out=cells)
            flat = cells.reshape(-1)  # a run's first cell is at its slot
            np.concatenate([flat[slot : end - 1] for slot, end in runs.reshape(-1, 2).tolist()],
                           out=out[placed[first] : placed[last]])
            del flat
        p = np.empty(cells.size + 1)
        terms = p[1:]
        np.abs(cells.reshape(-1), out=terms)
        del cells
        np.square(terms, out=terms)
        p[runs[::2]] = 0.0
        runs = runs[:-1]  # the last run ends the terms
        sums[0, first:last] = np.add.reduceat(p, runs)[::2]
        if moments:
            dz = np.subtract(twice[left : left + width], rows_n[first:last]).reshape(-1)  # 2 j - n
            np.multiply(terms, dz, out=terms)
            sums[1, first:last] = np.add.reduceat(p, runs)[::2]
            np.multiply(terms, dz, out=terms)
            sums[2, first:last] = np.add.reduceat(p, runs)[::2]
        p = terms = dz = None  # before the next chunk's cells
    return sums


def _sector_table(state: FockState, moments: bool = True) -> _SectorTable:
    """The sums of every sector of :func:`mzi_qfi.fock.occupied_sectors`, in one walk
    (:func:`_walk_sectors`). Without ``moments``, the table holds the weights alone."""
    ns = np.array(occupied_sectors(state))
    sums = _walk_sectors(state, ns, moments)
    return _SectorTable(ns, sums, float(sums[0].cumsum()[-1]))


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
    all. Its weights are those of its sector table, taken without moments.
    A second walk, of the kept sectors alone, divides each one's cells by
    the root of its weight, with the bits of ``cells / math.sqrt(weight)``,
    into one read-only array of kept cells, of which each ``Sector.coeffs``
    is a view, and takes the sums of the divided cells. A state that holds
    the cells of its one sector takes the same two walks, of one chunk each,
    and builds no grid. Each kept sector's sum of p passes the norm check of
    ``FockState._from_cells`` here, and the sector keeps its sums for the
    states ``Sector.state`` makes. ``occupied`` is the number of sectors in
    the table.
    """
    cutoff = state.cutoff
    table = _sector_table(state, moments=False)
    kept = table.sums[0] >= WEIGHT_FLOOR
    ns, weights = table.n[kept], table.sums[0, kept]
    spans = _sector_spans(ns, cutoff)
    ends = spans[1].cumsum()
    coeffs = np.empty(int(ends[-1]), dtype=np.complex128)
    sums = _walk_sectors(state, ns, roots=np.sqrt(weights).astype(complex), out=coeffs,
                         spans=spans)
    _check_norms(sums[0])
    coeffs.flags.writeable = False
    sectors = [Sector._kept(n, weight, coeffs[start:end], sector_cutoff, kept_sums)
               for n, weight, start, end, sector_cutoff, kept_sums
               in zip(ns.tolist(), weights.tolist(), [0, *ends[:-1].tolist()], ends.tolist(),
                      np.minimum(ns, cutoff).tolist(), zip(*sums.tolist()))]
    return SectorDecomposition(sectors, table.weights_sum, len(table.n))


#: Weight outside its dominant sector above which :func:`particle_moments`
#: rejects a state read through its sector table.
SECTOR_SUPPORT_TOL = 1e-12


def sector_moments(sector: Sector) -> ParticleReport:
    """Pauli statistics of one sector of a decomposition, in O(n): those of ``Sector.state``."""
    return particle_moments(sector.state, sector.n)


def particle_moments(sector_state: FockState, n: int) -> ParticleReport:
    """Pauli statistics of a state confined to photon-number sector ``n``.

    A state of a decomposed sector (``Sector.state``) carries the sums of
    its cells and its n, and is read from those. Any other state is read
    through its sector table, of one chunk of at most n + 1 cells for a state
    that holds the cells of its sector, and its dominant sector is its sector
    once all but ``SECTOR_SUPPORT_TOL`` of its weight lies there. That sector
    must be ``n``. Both read the same sums of the same cells.
    """
    if n < 1:
        raise ParameterError(f"particle statistics need n >= 1, got {n}")
    actual, sums = sector_state._sector, sector_state._sums
    if sums is None:
        table = _sector_table(sector_state)
        top = int(np.argmax(table.sums[0]))
        actual, sums = int(table.n[top]), table.sums[:, top].tolist()
        off = table.weights_sum - sums[0]
        if off > SECTOR_SUPPORT_TOL:
            raise SectorSupportError(f"state carries weight {off:.3e} outside photon-number "
                                     f"sector {actual}; decompose into sectors first")
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
    if isinstance(decomp, SectorDecomposition):
        sector = decomp.fixed_n_sector()
        return None if sector is None else sector_moments(sector).f_particle if sector.n else 0.0
    if len(decomp.n) != 1:
        return None
    n = int(decomp.n[0])
    return _statistics(n, *decomp.sums[:, 0].tolist())[3] if n else 0.0
