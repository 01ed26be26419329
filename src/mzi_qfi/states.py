"""Constructors for the interferometer probe-state families.

Each family is one :class:`Family` record: its name, its native parameter
(squeezing xi or chi, displacement alpha, photon count n) and that parameter's
validator, its builder, and the map from a target mean photon number to the
parameter. ``build``, the nbar solve and the CLI read only these records, so
a new family is one record here plus its published row in ``catalog.TABLE1``.

Continuous families invert their exact untruncated mean in closed form and
report the target as realized; the solve runs the cutoff search, so an
unattainable target fails there, and builds no grid. Fixed-photon-number
families round to the nearest attainable photon total.
Squeezed families use closed-form single-mode amplitudes, the two-mode squeezed
vacuum its geometric number-correlated form, coherent probes Poisson
amplitudes. A squeezed family's builder writes only the cells its vectors
fill, and ``build`` divides only those (``Family.cells``).
Fixed-photon-number families hold the cells of their one sector: a Fock
ket, noon's two cells, or a Fock ket behind the first beam splitter, which
is one eigenvector of Jx times powers of i, built in O(n) with no rotation.

Automatic cutoff selection picks the smallest per-mode cutoff whose discarded
probability is below the loss target, subject to the configurable ceiling.
That probability is each family's exact ``loss``, summed forward over the
tails of its one-mode number distributions, never ``1 - sum |psi|^2``; it falls
monotonically with the cutoff, so the search bisects on losses alone and
builds one grid, at the cutoff it picks.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, NamedTuple, Optional, Tuple, Union

import numpy as np

from .errors import ParameterError, TruncationLossError, UnattainableTargetError
from .fock import (
    FockState,
    check_addressable,
    check_truncation_loss,
    cutoff_ceiling,
    lattice_rows,
    make_fock,
)
from .schwinger import _jx_column, _overflow_error

ParamValue = Union[int, float, complex]


@dataclass(frozen=True)
class ProbeSpec:
    """A probe family plus its native parameters and cutoff policy.

    ``cutoff=None`` selects the cutoff automatically (smallest grid meeting
    the loss target); an explicit cutoff is used as given and may fail if it
    cannot hold the state.
    """

    family: str
    params: Dict[str, ParamValue] = field(default_factory=dict)
    cutoff: Optional[int] = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ParameterError(
                f"unknown family {self.family!r}; choose one of {', '.join(FAMILIES)}"
            )
        if self.cutoff is not None and self.cutoff < 0:
            raise ParameterError("explicit cutoff must be non-negative")


def _squeezing(family: Family, value: ParamValue) -> float:
    if isinstance(value, complex):
        if value.imag != 0:
            raise ParameterError(f"complex squeezing is not supported, got {family.key}={value!r}")
        value = value.real
    value = float(value)
    if not value >= 0:
        raise ParameterError(f"squeezing must be non-negative, got {family.key}={value!r}")
    return value


def _displacement(family: Family, value: ParamValue) -> complex:
    value = complex(value)
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ParameterError(f"displacement must be finite, got {family.key}={value!r}")
    if not math.isfinite(value.real * value.real + value.imag * value.imag):
        raise ParameterError(f"|{family.key}|^2 must be finite, got {family.key}={value!r}")
    return value


def _photon_count(family: Family, value: ParamValue) -> int:
    if not float(value).is_integer():
        raise ParameterError(f"family {family.name!r} needs an integer n, got {value!r}")
    n = int(value)
    if n < family.min_n:
        raise ParameterError(f"family {family.name!r} needs n >= {family.min_n}, got {n}")
    return n


# ---------------------------------------------------------------------------
# single-mode amplitude vectors (closed forms)
# ---------------------------------------------------------------------------


def squeezed_vacuum_vector(xi: float, dim: int) -> np.ndarray:
    """Amplitudes of exp(i xi (adag^2 + a^2)/2)|0> on levels 0..dim-1.

    Even levels only: c_{2m} = (i tanh xi)^m sqrt((2m)!)/(2^m m!) / sqrt(cosh xi),
    generated by the stable ratio recurrence.
    """
    v = np.zeros(dim, dtype=np.complex128)
    c = 1.0 / math.sqrt(math.cosh(xi))
    v[0] = c
    t = 1j * math.tanh(xi)
    m = 0
    while 2 * (m + 1) < dim:
        c = c * t * math.sqrt((2 * m + 1) * (2 * m + 2)) / (2 * (m + 1))
        m += 1
        v[2 * m] = c
    return v


def squeezed_one_vector(xi: float, dim: int) -> np.ndarray:
    """Amplitudes of the squeezer applied to |1>, via S adag Sdag = cosh adag + i sinh a."""
    v0 = squeezed_vacuum_vector(xi, dim + 1)
    levels = np.arange(dim, dtype=float)
    raised = np.zeros(dim, dtype=np.complex128)
    raised[1:] = np.sqrt(levels[1:]) * v0[: dim - 1]
    lowered = np.sqrt(levels + 1) * v0[1 : dim + 1]
    return math.cosh(xi) * raised + 1j * math.sinh(xi) * lowered


def coherent_vector(beta: complex, dim: int) -> np.ndarray:
    """Poisson amplitudes of |beta> on levels 0..dim-1.

    They run forward from e^{-|beta|^2/2}. Past |beta| of about 37.6 that
    start is no longer a normal float, and past 38.6 it is 0, so there each
    amplitude is taken on its own: the square root of the Poisson
    probability of n at mean |beta|^2, from its logarithm, times
    e^{i n arg(beta)}.
    """
    v = np.zeros(dim, dtype=np.complex128)
    c = math.exp(-abs(beta) ** 2 / 2)
    if c < sys.float_info.min:
        mu, theta = _intensity(beta), math.atan2(beta.imag, beta.real)
        for n in range(dim):
            r = math.exp(_log_poisson(n, mu) / 2)
            v[n] = complex(r * math.cos(n * theta), r * math.sin(n * theta))
        return v
    v[0] = c
    for n in range(1, dim):
        c = c * beta / math.sqrt(n)
        v[n] = c
    return v


# ---------------------------------------------------------------------------
# one-mode tails: the probability a mode holds above the cutoff
# ---------------------------------------------------------------------------

# log(n!) - [(n + 1/2) log n - n + log(2 pi)/2] for n = 0..15, from the exact
# factorials; larger n take the asymptotic series
_SMALL_STIRLING = (0.0,) + tuple(
    math.log(math.factorial(n)) - (n + 0.5) * math.log(n) + n - 0.5 * math.log(2 * math.pi)
    for n in range(1, 16)
)


def _stirling_error(n: int) -> float:
    """The Stirling-formula error of log(n!) (Loader 2000)."""
    if n < 16:
        return _SMALL_STIRLING[n]
    nn = n * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn)) / nn) / nn) / nn) / n


def _poisson_deviance(n: int, mu: float) -> float:
    """n log(n/mu) + mu - n for n >= 1 (Loader's bd0).

    Near the mean it is the series d v + 2n (v^3/3 + v^5/5 + ...) in
    v = d/(n + mu), d = n - mu, whose terms all share the sign of d: the
    direct form would cancel most of its digits there.
    """
    d = n - mu
    v = d / (n + mu)
    if abs(v) >= 0.5:
        return n * math.log(n / mu) - d
    total, power, v2, j = d * v, 2 * n * v, v * v, 3
    while True:
        power *= v2
        step = power / j
        if abs(step) <= 1e-17 * abs(total):
            return total
        total += step
        j += 2


def _log_poisson(n: int, mu: float) -> float:
    """log of the Poisson probability of n at mean mu > 0 (Loader 2000: no two terms cancel)."""
    if n == 0:
        return -mu
    return -_stirling_error(n) - _poisson_deviance(n, mu) - 0.5 * math.log(2 * math.pi * n)


def _log_tanh(x: float) -> float:
    # log1p keeps the digits of tanh x = 1 - 2q/(1 + q), q = e^{-2x}, near 1
    if x == 0:
        return -math.inf
    if x < 0.5:
        return math.log(math.tanh(x))
    q = math.exp(-2 * x)
    return math.log1p(-2 * q / (1 + q))


def _log_cosh(x: float) -> float:
    return x + math.log1p(math.exp(-2 * x)) - math.log(2)


def _first_live_chunk(log_prob: Callable[[int], float], bound: Callable[[int], float],
                      start: int, stop: int) -> int:
    """The first 64-term chunk start of a head from ``start`` to ``stop`` that may add to it.

    A chunk whose first term is at most 1e-300 adds exactly 0, so the chunks
    before the first one that starts above it, or at or past the mode
    (``bound`` at most 1), are skipped; ``stop`` if every chunk adds 0. Each
    distribution here is unimodal with ratios that do not rise past the mode,
    so that test holds from one chunk on and a bisection finds it, looking at
    about log2 of the number of chunks instead of each.
    """
    lo, hi = -1, -(-(stop - start) // 64)  # chunk hi, the stop, counts as live
    while hi - lo > 1:
        mid = (lo + hi) // 2
        k = start + 64 * mid
        if bound(k) <= 1 or math.exp(log_prob(k)) > 1e-300:
            hi = mid
        else:
            lo = mid
    return min(start + 64 * hi, stop)


def _series(log_prob: Callable[[int], float], ratio: Callable[[np.ndarray], np.ndarray],
            start: int, stop: Optional[int], bound: Callable[[int], float]) -> float:
    """sum_{start <= k < stop} p_k, or to infinity for ``stop=None``.

    Each chunk starts from its own log-domain term and multiplies the ratios
    p_{k+1}/p_k forward from it, so rounding never runs far. An unbounded sum
    takes its first chunk long enough for the ratio bound at ``start`` to
    decay by e^-41, and stops once ``bound(k)``, a bound on every ratio from
    k on, caps what is left below 1e-17 of the sum.

    A sum with a finite ``stop`` is a head of :func:`_tail`. It starts at
    :func:`_first_live_chunk`, on the boundary the chunks from ``start``
    would reach, and returns once it reaches one half, a head that
    :func:`_tail` discards; so every head below one half keeps its bits.
    """
    total, size, rho = 0.0, 64, bound(start)
    if stop is None and 0 < rho < 1:
        size = min(max(64, int(41 / -math.log(rho))), 1 << 16)
    if stop is not None:
        start = _first_live_chunk(log_prob, bound, start, stop)
    while stop is None or (start < stop and total < 0.5):
        end = start + size if stop is None else min(start + size, stop)
        term, last = math.exp(log_prob(start)), 0.0
        # a chunk that starts below 1e-300 stays negligible, and its ratio
        # products could overflow
        if term > 1e-300:
            products = np.cumprod(ratio(np.arange(start, end - 1, dtype=float)))
            total += term * (1.0 + float(products.sum()))
            last = term * (products[-1] if products.size else 1.0)
        if stop is None:
            rho = bound(end - 1)
            if rho < 1 and last * rho / (1 - rho) <= 1e-17 * total:
                break
            size *= 2
        start = end
    return total


def _tail(log_prob: Callable[[int], float], ratio: Callable[[np.ndarray], np.ndarray],
          bound: Callable[[int], float], first: int, light: bool) -> float:
    """Probability of the indices >= ``first`` of a distribution on 0, 1, 2, ...

    The tail is summed forward. When it may hold more than half the mass
    (``light`` false, from a bound on the mean), the head is summed first;
    if that holds less than half, the tail is 1 - head, which cancels no
    digits and needs no walk through a tail that barely decays.
    """
    if not light:
        head = _series(log_prob, ratio, 0, first, bound)
        if not head >= 0.5:  # a NaN head is returned, not looped on
            return 1.0 - head
    return _series(log_prob, ratio, first, None, bound)


def _squeezed_tail(xi: float, first: int, photon: int) -> float:
    """Probability of m >= ``first`` pairs in a squeezed vacuum (photon=0) or photon (1).

    Level 2m + photon has probability (2m choose m) (tanh^2 xi / 4)^m
    (2m + 1)^photon / cosh^(2 photon + 1) xi, taken in the log domain so
    that no cosh overflows. Its mean m is (1 + 2 photon) sinh^2 xi / 2.
    """
    if xi == 0:
        return float(first == 0)
    log_t2, log_cosh, t2 = 2 * _log_tanh(xi), _log_cosh(xi), math.tanh(xi) ** 2

    def log_prob(m: int) -> float:
        log_p = photon * math.log(2 * m + 1) - (2 * photon + 1) * log_cosh
        if m == 0:
            return log_p
        central = _stirling_error(2 * m) - 2 * _stirling_error(m) - 0.5 * math.log(math.pi * m)
        return log_p + central + m * log_t2

    # the vacuum's ratios t2 (2m+1)/(2m+2) rise to t2; the photon's t2 (2m+3)/(2m+2) fall
    ratio = lambda m: t2 * (m + (0.5 + photon)) / (m + 1)
    bound = lambda m: t2 * (1 + photon / (2 * m + 2))
    light = first >= (1 + 2 * photon) * math.sinh(min(xi, 350.0)) ** 2  # Markov: tail <= 1/2
    return _tail(log_prob, ratio, bound, first, light)


def _poisson_tail(mu: float, first: int) -> float:
    """Probability of n >= ``first`` in a Poisson distribution of mean ``mu``."""
    if mu == 0:
        return float(first == 0)

    ratio = lambda n: mu / (n + 1)
    # the median lies below mu + 1/3, so a tail from above mu + 4/3 holds under half
    return _tail(functools.partial(_log_poisson, mu=mu), ratio, ratio, first, first >= mu + 4 / 3)


# ---------------------------------------------------------------------------
# family grid builders and their exact truncation losses
#
# Each builder allocates its grid before its vectors, so a grid that no
# memory holds is refused before their O(cutoff) work.
# ---------------------------------------------------------------------------


def _either(t0: float, t1: float) -> float:
    """1 - (1 - t0)(1 - t1): the chance that either of two independent tails is hit.

    Small tails are added, t0 + t1 - t0 t1. From a tail of one half up,
    1 - t is exact and the product form keeps the loss monotone near 1.
    """
    if max(t0, t1) >= 0.5:
        return 1.0 - (1.0 - t0) * (1.0 - t1)
    return t0 + t1 - t0 * t1


def _loss_twin_squeezed(xi: float, cutoff: int) -> float:
    tail = _squeezed_tail(xi, cutoff // 2 + 1, 0)
    return _either(tail, tail)  # 2T - T^2


def _write_outer(cells: np.ndarray, column: np.ndarray, row: np.ndarray,
                 scale: Optional[complex] = None) -> None:
    """``cells[:] = np.outer(column, row)``, or ``scale * np.outer(column, row) + 0.0``.

    ``cells`` is a view of every other row and column of a grid. Each strip
    of :func:`mzi_qfi.fock.lattice_rows` rows is taken in a contiguous
    buffer, each product with its operands in that order, and copied into
    the view: numpy's arithmetic on the strided view itself took about
    twice as long. The ``+ 0.0`` turns a -0.0 part into 0.0, as adding the
    other term's zero cells does where a grid sums both terms over every
    cell.
    """
    step = lattice_rows(cells)
    buffer = np.empty((step, cells.shape[1]), dtype=np.complex128)
    for top in range(0, len(cells), step):
        rows = column[top : top + step, None]
        strip = np.multiply(rows, row, out=buffer[: len(rows)])
        if scale is not None:
            np.multiply(scale, strip, out=strip)
            strip += 0.0
        cells[top : top + step] = strip


def _twin_squeezed_cells(grid: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The even x even cells, the only ones the squeezed vacuum's even levels fill."""
    return (grid[::2, ::2],)


def _grid_twin_squeezed(xi: float, cutoff: int) -> np.ndarray:
    # np.outer(v, v) on its even x even cells; every other cell is 0
    grid = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    even = squeezed_vacuum_vector(xi, cutoff + 1)[::2]
    _write_outer(*_twin_squeezed_cells(grid), even, even)
    return grid


def _loss_tmsv(chi: float, cutoff: int) -> float:
    return math.exp(2 * (cutoff + 1) * _log_tanh(chi))  # tanh^{2(c+1)} chi


def _tmsv_cells(grid: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The diagonal, the cells |n, n>, as a view."""
    return (grid.reshape(-1)[:: len(grid) + 1],)


def _grid_tmsv(chi: float, cutoff: int) -> np.ndarray:
    grid = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    # the cells |n, n>, n = 0..cutoff, hold tanh^n chi / cosh chi
    np.fill_diagonal(grid, np.tanh(chi) ** np.arange(cutoff + 1) / np.cosh(chi))
    return grid


#: Arm amplitudes (u, v) of one photon behind the first splitter,
#: exp(-i pi/2 Jx)|1, 0> = u|1, 0> + v|0, 1> = (|1, 0> - i|0, 1>)/sqrt(2), with
#: the bits a rotation of |1, 0> gives them: u real, v imaginary, |v| one ulp
#: below |u|. The coherent and amplified-bell grids are built from them.
_SPLIT_PHOTON = (complex(0.7071067811865476, 0.0), complex(0.0, -0.7071067811865475))


def _intensity(alpha: complex) -> float:
    # |alpha|^2 without hypot's extra rounding: a tail term's relative error
    # is (n - |alpha|^2) times this one's
    return alpha.real**2 + alpha.imag**2


def _loss_coherent(alpha: complex, cutoff: int) -> float:
    tail = _poisson_tail(_intensity(alpha) / 2, cutoff + 1)  # each arm holds |alpha|^2/2
    return _either(tail, tail)


def _grid_coherent(alpha: complex, cutoff: int) -> np.ndarray:
    # Probe inside the interferometer for coherent light injected into port a:
    # the splitter maps |alpha, 0> to the product |u alpha, v alpha>.
    u, v = _SPLIT_PHOTON
    grid = np.empty((cutoff + 1, cutoff + 1), dtype=np.complex128)
    a, b = coherent_vector(u * alpha, cutoff + 1), coherent_vector(v * alpha, cutoff + 1)
    return np.outer(a, b, out=grid)


def _loss_entangled_coherent(alpha: complex, cutoff: int) -> float:
    # the branches lose disjoint cells, (j > c, 0) and (0, k > c), each the
    # Poisson tail T: 2T / (2(1 + e^{-|alpha|^2}))
    x = _intensity(alpha)
    return _poisson_tail(x, cutoff + 1) / (1.0 + math.exp(-x))


def _grid_entangled_coherent(alpha: complex, cutoff: int) -> np.ndarray:
    # (|alpha,0> + |0,alpha>)/sqrt(2(1 + e^{-|alpha|^2})), normalized exactly
    # including the vacuum overlap of the two branches.
    grid = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    v = coherent_vector(alpha, cutoff + 1)
    grid[:, 0] += v
    grid[0, :] += v
    grid /= math.sqrt(2.0 * (1.0 + math.exp(-abs(alpha) ** 2)))
    return grid


def _loss_amplified_bell(xi: float, cutoff: int) -> float:
    # the squeezed vacuum holds even levels and the squeezed photon odd ones,
    # so the two terms share no cell and |u|^2 + |v|^2 = 1: T0 + T1 - T0 T1,
    # with no cross term
    t0 = _squeezed_tail(xi, cutoff // 2 + 1, 0)
    t1 = _squeezed_tail(xi, (cutoff + 1) // 2, 1)
    return _either(t0, t1)


def _amplified_bell_cells(grid: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The odd x even and even x odd cells, the only ones u|1,0> + v|0,1> squeezed fills."""
    return grid[1::2, ::2], grid[::2, 1::2]


def _grid_amplified_bell(xi: float, cutoff: int) -> np.ndarray:
    # Per-mode squeezers on the split single photon u|1,0> + v|0,1>, expanded
    # term by term so the closed-form squeezed vectors keep full precision:
    # u np.outer(v1, v0) + v np.outer(v0, v1). The squeezed vacuum v0 holds
    # even levels and the squeezed photon v1 odd ones, so the first term
    # fills the odd x even cells and the second the even x odd ones, each
    # product with its operands in that order; every other cell is 0
    u, v = _SPLIT_PHOTON
    grid = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    even = squeezed_vacuum_vector(xi, cutoff + 1)[::2]
    odd = squeezed_one_vector(xi, cutoff + 1)[1::2]
    odd_even, even_odd = _amplified_bell_cells(grid)
    _write_outer(odd_even, odd, even, u)
    _write_outer(even_odd, even, odd, v)
    return grid


@functools.lru_cache(maxsize=64)
def _auto_cutoff(family: Family, value: ParamValue, ceiling: int) -> Tuple[int, float]:
    """Smallest cutoff with a continuous family's loss at a checked value below
    ``AUTO_LOSS_TARGET``, and that loss, by bisection.

    The loss falls monotonically with the cutoff, so one look at the ceiling
    decides whether the target can be met at all. The search is a pure
    function of its arguments, so it is kept, and this cache is what makes
    solving for a target nbar and then building the parameters found one
    search; a changed ``MZI_QFI_CUTOFF_CEILING`` is a new search.
    """
    loss_at = functools.partial(family.loss, value)
    loss = loss_at(ceiling)
    if not loss < AUTO_LOSS_TARGET:
        raise TruncationLossError(
            f"cutoff ceiling {ceiling} leaves truncation loss {loss:.3e} "
            f"above the {AUTO_LOSS_TARGET:.1e} target"
        )
    lo, hi = -1, ceiling
    while hi - lo > 1:
        mid = (lo + hi) // 2
        mid_loss = loss_at(mid)
        if mid_loss < AUTO_LOSS_TARGET:
            hi, loss = mid, mid_loss
        else:
            lo = mid
    return hi, loss


#: i^t for t = 0..3.
_QUARTER_TURNS = np.array([1, 1j, -1, -1j])


def _split_fock(j: int, k: int, cutoff: int) -> FockState:
    """exp(-i pi/2 Jx)|j, k>, j >= k: a Fock ket behind the first splitter, from one Jx eigenvector.

    Jx is Jy turned by Rz(-pi/2), so the splitter is Rz(-pi/2) exp(-i pi/2 Jy)
    Rz(pi/2). It maps |j, k>, whose Jz eigenvalue is m0 = (j - k)/2, to
    i^(q - j) d_{m,m0}(pi/2) on each ket |q, n - q> of its sector n = j + k,
    with m = q - n/2 and d Wigner's real rotation matrix: Krawtchouk
    amplitudes (Campos, Saleh & Teich, PRA 40, 1371, 1989). Column m0 >= 0 of
    d(pi/2) is the eigenvector of Jx for m0 whose entry at q = 0 is positive,
    :func:`mzi_qfi.schwinger._jx_column`'s. No rotation is made.

    The splitter keeps n, so a grid whose cutoff lies below n holds none of
    the result: that raises as a rotation of the ket would, once the ket
    itself fits the grid.
    """
    n = j + k
    if n > cutoff:
        make_fock(j, k, cutoff)  # raises for a ket outside the grid
        raise _overflow_error(1.0, cutoff)
    vector = _jx_column(n, (j - k - n % 2) // 2)
    turns = (np.arange(n + 1) - j) & 3
    return FockState._from_cells(vector * _QUARTER_TURNS.take(turns), n, cutoff)


def _noon_state(n: int, cutoff: int) -> FockState:
    if n > cutoff:
        raise ParameterError(f"cutoff {cutoff} cannot hold a {n}-photon branch")
    cells = np.zeros(n + 1, dtype=np.complex128)  # |k, n-k> for k = 0..n
    cells[n] = cells[0] = 1 / math.sqrt(2)
    return FockState._from_cells(cells, n, cutoff)


#: Loss target for automatic cutoff selection. Tighter than the construction
#: ceiling because second moments amplify tail mass by the squared cutoff, and
#: reported quantities must be stable to 1e-8 under cutoff doubling.
AUTO_LOSS_TARGET = 1e-14


# ---------------------------------------------------------------------------
# solving native parameters from a target mean photon number
# ---------------------------------------------------------------------------


def _squeezing_for_nbar(pairs: float) -> float:
    """xi with sinh^2 xi = pairs."""
    return math.asinh(math.sqrt(pairs))


def _amplified_bell_xi(nbar: float) -> float:
    """xi with 1 + 4 sinh^2 xi = nbar; the bare split photon already carries one."""
    if nbar < 1:
        raise UnattainableTargetError(
            f"family 'amplified-bell' cannot reach mean photon number {nbar!r} (minimum is 1)"
        )
    return _squeezing_for_nbar((nbar - 1) / 4)


def _entangled_coherent_alpha(nbar: float) -> float:
    """|alpha| with x / (1 + e^{-x}) = nbar for x = |alpha|^2, by bisection.

    The mean is increasing in x and lies in [x/2, x), so x is bracketed by
    [nbar, 2 nbar]; halving runs until the bracket holds no float between
    its ends. Where the bracket overflows, e^{-x} cannot move the mean off x.
    """
    lo, hi = nbar, 2.0 * nbar
    if lo + hi == math.inf:
        return math.sqrt(nbar)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return math.sqrt(hi)
        if mid / (1.0 + math.exp(-mid)) < nbar:
            lo = mid
        else:
            hi = mid


def _nearest_count(family: Family, nbar: float) -> int:
    """n whose photon total, linear in n, is nearest the target.

    The smallest n holding a photon also serves targets down to half a photon
    below its total.
    """
    offset = family.photons(0)
    n_min = family.min_n if family.photons(family.min_n) > 0 else family.min_n + 1
    n_exact = (nbar - offset) / (family.photons(1) - offset)
    if n_exact < n_min - 0.5:
        raise UnattainableTargetError(
            f"family {family.name!r} cannot reach mean photon number {nbar!r} "
            f"(minimum is {family.photons(n_min):g})"
        )
    return max(int(round(n_exact)), n_min)


def solve_param_for_nbar(family: str, nbar: float) -> Tuple[Dict[str, ParamValue], float]:
    """Parameters hitting the target mean photon number, plus the realized value.

    Continuous families invert their exact untruncated mean (2 sinh^2 xi,
    2 sinh^2 chi, 1 + 4 sinh^2 xi, |alpha|^2, |alpha|^2 / (1 + e^{-|alpha|^2}))
    and report the target, which that inverse meets to rounding. They still
    run the cutoff search, with no grid, so a state that does not fit under
    the cutoff ceiling raises ``TruncationLossError`` here, and ``build``
    finds the search kept. Integer families round to the nearest attainable
    value and report it.
    """
    if family not in _BY_NAME:
        raise ParameterError(f"unknown family {family!r}")
    if not nbar > 0:
        raise UnattainableTargetError(f"target mean photon number must be positive, got {nbar!r}")
    if nbar == math.inf:
        raise UnattainableTargetError(f"target mean photon number must be finite, got {nbar!r}")
    record = _BY_NAME[family]
    if record.photons is not None:
        n = _nearest_count(record, nbar)
        return {"n": n}, float(record.photons(n))
    param = record.param_for_nbar(nbar)
    _auto_cutoff(record, record.check(record, param), cutoff_ceiling())  # the key ``build`` asks
    return {record.key: param}, float(nbar)


def build_for_nbar(
    family: str, nbar: float, cutoff: Optional[int] = None
) -> Tuple[FockState, Dict[str, ParamValue], float]:
    """Solve for the target and build, returning the state, parameters and realized nbar.

    The state is ``build``'s from the solved parameters. Without an explicit
    cutoff its search is the solve's, kept by ``_auto_cutoff``, so the call
    searches once; with one the solve still runs (and can still fail) first.
    """
    params, realized = solve_param_for_nbar(family, nbar)
    return build(ProbeSpec(family, params, cutoff)), params, realized


# ---------------------------------------------------------------------------
# the family registry
# ---------------------------------------------------------------------------


class Family(NamedTuple):
    """How to build one probe family and solve its parameter from a target nbar.

    ``key`` names the native parameter and ``check(family, value)`` validates
    it. A fixed-photon-number family builds with ``state(n, cutoff)``, exact
    at any cutoff that holds it; ``photons(n)`` is the total photon number of
    that state, and the cutoff ``build`` gives it by default, and ``min_n``
    the smallest n it builds. A continuous family gives ``grid(value,
    cutoff)``, the unnormalized grid at a cutoff; ``loss(value, cutoff)``, the
    exact probability that grid discards, summed forward over the one-mode
    tails and falling monotonically with the cutoff; and ``param_for_nbar``,
    the closed-form inverse of its untruncated mean. A family whose grid
    holds nonzero values on a few of its cells alone gives ``cells(grid)``,
    the views of the grid that its builder writes, every other cell being
    0; ``build`` divides those alone when it normalizes the grid.

    A named tuple rather than a frozen dataclass: the class is made at import,
    where the dataclass machinery would add about 1 ms to every CLI start.
    """

    name: str
    key: str
    check: Callable[[Family, ParamValue], ParamValue]
    min_n: int = 0
    photons: Optional[Callable[[int], int]] = None
    state: Optional[Callable[[int, int], FockState]] = None
    grid: Optional[Callable[[ParamValue, int], np.ndarray]] = None
    loss: Optional[Callable[[ParamValue, int], float]] = None
    param_for_nbar: Optional[Callable[[float], float]] = None
    cells: Optional[Callable[[np.ndarray], Tuple[np.ndarray, ...]]] = None


#: Every family, in the order of the benchmark table.
_REGISTRY = (
    Family("twin-squeezed-vacuum", "xi", _squeezing, grid=_grid_twin_squeezed,
           loss=_loss_twin_squeezed, param_for_nbar=lambda nbar: _squeezing_for_nbar(nbar / 2),
           cells=_twin_squeezed_cells),
    Family("twin-fock", "n", _photon_count, photons=lambda n: 2 * n,
           state=lambda n, cutoff: _split_fock(n, n, cutoff)),
    Family("entangled-coherent", "alpha", _displacement, grid=_grid_entangled_coherent,
           loss=_loss_entangled_coherent, param_for_nbar=_entangled_coherent_alpha),
    Family("noon", "n", _photon_count, min_n=1, photons=lambda n: n, state=_noon_state),
    Family("amplified-bell", "xi", _squeezing, grid=_grid_amplified_bell,
           loss=_loss_amplified_bell, param_for_nbar=_amplified_bell_xi,
           cells=_amplified_bell_cells),
    Family("fraternal-twin-fock", "n", _photon_count, photons=lambda n: 2 * n + 1,
           state=lambda n, cutoff: _split_fock(n + 1, n, cutoff)),
    Family("coherent", "alpha", _displacement, grid=_grid_coherent, loss=_loss_coherent,
           param_for_nbar=math.sqrt),
    Family("separable-coherent-probe", "n", _photon_count, photons=lambda n: n,
           state=lambda n, cutoff: _split_fock(n, 0, cutoff)),
    Family("two-mode-squeezed-vacuum", "chi", _squeezing, grid=_grid_tmsv,
           loss=_loss_tmsv, param_for_nbar=lambda nbar: _squeezing_for_nbar(nbar / 2),
           cells=_tmsv_cells),
    Family("fock-pair", "n", _photon_count, photons=lambda n: 2 * n,
           state=lambda n, cutoff: make_fock(n, n, cutoff)),
)

_BY_NAME: Dict[str, Family] = {family.name: family for family in _REGISTRY}

FAMILIES = tuple(_BY_NAME)

#: Short names the CLI accepts, in the order its help lists them.
FAMILY_ALIASES = {
    "tsv": "twin-squeezed-vacuum",
    "tmsv": "two-mode-squeezed-vacuum",
    "ecs": "entangled-coherent",
}


def resolve_family(name: str) -> Family:
    """The record of a family, by its name or one of ``FAMILY_ALIASES``."""
    return _BY_NAME[FAMILY_ALIASES.get(name, name)]


def build(spec: ProbeSpec) -> FockState:
    """Construct the normalized probe state described by ``spec``.

    A fixed-photon-number state is built at its photon total unless a cutoff
    is given. A cutoff whose grid is too large for any array raises
    ``MemoryError`` before anything is allocated.
    """
    family, params = _BY_NAME[spec.family], spec.params
    if set(params) != {family.key}:
        raise ParameterError(
            f"family {family.name!r} takes parameters {(family.key,)}, got {tuple(sorted(params))}"
        )
    value = family.check(family, params[family.key])
    if family.state is not None:
        cutoff = family.photons(value) if spec.cutoff is None else spec.cutoff
        check_addressable(cutoff)
        return family.state(value, cutoff)
    if spec.cutoff is not None:
        cutoff = spec.cutoff
        check_addressable(cutoff)
        loss = family.loss(value, cutoff)
        check_truncation_loss(loss)  # before building a grid the state cannot use
    else:
        cutoff, loss = _auto_cutoff(family, value, cutoff_ceiling())
        check_addressable(cutoff)
    grid = family.grid(value, cutoff)  # ours, so normalized in place
    return FockState._normalized(grid, loss, None if family.cells is None else family.cells(grid))
