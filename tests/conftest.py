import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from mzi_qfi import fock, particle, schwinger
from mzi_qfi.fock import FockState


ROOT = Path(__file__).resolve().parents[1]


def load_tool(name: str):
    """The script ``tools/<name>.py`` of this checkout, imported as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_two_mode_state(rng: np.random.Generator, cutoff: int, max_total: int) -> FockState:
    """Random normalized state supported on total photon number <= max_total.

    Keeping support well below the cutoff leaves headroom for raising
    operators and keeps rotations exact.
    """
    grid = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    for j in range(min(max_total, cutoff) + 1):
        for k in range(min(max_total - j, cutoff) + 1):
            grid[j, k] = rng.normal() + 1j * rng.normal()
    return FockState(grid / np.linalg.norm(grid), cutoff)


def random_direction(rng: np.random.Generator):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240917)


@pytest.fixture
def sector_reads(monkeypatch) -> list:
    """The photon numbers of the sectors ``particle`` reads and ``schwinger`` lays out, in order."""
    reads = []

    def read(state, sectors):
        reads.extend(int(n) for n in sectors)
        return fock.state_cells(state, sectors)

    def lay_out(sectors, cutoff):
        reads.extend(int(n) for n in sectors)
        return fock.sector_layout(sectors, cutoff)

    monkeypatch.setattr(particle, "state_cells", read)
    monkeypatch.setattr(schwinger, "sector_layout", lay_out)
    return reads


_SPECIAL_AMPLITUDES = {
    "zero": 0j,
    "negative-zero": complex(-0.0, -0.0),
    "underflow": 1e-170 + 0j,  # nonzero, but its square is 0
    "subnormal": complex(0.0, -5e-320),
}


@st.composite
def sparse_states(draw, max_cutoff: int = 10):
    """A normalized state on a few photon-number sectors, with corner cases.

    Cells inside an occupied sector may be exact zeros, negative zeros, or
    amplitudes whose square underflows to 0; a sector can hold nothing but
    such cells. ``above`` puts a partial sector past the cutoff: "underflow"
    and "small" (weight 1e-14) stay below the rotation's 1e-12 allowance,
    "large" (weight about 1e-6) does not.
    """
    cutoff = draw(st.integers(1, max_cutoff))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = np.zeros((cutoff + 1, cutoff + 1), dtype=np.complex128)
    special = []
    for n in draw(st.lists(st.integers(0, cutoff), min_size=1, max_size=4, unique=True)):
        ks = range(max(0, n - cutoff), min(n, cutoff) + 1)
        kinds = draw(st.lists(st.sampled_from(["normal", *_SPECIAL_AMPLITUDES]),
                              min_size=len(ks), max_size=len(ks)))
        for k, kind in zip(ks, kinds):
            if kind == "normal":
                grid[k, n - k] = complex(rng.normal(), rng.normal())
            else:
                special.append((k, n - k, _SPECIAL_AMPLITUDES[kind]))
    if not grid.any():
        grid[0, 0] = 1.0
        special = [cell for cell in special if cell[:2] != (0, 0)]
    above = draw(st.sampled_from(["none", "underflow", "small", "large"]))
    m = draw(st.integers(cutoff + 1, 2 * cutoff))
    cells = [(j, m - j) for j in range(m - cutoff, cutoff + 1)]
    if above == "large":
        grid[cells[0]] = 1e-3 * np.linalg.norm(grid)
    grid /= np.linalg.norm(grid)
    for j, k, value in special:
        grid[j, k] = value
    if above in ("underflow", "small"):
        grid[cells[-1]] = 1e-170 if above == "underflow" else 1e-7
    return FockState(grid, cutoff)


@st.composite
def sector_cell_runs(draw, max_cutoff: int = 10):
    """(cells, n, cutoff, loss): the normalized cells of one sector, n up to 2 * cutoff.

    Cells may be exact zeros, negative zeros, or amplitudes whose square
    underflows or is subnormal, as in :func:`sparse_states`.
    """
    cutoff = draw(st.integers(0, max_cutoff))
    n = draw(st.integers(0, 2 * cutoff))
    count = len(fock.sector_kets(n, cutoff))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["normal", "normal", *_SPECIAL_AMPLITUDES]),
                          min_size=count, max_size=count))
    if "normal" not in kinds:
        kinds[0] = "normal"
    normal = np.array([kind == "normal" for kind in kinds])
    cells = np.where(normal, rng.normal(size=count) + 1j * rng.normal(size=count), 0)
    cells /= np.linalg.norm(cells)
    for i, kind in enumerate(kinds):
        if kind != "normal":
            cells[i] = _SPECIAL_AMPLITUDES[kind]
    return cells, n, cutoff, draw(st.sampled_from([0.0, 3e-13]))


@st.composite
def near_sector_states(draw, max_n: int = 59):
    """A random state of one photon-number sector n plus a random remainder of weight eps.

    n = 0 gives the vacuum plus a remainder. The remainder fills every other
    cell of a grid whose cutoff lies between max(n, 1) and ``max_n``, and
    eps is drawn log-uniformly from [1e-12, 1e-6], where a weight threshold
    on the sector would call the state fixed-n.
    """
    n = draw(st.integers(0, max_n))
    cutoff = draw(st.integers(max(n, 1), max(max_n, 1)))
    eps = 10.0 ** draw(st.floats(-12.0, -6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (cutoff + 1, cutoff + 1)
    grid = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    ks = fock.sector_kets(n, cutoff)
    sector = grid[ks, n - ks].copy()
    grid[ks, n - ks] = 0
    grid *= np.sqrt(eps) / np.linalg.norm(grid)
    grid[ks, n - ks] = np.sqrt(1 - eps) * sector / np.linalg.norm(sector)
    return FockState.from_grid(grid)


def epsilon_state(eps: float) -> FockState:
    """a|2,0> + b|1,1> + a|0,2> with a^2 = 1/4 + eps/4 and b^2 = 1/2 - eps/2.

    It holds n = 2 photons with <sigma_z> = 0, so F - n = 2 eps = n(n-1)
    Cov[sigma_z]: its excess over shot noise and its witness are one quantity.
    """
    grid = np.zeros((3, 3), dtype=np.complex128)
    grid[2, 0] = grid[0, 2] = math.sqrt(0.25 + eps / 4)
    grid[1, 1] = math.sqrt(0.5 - eps / 2)
    return FockState(grid, 2)


@st.composite
def near_shot_noise_sectors(draw, max_n: int = 300):
    """A spin coherent state of n >= 2 photons plus a perturbation within its sector.

    The spin coherent state is B|n,0>, turned about the z axis by a random
    angle: a product of n particles on the equator, at exactly shot noise,
    F = n. The perturbation is a random vector of the sector of relative norm
    delta, drawn log-uniformly from [1e-17, 1e-3]. The sum is renormalized
    and held by its cells, so the particle route reads it.
    """
    n = draw(st.integers(2, max_n))
    delta = 10.0 ** draw(st.floats(-17.0, -3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probe = schwinger.beam_splitter(fock.make_fock(n, 0, n))
    probe = schwinger.apply_rotation(probe, (0.0, 0.0, 1.0), rng.uniform(0, 2 * math.pi))
    [cells] = fock.state_cells(probe, [n])
    noise = rng.normal(size=cells.size) + 1j * rng.normal(size=cells.size)
    cells = cells + delta * noise / np.linalg.norm(noise)
    return FockState._from_cells(cells / np.linalg.norm(cells), n, n)
