import importlib.util
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
