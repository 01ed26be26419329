"""Print the transient memory peak of each public stage, for a fixed list of probes.

For every probe and stage it prints one line:

    probe cutoff stage peak-bytes peak-grids

where the peak is the high-water mark, measured by ``tracemalloc``, of what
the stage allocates above what was held when it was called, its result
included, and a grid is one complex (cutoff+1)^2 amplitude grid. The probe
is built before a stage is measured, so it is not counted. Each stage is
called once untraced first, so what a call fills is not counted: the
rotation's Jx bases, and the grid of a probe that holds only its sector's
cells, built on its first read. That makes ``mzi_unitary`` a warm rotation
of a probe already planned.
``analyze_rotated`` and ``schmidt_rotated`` are ``analyze`` and ``schmidt``
of that rotation's result, a fringe point, made before either stage is
measured. A state keeps what one read of its probabilities takes, its
number moments and its weight p(d) on each j - k, so the stages that take
the moments, ``analyze``, ``qfi_variance``, ``build_report`` and
``analyze_rotated``, run each call on a fresh copy of the probe or fringe
point, made before the call is measured: a copy shares its grid or cells,
and the read is measured cold. ``qfi_fidelity`` is measured warm, on the
probe: it reads the kept p(d), and the read itself is measured under
``analyze``. ``mzi_unitary_cold`` rotates a
fresh copy of the probe on each call, made before the call is measured, so
its peak counts the rotation plan and Jx-basis coordinates kept for that
copy as well. ``sector_states`` takes the particle statistics of every
sector of the probe with n >= 1 through ``Sector.state``, as
``particle_moments(s.state, s.n)``, on a decomposition made before the stage
is measured. ``sector_path`` is the whole of that path, as the benchmark's
analysis report takes it: ``decompose_sectors``, then every kept sector's
``state`` and ``particle_moments``.

After a probe's stages, one more line, ``basis_cache``, gives the bytes the
rotation's Jx-basis cache gained over them, in the same columns: each probe
runs its stages on a fresh cache, the package's own budget, which is put back
afterwards.

    python3 tools/stage_memory.py > change.txt
    python3 tools/stage_memory.py /path/to/other/checkout > other.txt
    diff other.txt change.txt

The optional argument is the root of the checkout whose ``src/`` is
measured; by default it is this one. The probe and stage lists are this
checkout's, whichever ``src/`` runs them.
"""

import sys
import tracemalloc
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: (label, family, native parameters, explicit cutoff or None), every cutoff at least 300.
PROBES = (
    ("tsv xi=1.2", "twin-squeezed-vacuum", {"xi": 1.2}, 300),
    ("amplified-bell xi=1.2", "amplified-bell", {"xi": 1.2}, 300),
    ("twin-fock n=200", "twin-fock", {"n": 200}, None),
)

STAGES = (
    "build", "analyze", "decompose_sectors", "qfi_variance", "qfi_fidelity",
    "build_report", "schmidt", "phase_shift", "mzi_unitary", "analyze_rotated",
    "schmidt_rotated", "mzi_unitary_cold", "sector_states", "sector_path",
)

#: The stages that take the number moments, each call on a fresh copy of its state.
MOMENTS_STAGES = ("analyze", "qfi_variance", "build_report", "analyze_rotated")


def transient_peak(call: Callable[[], object]) -> int:
    """Bytes ``call()`` allocates at its peak above what was allocated before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


def sector_path(state) -> list:
    """The particle statistics of every kept sector of ``state`` with n >= 1, from its
    decomposition: what the benchmark's analysis report reads of the sectors."""
    import mzi_qfi

    return [mzi_qfi.particle_moments(s.state, s.n)
            for s in mzi_qfi.decompose_sectors(state).sectors if s.n >= 1]


def fresh_copy(state):
    """A new state holding ``state``'s grid or sector cells, shared, and nothing read off them."""
    import mzi_qfi

    if state._cells is not None:
        return mzi_qfi.FockState._from_cells(state._cells, state._sector, state.cutoff)
    return mzi_qfi.FockState(state.amplitudes, state.cutoff)


def stage_peaks(family: str, params: dict, cutoff) -> Tuple[int, Dict[str, int]]:
    """The probe's cutoff and each stage's warm transient peak in bytes, in ``STAGES`` order."""
    import mzi_qfi

    spec = mzi_qfi.ProbeSpec(family, params, cutoff)
    state = mzi_qfi.build(spec)
    rotated = []  # the fringe point, made before either call
    fresh = []  # copies of the probe for the cold rotation, made before either call
    decomposed = []  # the probe's decomposition, made before either call
    copies = []  # fresh copies for a moments stage, made before either call
    calls = {
        "build": lambda: mzi_qfi.build(spec),
        "analyze": lambda: mzi_qfi.analyze(copies.pop()),
        "decompose_sectors": lambda: mzi_qfi.decompose_sectors(state),
        "qfi_variance": lambda: mzi_qfi.qfi_variance(copies.pop()),
        "qfi_fidelity": lambda: mzi_qfi.qfi_fidelity(state),
        "build_report": lambda: mzi_qfi.build_report(copies.pop()),
        "schmidt": lambda: mzi_qfi.schmidt(state),
        "phase_shift": lambda: mzi_qfi.phase_shift(state, 0.3),
        "mzi_unitary": lambda: mzi_qfi.mzi_unitary(state, 0.3),
        "analyze_rotated": lambda: mzi_qfi.analyze(copies.pop()),
        "schmidt_rotated": lambda: mzi_qfi.schmidt(rotated[0]),
        "mzi_unitary_cold": lambda: mzi_qfi.mzi_unitary(fresh.pop(), 0.3),
        "sector_states": lambda: [mzi_qfi.particle_moments(s.state, s.n)
                                  for s in decomposed[0].sectors if s.n >= 1],
        "sector_path": lambda: sector_path(state),
    }
    peaks = {}
    for stage in STAGES:
        if stage.endswith("_rotated") and not rotated:
            rotated.append(mzi_qfi.mzi_unitary(state, 0.3))
        if stage == "mzi_unitary_cold":
            fresh.extend(mzi_qfi.FockState(state.amplitudes.copy(), state.cutoff) for _ in range(2))
        if stage == "sector_states":
            decomposed.append(mzi_qfi.decompose_sectors(state))
        if stage in MOMENTS_STAGES:
            source = rotated[0] if stage == "analyze_rotated" else state
            copies.extend(fresh_copy(source) for _ in range(2))
        calls[stage]()
        peaks[stage] = transient_peak(calls[stage])
    return state.cutoff, peaks


def grid_bytes(cutoff: int) -> int:
    """Bytes of one complex amplitude grid at ``cutoff``."""
    return 16 * (cutoff + 1) ** 2


def _import_from(root: Path) -> None:
    """Import ``mzi_qfi`` from ``root/src``, refusing one already imported from elsewhere."""
    src = (root / "src").resolve()
    if "mzi_qfi" not in sys.modules:
        sys.path.insert(0, str(src))
    import mzi_qfi

    if src not in Path(mzi_qfi.__file__).resolve().parents:
        raise SystemExit(f"mzi_qfi was imported from {mzi_qfi.__file__}, not from {src}")


def main(args: Sequence[str]) -> int:
    _import_from(Path(args[0]) if args else ROOT)
    from mzi_qfi import schwinger

    lines: List[str] = []
    for label, family, params, cutoff in PROBES:
        cache = schwinger._BasisCache(schwinger.BASIS_CACHE_BYTES)
        shared, schwinger._jx_basis = schwinger._jx_basis, cache
        try:
            chosen, peaks = stage_peaks(family, params, cutoff)
        finally:
            schwinger._jx_basis = shared
        peaks["basis_cache"] = cache.resident_bytes
        for stage, peak in peaks.items():
            lines.append(f"{label:<22} {chosen:>6} {stage:<18} {peak:>10} "
                         f"{peak / grid_bytes(chosen):6.2f}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
