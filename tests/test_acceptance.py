"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
pass/fail lines as they happen). Every tolerance is pinned here; nothing is
deferred to later calibration.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import random_direction, random_two_mode_state
from mzi_qfi import cli
from mzi_qfi.coherence import INTENSITY_FLOOR, analyze
from mzi_qfi.entanglement import schmidt
from mzi_qfi.fock import FockState, make_fock
from mzi_qfi.particle import decompose_sectors, particle_moments, qfi_particle
from mzi_qfi.qfi import qfi_fidelity, qfi_mode, qfi_path_symmetric, qfi_variance
from mzi_qfi.schwinger import apply_rotation, beam_splitter
from mzi_qfi.states import ProbeSpec, build, build_for_nbar
from oracles import (
    ladder_j_moment,
    locality_defect,
    mean_photon_number,
    multiqubit_oracle,
    oracle_apply_generator,
    sector_generator_matrix,
)


@contextmanager
def criterion(number: int, title: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} FAIL  {title}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget ({elapsed:.1f}s)"
    )
    print(f"criterion {number:2d} PASS  {title}  [{elapsed:.2f}s]")


AXES = {"jx": (1.0, 0.0, 0.0), "jy": (0.0, 1.0, 0.0), "jz": (0.0, 0.0, 1.0)}


def block_generator(state: FockState, tag: str) -> np.ndarray:
    """J|psi> assembled from the sector blocks that rotations exponentiate."""
    out = np.zeros_like(state.amplitudes)
    for n in range(state.cutoff + 1):
        ks = np.arange(n + 1)
        block = sector_generator_matrix(n, state.cutoff, AXES[tag])
        out[ks, n - ks] = block @ state.amplitudes[ks, n - ks]
    return out


def test_criterion_1_su2_algebra_suite():
    rng = np.random.default_rng(11)
    cutoff = 32
    cyclic = {("jx", "jy"): "jz", ("jy", "jz"): "jx", ("jz", "jx"): "jy"}
    with criterion(1, "SU(2) algebra of the rotation generators and number conservation", 5.0):
        worst = 0.0
        for n in range(cutoff + 1):
            block = {tag: sector_generator_matrix(n, cutoff, axis) for tag, axis in AXES.items()}
            for (k, l), mtag in cyclic.items():
                commutator = block[k] @ block[l] - block[l] @ block[k]
                worst = max(worst, float(np.max(np.abs(commutator - 1j * block[mtag]))))
        for _ in range(100):
            # support on every complete sector, so the ladder oracle never leaves the grid
            psi = random_two_mode_state(rng, cutoff, cutoff)
            applied = {tag: oracle_apply_generator(psi, tag) for tag in AXES}
            for tag in AXES:
                worst = max(worst, float(np.max(np.abs(block_generator(psi, tag) - applied[tag]))))
            for (k, l), mtag in cyclic.items():
                lhs = np.vdot(applied[k], applied[l]) - np.vdot(applied[l], applied[k])
                rhs = 1j * ladder_j_moment(psi, mtag, 1)
                worst = max(worst, abs(lhs - rhs))
            rotated = apply_rotation(psi, random_direction(rng), rng.uniform(-math.pi, math.pi))
            worst = max(worst, abs(mean_photon_number(psi) - mean_photon_number(rotated)))
        assert worst < 1e-10, f"max deviation {worst:.3e}"


def test_criterion_2_hong_ou_mandel():
    with criterion(2, "Hong-Ou-Mandel dip at a balanced splitter", 1.0):
        out = beam_splitter(make_fock(1, 1, 2), "first")
        assert abs(out.amplitudes[1, 1]) < 1e-12
        assert abs(abs(out.amplitudes[2, 0]) ** 2 - 0.5) < 1e-12
        assert abs(abs(out.amplitudes[0, 2]) ** 2 - 0.5) < 1e-12


def test_criterion_3_route_equivalence_all_families():
    with criterion(3, "QFI route equivalence for all ten families at nbar ~ 4", 30.0):
        for family in (
            "twin-squeezed-vacuum", "twin-fock", "entangled-coherent", "noon",
            "amplified-bell", "fraternal-twin-fock", "coherent",
            "separable-coherent-probe", "two-mode-squeezed-vacuum", "fock-pair",
        ):
            state, _, _ = build_for_nbar(family, 4.0)
            report = analyze(state)
            f_var = qfi_variance(state)
            f_mode = qfi_mode(report)
            f_sym = qfi_path_symmetric(report)
            f_fid = qfi_fidelity(state)
            assert f_mode is not None and f_sym is not None, family
            assert abs(f_mode - f_var) < 1e-9, family
            assert abs(f_sym - f_var) < 1e-9, family
            assert abs(f_sym - f_mode) < 1e-9, family
            assert abs(f_fid - f_var) <= 1e-6 * abs(f_var) + 1e-9, family


def test_criterion_4_exact_table_values():
    with criterion(4, "closed-form QFI checks per family", 30.0):
        for n in (2, 3, 4, 5):
            state = build(ProbeSpec("noon", {"n": n}))
            assert abs(qfi_variance(state) - n**2) < 1e-8
        for n in (1, 2, 3, 4):
            state = build(ProbeSpec("twin-fock", {"n": n}))
            nbar = 2.0 * n
            assert abs(qfi_variance(state) - (nbar**2 + 2 * nbar) / 2) < 1e-8
        for n in (1, 2, 3):
            assert abs(qfi_variance(make_fock(n, n, n))) < 1e-8
        for n in (1, 2, 4, 8):
            state = build(ProbeSpec("separable-coherent-probe", {"n": n}))
            assert abs(qfi_variance(state) - n) < 1e-8
        for alpha in (1.0, 2.0):
            state = build(ProbeSpec("coherent", {"alpha": alpha}))
            assert abs(qfi_variance(state) - alpha**2) < 1e-8
        for n in (0, 1, 2, 3):
            state = build(ProbeSpec("fraternal-twin-fock", {"n": n}))
            nbar = 2.0 * n + 1
            assert abs(qfi_variance(state) - (nbar * (nbar + 2) - 1) / 2) < 1e-8
        tmsv = build(ProbeSpec("two-mode-squeezed-vacuum", {"chi": 0.88}))
        assert abs(qfi_variance(tmsv)) < 1e-8
        tsv = build(ProbeSpec("twin-squeezed-vacuum", {"xi": math.asinh(1.0)}))
        nbar = mean_photon_number(tsv)
        expected = nbar**2 + 2 * nbar
        assert abs(qfi_variance(tsv) - expected) < 1e-6 * expected


def test_criterion_5_table_audit_ledger(capsys):
    with criterion(5, "table audit: every cell classified, deterministic, QFI column", 60.0):
        code = cli.main(["table1"])
        first = capsys.readouterr().out
        code_again = cli.main(["table1"])
        second = capsys.readouterr().out
        assert first == second, "audit output is not deterministic"
        assert code == code_again == 3  # known mismatching cells exist by design
        doc = json.loads(first)
        rows = {row["family"]: row for row in doc["rows"]}
        assert len(rows) == 10
        for row in doc["rows"]:
            for cell in row["cells"].values():
                assert cell["status"] in ("MATCH", "MISMATCH", "NOT-APPLICABLE")
                if cell["status"] == "MISMATCH":
                    assert cell["alt"] is not None, "mismatch without alternative evaluation"
        for family in ("noon", "twin-fock", "fock-pair", "separable-coherent-probe",
                       "coherent", "fraternal-twin-fock", "two-mode-squeezed-vacuum",
                       "twin-squeezed-vacuum"):
            assert rows[family]["cells"]["qfi"]["status"] == "MATCH", family


def test_criterion_6_particle_mode_equivalence():
    rng = np.random.default_rng(23)
    with criterion(6, "particle-picture QFI equals variance route; oracle agrees", 20.0):
        cases = (
            [("noon", n) for n in range(1, 9)]
            + [("twin-fock", n) for n in range(1, 5)]
            + [("fraternal-twin-fock", n) for n in range(0, 4)]
            + [("fock-pair", n) for n in range(1, 5)]
            + [("separable-coherent-probe", n) for n in range(1, 9)]
        )
        for family, n in cases:
            state = build(ProbeSpec(family, {"n": n}))
            decomp = decompose_sectors(state)
            assert abs(qfi_particle(decomp) - qfi_variance(state)) < 1e-9, (family, n)
            sector = decomp.dominant()
            if 1 <= sector.n <= 6:
                bridge = particle_moments(sector.state, sector.n)
                direct = multiqubit_oracle(sector.state, sector.n)
                for field in ("mean_sigma_z", "var_sigma_z", "cov_sigma_z", "f_particle"):
                    assert abs(getattr(bridge, field) - getattr(direct, field)) < 1e-10
        for n in range(1, 7):
            grid = np.zeros((n + 1, n + 1), dtype=complex)
            for k in range(n + 1):
                grid[k, n - k] = rng.normal() + 1j * rng.normal()
            state = FockState(grid / np.linalg.norm(grid), n)
            bridge = particle_moments(state, n)
            direct = multiqubit_oracle(state, n)
            for field in ("mean_sigma_z", "var_sigma_z", "cov_sigma_z", "f_particle"):
                assert abs(getattr(bridge, field) - getattr(direct, field)) < 1e-10


def test_criterion_7_entanglement_claims():
    with criterion(7, "mode entanglement unnecessary, particle entanglement necessary", 10.0):
        # (a) a mode-separable probe beating the Heisenberg benchmark
        tsv = build(ProbeSpec("twin-squeezed-vacuum", {"xi": math.asinh(1.0)}))
        nbar = mean_photon_number(tsv)
        assert schmidt(tsv).entropy < 1e-9
        assert qfi_variance(tsv) > nbar**2
        # (b) super-shot-noise fixed-n states carry positive pair covariance ...
        entangled_cases = (
            [("noon", n) for n in (2, 3, 4, 5)]
            + [("twin-fock", n) for n in (1, 2, 3)]
            + [("fraternal-twin-fock", n) for n in (1, 2, 3)]
        )
        for family, n in entangled_cases:
            state = build(ProbeSpec(family, {"n": n}))
            f = qfi_variance(state)
            nbar = mean_photon_number(state)
            sector = decompose_sectors(state).dominant()
            if f > nbar + 1e-6:
                assert particle_moments(sector.state, sector.n).cov_sigma_z > 0, (family, n)
        # ... and product sectors sit at or below shot noise with zero covariance
        for n in (1, 2, 4, 8):
            state = build(ProbeSpec("separable-coherent-probe", {"n": n}))
            sector = decompose_sectors(state).dominant()
            report = particle_moments(sector.state, sector.n)
            assert abs(report.cov_sigma_z) < 1e-9
            assert qfi_variance(state) <= n + 1e-9


def test_criterion_8_locality_of_collective_rotations():
    rng = np.random.default_rng(31)
    with criterion(8, "collective rotations factorize per particle", 10.0):
        for n in range(1, 7):
            for _ in range(20):
                v = random_direction(rng)
                gamma = rng.uniform(-math.pi, math.pi)
                assert locality_defect(n, v, gamma) < 1e-10, n


def test_criterion_9_coherence_identities():
    rng = np.random.default_rng(47)
    with criterion(9, "variance/covariance identities and undefined-g2 policy", 10.0):
        for _ in range(200):
            psi = random_two_mode_state(rng, 10, 7)
            report = analyze(psi)
            lit_a = report.nbar_a >= INTENSITY_FLOOR
            lit_b = report.nbar_b >= INTENSITY_FLOOR
            assert (report.g2_a is not None) == lit_a
            assert (report.g2_b is not None) == lit_b
            assert (report.g2_ab is not None) == (lit_a and lit_b)
            if report.g2_a is not None:
                rebuilt = report.nbar_a + report.nbar_a**2 * (report.g2_a - 1)
                assert abs(rebuilt - report.var_na) < 1e-9
            if report.g2_b is not None:
                rebuilt = report.nbar_b + report.nbar_b**2 * (report.g2_b - 1)
                assert abs(rebuilt - report.var_nb) < 1e-9
            if report.g2_ab is not None:
                rebuilt = report.nbar_a * report.nbar_b * (report.g2_ab - 1)
                assert abs(rebuilt - report.cov_nab) < 1e-9
        # dark-mode states: undefined exactly when the intensity is below the floor
        dim = 3
        for scale in (0.5, 2.0):
            grid = np.zeros((dim, dim), dtype=complex)
            grid[1, 0] = 1.0
            grid[0, 1] = math.sqrt(scale * INTENSITY_FLOOR)
            report = analyze(FockState(grid / np.linalg.norm(grid), dim - 1))
            assert (report.g2_b is not None) == (scale > 1.0)


def _report_quantities(state) -> dict:
    coherence = analyze(state)
    quantities = {
        "nbar": coherence.nbar,
        "nbar_a": coherence.nbar_a,
        "g2_a": coherence.g2_a,
        "g2_ab": coherence.g2_ab,
        "var_na": coherence.var_na,
        "cov_nab": coherence.cov_nab,
        "f_variance": qfi_variance(state),
        "f_mode": qfi_mode(coherence),
        "f_fidelity": qfi_fidelity(state),
        "entropy": schmidt(state).entropy,
    }
    return quantities


def test_criterion_10_truncation_robustness():
    with criterion(10, "doubling the cutoff moves nothing by more than 1e-8", 60.0):
        cases = [
            ("twin-squeezed-vacuum", {"xi": 1.2}),
            ("two-mode-squeezed-vacuum", {"chi": 1.2}),
            ("amplified-bell", {"xi": 1.2}),
            ("coherent", {"alpha": 4.0}),
            ("entangled-coherent", {"alpha": 4.0}),
        ]
        for family, params in cases:
            base = build(ProbeSpec(family, params))
            doubled = build(ProbeSpec(family, params, cutoff=2 * base.cutoff))
            small, large = _report_quantities(base), _report_quantities(doubled)
            for key, value in small.items():
                assert (value is None) == (large[key] is None), (family, key)
                if value is not None:
                    delta = abs(value - large[key])
                    assert delta < 1e-8, f"{family} {key} moved by {delta:.3e}"
