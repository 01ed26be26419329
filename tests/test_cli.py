import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mzi_qfi import cli, schwinger, serialize, states
from mzi_qfi.errors import CutoffExceededError, NormalizationError, StateFileError
from mzi_qfi.fock import make_fock
from mzi_qfi.serialize import (
    NormalizationWarning,
    canonical_json,
    read_state_file,
    state_from_document,
    write_state_file,
)
from mzi_qfi.states import ProbeSpec, build
from oracles import dense_rotation, ladder_analyze, ladder_number_moments


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_import_loads_no_scipy():
    # a fresh interpreter: modules the test run already imported would hide a stray import
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = "import sys, mzi_qfi.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


class TestCanonicalJson:
    def test_determinism(self):
        doc = {"b": 1.0 / 3.0, "a": [1, 2.5, None, True], "c": {"x": "s"}}
        assert canonical_json(doc) == canonical_json(doc)

    def test_float_precision_round_trips(self):
        value = 0.1 + 0.2
        text = canonical_json({"v": value})
        assert json.loads(text)["v"] == value

    def test_null_and_bool_tokens(self):
        text = canonical_json({"u": None, "t": True, "f": False})
        assert '"u": null' in text and '"t": true' in text and '"f": false' in text


class TestStateFiles:
    def test_round_trip_is_bit_faithful(self, tmp_path):
        state = build(ProbeSpec("entangled-coherent", {"alpha": 1.3}))
        path = tmp_path / "probe.json"
        write_state_file(state, str(path))
        loaded = read_state_file(str(path))
        assert loaded.cutoff == state.cutoff
        assert np.array_equal(loaded.amplitudes, state.amplitudes)

    def test_single_photon_file(self, tmp_path):
        path = tmp_path / "one.json"
        write_state_file(make_fock(1, 0, 2), str(path))
        loaded = read_state_file(str(path))
        assert np.isclose(loaded.probabilities()[1, 0], 1.0)

    def test_slightly_off_norm_renormalized_with_warning(self):
        doc = {"cutoff": 1, "amplitudes": [{"ja": 1, "jb": 0, "re": 0.999999, "im": 0.0}]}
        with pytest.warns(NormalizationWarning):
            state = state_from_document(doc)
        assert np.isclose(np.linalg.norm(state.amplitudes), 1.0)

    def test_badly_off_norm_rejected(self):
        doc = {"cutoff": 1, "amplitudes": [{"ja": 1, "jb": 0, "re": 0.9, "im": 0.0}]}
        with pytest.raises(NormalizationError):
            state_from_document(doc)

    def test_zero_norm_rejected(self):
        doc = {"cutoff": 1, "amplitudes": [{"ja": 0, "jb": 0, "re": 0.0, "im": 0.0}]}
        with pytest.raises(NormalizationError):
            state_from_document(doc)

    def test_index_beyond_cutoff_rejected(self):
        doc = {"cutoff": 1, "amplitudes": [{"ja": 2, "jb": 0, "re": 1.0, "im": 0.0}]}
        with pytest.raises(CutoffExceededError, match="exceeds cutoff"):
            state_from_document(doc)

    def test_duplicate_entry_rejected(self):
        doc = {
            "cutoff": 1,
            "amplitudes": [
                {"ja": 0, "jb": 0, "re": 1.0, "im": 0.0},
                {"ja": 0, "jb": 0, "re": 0.0, "im": 1.0},
            ],
        }
        with pytest.raises(StateFileError, match="duplicate"):
            state_from_document(doc)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(StateFileError):
            read_state_file(str(path))

    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        target = tmp_path / "report.json"

        def explode(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(serialize.os, "replace", explode)
        with pytest.raises(OSError):
            serialize.write_text_atomic(str(target), "partial content")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []  # temp sibling cleaned up too


REFERENCE_CASES = [
    ["analyze", "--family", family, "--n", str(n)]
    for family in ("twin-fock", "fraternal-twin-fock", "noon", "separable-coherent-probe",
                   "fock-pair")
    for n in (1, 8, 64)
] + [["analyze", "--family", "coherent", "--nbar", "4"]]


@pytest.mark.parametrize("argv", REFERENCE_CASES, ids=" ".join)
def test_analyze_document_matches_reference_paths(capsys, monkeypatch, argv):
    # the dense sector loop and one ladder moment per field, in place of the fast paths
    fast = run_cli(capsys, *argv)
    monkeypatch.setattr(schwinger, "apply_rotation", dense_rotation)
    monkeypatch.setattr(cli, "analyze", ladder_analyze)
    for module in (schwinger, states):
        monkeypatch.setattr(module, "number_moments", ladder_number_moments)
    assert run_cli(capsys, *argv) == fast


class TestAnalyzeCommand:
    def test_noon_report(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--family", "noon", "--n", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == "mzi-qfi/1"
        assert abs(doc["qfi"]["f_variance"] - 9.0) < 1e-9
        assert abs(doc["qfi"]["crb"] - 1 / 3) < 1e-12
        assert doc["qfi"]["scaling_class"]["sub_shot_noise"] is True

    def test_coherent_is_shot_noise_limited(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--family", "coherent", "--alpha", "2")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["qfi"]["f_variance"] - 4.0) < 1e-8
        assert doc["qfi"]["scaling_class"]["sub_shot_noise"] is False

    def test_tmsv_flat_but_entangled(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--family",
                               "two-mode-squeezed-vacuum", "--nbar", "2")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["qfi"]["f_variance"]) < 1e-8
        assert doc["qfi"]["crb"] is None
        assert doc["mode_entanglement"]["entropy_nats"] > 0.5

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "analyze", "--family", "noon", "--n", "2")
        _, second, _ = run_cli(capsys, "analyze", "--family", "noon", "--n", "2")
        assert first == second

    def test_state_file_input(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        write_state_file(build(ProbeSpec("noon", {"n": 2})), str(path))
        code, out, _ = run_cli(capsys, "analyze", "--state-file", str(path))
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["qfi"]["f_variance"] - 4.0) < 1e-9

    def test_dump_state_round_trip(self, capsys, tmp_path):
        path = tmp_path / "dump.json"
        code, _, _ = run_cli(capsys, "analyze", "--family", "twin-fock", "--n", "1",
                             "--dump-state", str(path))
        assert code == 0
        loaded = read_state_file(str(path))
        assert loaded.cutoff == 2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "analyze", "--family", "noon", "--n", "2",
                               "--out", str(path))
        assert code == 0 and out == ""
        doc = json.loads(path.read_text())
        assert doc["command"] == "analyze"

    def test_table_format(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--family", "noon", "--n", "2",
                               "--format", "table")
        assert code == 0
        assert "f_variance" in out

    def test_family_aliases(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--family", "tmsv", "--nbar", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["probe"]["family"] == "two-mode-squeezed-vacuum"
        assert abs(doc["probe"]["params"]["chi"] - math.asinh(1.0)) < 1e-8

    def test_explicit_cutoff_flag(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--family", "coherent", "--alpha", "1",
                               "--cutoff", "30")
        assert code == 0
        assert json.loads(out)["probe"]["cutoff"] == 30

    def test_raw_fidelity_difference_mode(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--family", "noon", "--n", "4",
                               "--fidelity-step", "0.01", "--raw-fidelity-difference")
        assert code == 0
        doc = json.loads(out)
        # a raw central difference at a coarse step visibly undershoots, is
        # reported as such, and does not trip the consistency gate
        assert 1e-6 < abs(doc["qfi"]["f_fidelity"] - 16.0) < 0.1
        assert doc["qfi"]["route_agreement"] > 1e-6
        assert doc["qfi"]["routes_consistent"] is True
        assert "exploratory" in doc["qfi"]["reasons"]["f_fidelity"]

    def test_route_disagreement_exits_two(self, capsys, monkeypatch):
        import mzi_qfi.qfi as qfi_module

        monkeypatch.setattr(qfi_module, "qfi_fidelity", lambda *a, **k: 123.0)
        code, _, _ = run_cli(capsys, "analyze", "--family", "noon", "--n", "2")
        assert code == 2


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["analyze", "--family", "noon", "--n", "2", "--bogus"])
        assert err.value.code == 1

    def test_missing_parameters(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--family", "noon")
        assert code == 1
        assert json.loads(err)["error"]["code"] == "error"

    def test_conflicting_parameters(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--family", "coherent",
                               "--alpha", "2", "--nbar", "4")
        assert code == 1

    def test_foreign_parameter_rejected(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--family", "coherent", "--n", "3")
        assert code == 1
        assert "--alpha" in json.loads(err)["error"]["message"]

    def test_unattainable_target(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--family", "noon", "--nbar", "0.2")
        assert code == 1
        assert json.loads(err)["error"]["code"] == "unattainable-target"


class TestTable1Command:
    def test_audit_outcome(self, capsys):
        code, out, _ = run_cli(capsys, "table1")
        assert code == 3  # known mismatching cells are flagged, not reconciled
        doc = json.loads(out)
        rows = {row["family"]: row for row in doc["rows"]}
        assert len(rows) == 10
        for row in doc["rows"]:
            assert row["routes_consistent"] is True
            for cell in row["cells"].values():
                assert cell["status"] in ("MATCH", "MISMATCH", "NOT-APPLICABLE")
                if cell["status"] == "MISMATCH":
                    assert cell["alt"] is not None
                    assert cell["alt"]["convention"] == "per-mode nbar"

        qfi_match = [f for f, row in rows.items() if row["cells"]["qfi"]["status"] == "MATCH"]
        for family in ("noon", "twin-fock", "fock-pair", "separable-coherent-probe",
                       "coherent", "fraternal-twin-fock", "two-mode-squeezed-vacuum",
                       "twin-squeezed-vacuum"):
            assert family in qfi_match

        # the per-mode convention explains the twin-squeezed pair coherence cell
        tsv_g2 = rows["twin-squeezed-vacuum"]["cells"]["g2"]
        assert tsv_g2["status"] == "MISMATCH"
        assert tsv_g2["alt"]["status"] == "MATCH"
        # the cross-coherence cell of the amplified Bell row fits neither convention
        ab_cell = rows["amplified-bell"]["cells"]["g2_ab"]
        assert ab_cell["status"] == "MISMATCH"
        assert ab_cell["alt"]["status"] == "MISMATCH"

    def test_deterministic_bytes(self, capsys):
        _, first, _ = run_cli(capsys, "table1", "--nbar", "3")
        _, second, _ = run_cli(capsys, "table1", "--nbar", "3")
        assert first == second

    def test_csv_shape(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--format", "csv")
        lines = out.strip().splitlines()
        assert len(lines) == 11
        assert lines[0].startswith("family,nbar,g2,")


class TestSweepCommand:
    def test_coherent_tracks_shot_noise(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--family", "coherent",
                               "--nbar", "1,2,4,8")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(cli.SWEEP_COLUMNS)
        for line in lines[1:]:
            fields = dict(zip(cli.SWEEP_COLUMNS, line.split(",")))
            assert abs(float(fields["qfi"]) - float(fields["nbar"])) < 1e-8

    def test_noon_tracks_heisenberg(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--family", "noon", "--nbar", "2,3,4")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            fields = dict(zip(cli.SWEEP_COLUMNS, line.split(",")))
            assert abs(float(fields["qfi"]) - float(fields["nbar"]) ** 2) < 1e-9

    def test_twin_fock_formula(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--family", "twin-fock", "--nbar", "2,4,6")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            fields = dict(zip(cli.SWEEP_COLUMNS, line.split(",")))
            nbar = float(fields["nbar"])
            assert abs(float(fields["qfi"]) - (nbar**2 + 2 * nbar) / 2) < 1e-9

    def test_unattainable_rows_annotated_not_dropped(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--family", "noon", "--nbar", "0.2,3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[2].startswith('"unattainable') or first[2].startswith("unattainable")
        assert first[4] == ""  # UNDEFINED serializes as an empty cell

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--family", "fock-pair",
                               "--nbar", "2,4", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert [row["nbar_target"] for row in doc["rows"]] == [2.0, 4.0]
        assert all(abs(row["qfi"]) < 1e-9 for row in doc["rows"])
