"""Unit tests for model persistence and the fit/classify CLI."""

import pickle

import numpy as np
import pytest

import repro
import repro.io.models as models_module
from repro import TKDCClassifier, TKDCConfig
from repro.cli import main
from repro.index.kdtree import KDTree, StaleTreeLayout
from repro.io.models import (
    ModelIntegrityError,
    load_model,
    resolve_model_path,
    save_model,
)


@pytest.fixture(scope="module")
def fitted():
    data = np.random.default_rng(0).normal(size=(1000, 2))
    return data, TKDCClassifier(TKDCConfig(p=0.05, seed=0)).fit(data)


class TestSaveLoad:
    def test_round_trip_preserves_labels(self, fitted, tmp_path, rng):
        data, clf = fitted
        path = save_model(tmp_path / "model", clf)
        loaded = load_model(path)
        queries = rng.normal(size=(30, 2)) * 2
        np.testing.assert_array_equal(loaded.predict(queries), clf.predict(queries))
        assert loaded.threshold.value == clf.threshold.value

    def test_suffix_enforced(self, fitted, tmp_path):
        __, clf = fitted
        path = save_model(tmp_path / "model.bin", clf)
        assert path.suffix == ".tkdc"

    def test_load_without_suffix(self, fitted, tmp_path):
        __, clf = fitted
        save_model(tmp_path / "model", clf)
        assert load_model(tmp_path / "model").is_fitted

    def test_rejects_unfitted(self, tmp_path):
        with pytest.raises(ValueError, match="unfitted"):
            save_model(tmp_path / "model", TKDCClassifier())

    def test_rejects_foreign_file(self, tmp_path):
        bogus = tmp_path / "bogus.tkdc"
        bogus.write_bytes(pickle.dumps({"not": "a model"}))
        with pytest.warns(UserWarning, match="integrity footer"):
            with pytest.raises(ValueError, match="not a repro"):
                load_model(bogus)

    def test_rejects_version_mismatch(self, fitted, tmp_path):
        __, clf = fitted
        stale = tmp_path / "stale.tkdc"
        stale.write_bytes(pickle.dumps({
            "magic": "repro-tkdc-model", "version": "0.0.1", "classifier": clf
        }))
        with pytest.warns(UserWarning, match="integrity footer"):
            with pytest.raises(ValueError, match="re-fit"):
                load_model(stale)

    def test_node_tree_layout_is_refused(self, fitted, tmp_path, monkeypatch):
        # The layout trees were pickled in before they were built into
        # flat arrays: the linked Node tree under ``root``, beside the
        # flat view and the split-rule function.
        __, clf = fitted

        def node_layout(tree):
            return {
                "points": tree.points, "indices": tree.indices,
                "point_weights": tree.point_weights, "leaf_size": tree.leaf_size,
                "split_rule": tree.split_rule, "axis_rule": tree.axis_rule,
                "_split_value": None, "_flat": tree.flatten(), "root": tree.root,
                "_weight_prefix": None,
            }

        monkeypatch.setattr(KDTree, "__getstate__", node_layout)
        path = save_model(tmp_path / "old", clf)
        monkeypatch.undo()
        with pytest.raises(StaleTreeLayout, match="re-fit"):
            load_model(path)


class TestIntegrityFooter:
    @pytest.fixture()
    def saved(self, fitted, tmp_path):
        __, clf = fitted
        return save_model(tmp_path / "model", clf)

    def test_footer_present_on_disk(self, saved):
        data = saved.read_bytes()
        assert b"tkdc-sha256:" in data[-44:]

    def test_flipped_payload_byte_rejected_by_checksum(self, saved):
        blob = bytearray(saved.read_bytes())
        blob[len(blob) // 2] ^= 0x40
        saved.write_bytes(bytes(blob))
        with pytest.raises(ModelIntegrityError, match="sha256"):
            load_model(saved)

    def test_flipped_digest_byte_rejected(self, saved):
        blob = bytearray(saved.read_bytes())
        blob[-1] ^= 0x01
        saved.write_bytes(bytes(blob))
        with pytest.raises(ModelIntegrityError, match="sha256"):
            load_model(saved)

    def test_corrupt_file_never_reaches_the_unpickler(self, saved, monkeypatch):
        blob = bytearray(saved.read_bytes())
        blob[100] ^= 0xFF
        saved.write_bytes(bytes(blob))
        unpickles: list[int] = []
        real_loads = pickle.loads

        def spying_loads(data, **kwargs):
            unpickles.append(len(data))
            return real_loads(data, **kwargs)

        monkeypatch.setattr(models_module.pickle, "loads", spying_loads)
        with pytest.raises(ModelIntegrityError):
            load_model(saved)
        assert unpickles == []

    def test_truncated_legacy_stream_is_typed_error(self, saved):
        # Truncation removes the footer, so the file degrades to the
        # legacy path — and the incomplete pickle must still surface as
        # the typed integrity error, not a raw UnpicklingError.
        saved.write_bytes(saved.read_bytes()[:200])
        with pytest.warns(UserWarning, match="integrity footer"):
            with pytest.raises(ModelIntegrityError, match="not a complete"):
                load_model(saved)

    def test_legacy_footerless_file_loads_with_warning(self, fitted, tmp_path):
        __, clf = fitted
        legacy = tmp_path / "legacy.tkdc"
        legacy.write_bytes(pickle.dumps({
            "magic": "repro-tkdc-model",
            "version": repro.__version__,
            "classifier": clf,
        }))
        with pytest.warns(UserWarning, match="integrity footer"):
            loaded = load_model(legacy)
        assert loaded.is_fitted

    def test_saved_files_load_warning_free(self, saved, recwarn):
        load_model(saved)
        assert not [w for w in recwarn if "integrity" in str(w.message)]


class TestPathResolution:
    def test_exact_path_wins_over_tkdc_sibling(self, tmp_path):
        exact = tmp_path / "a.model"
        sibling = tmp_path / "a.tkdc"
        exact.write_bytes(b"exact")
        sibling.write_bytes(b"sibling")
        assert resolve_model_path(exact) == exact

    def test_falls_back_to_tkdc_suffix(self, tmp_path):
        sibling = tmp_path / "a.tkdc"
        sibling.write_bytes(b"sibling")
        assert resolve_model_path(tmp_path / "a") == sibling
        assert resolve_model_path(tmp_path / "a.model") == sibling

    def test_missing_error_names_both_candidates(self, tmp_path):
        with pytest.raises(FileNotFoundError) as excinfo:
            resolve_model_path(tmp_path / "ghost.model")
        message = str(excinfo.value)
        assert str(tmp_path / "ghost.model") in message
        assert f"also tried {tmp_path / 'ghost.tkdc'}" in message

    def test_missing_tkdc_path_has_single_candidate(self, tmp_path):
        with pytest.raises(FileNotFoundError) as excinfo:
            resolve_model_path(tmp_path / "ghost.tkdc")
        message = str(excinfo.value)
        assert str(tmp_path / "ghost.tkdc") in message
        assert "also tried" not in message

    def test_load_model_uses_resolution(self, fitted, tmp_path):
        __, clf = fitted
        save_model(tmp_path / "m", clf)  # lands at m.tkdc
        assert load_model(tmp_path / "m").is_fitted
        with pytest.raises(FileNotFoundError, match="also tried"):
            load_model(tmp_path / "elsewhere.bin")


class TestCliFitClassify:
    def test_end_to_end(self, tmp_path, capsys, rng):
        train_csv = tmp_path / "train.csv"
        np.savetxt(train_csv, rng.normal(size=(800, 2)), delimiter=",")
        queries_csv = tmp_path / "queries.csv"
        np.savetxt(queries_csv, np.array([[0.0, 0.0], [6.0, 6.0]]), delimiter=",")
        model_path = tmp_path / "model.tkdc"

        assert main(["fit", str(train_csv), "--model", str(model_path),
                     "--p", "0.05"]) == 0
        assert model_path.exists()
        capsys.readouterr()

        assert main(["classify", str(queries_csv), "--model", str(model_path)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["label", "1", "0"]

    def test_classify_with_densities_and_output(self, tmp_path, capsys, rng):
        train_csv = tmp_path / "train.csv"
        np.savetxt(train_csv, rng.normal(size=(600, 2)), delimiter=",")
        queries_csv = tmp_path / "queries.csv"
        np.savetxt(queries_csv, np.zeros((1, 2)), delimiter=",")
        model_path = tmp_path / "m.tkdc"
        output_csv = tmp_path / "labels.csv"

        main(["fit", str(train_csv), "--model", str(model_path)])
        assert main([
            "classify", str(queries_csv), "--model", str(model_path),
            "--densities", "--output", str(output_csv),
        ]) == 0
        lines = output_csv.read_text().strip().splitlines()
        assert lines[0] == "label,density"
        label, density = lines[1].split(",")
        assert label == "1"
        assert float(density) > 0
