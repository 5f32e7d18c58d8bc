"""Feature-table formats, splitting, standardization, synthetic tables."""

import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kanreg import data
from kanreg.data import (
    FeatureTable,
    Standardizer,
    apply_standardizer,
    fit_standardizer,
    load_table,
    make_synthetic,
    mos_histogram,
    save_table,
    split,
)
from kanreg.errors import (
    FormatError,
    InsufficientDataError,
    ParameterError,
    ParseError,
    ShapeError,
    UnsupportedVersionError,
)
from kanreg.pca import fit as pca_fit


def _tiny_table():
    return FeatureTable(
        name="tiny",
        features=np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
        scores=np.array([10.0, 20.0, 30.0]),
    )


class TestCsv:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("f0,f1,mos\n1,2,10\n3,4,20\n5,6,30\n")
        table = load_table(path)
        assert table.name == "tiny"
        assert table.features.shape == (3, 2)
        np.testing.assert_array_equal(table.scores, [10.0, 20.0, 30.0])

    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        original = _tiny_table()
        save_table(original, path)
        loaded = load_table(path)
        np.testing.assert_array_equal(loaded.features, original.features)
        np.testing.assert_array_equal(loaded.scores, original.scores)

    def test_round_trip_preserves_full_precision(self, tmp_path):
        rng = np.random.default_rng(3)
        table = FeatureTable("p", rng.normal(size=(5, 4)), rng.normal(size=5))
        path = tmp_path / "p.csv"
        save_table(table, path)
        loaded = load_table(path)
        # %.17g prints doubles losslessly
        np.testing.assert_array_equal(loaded.features, table.features)
        np.testing.assert_array_equal(loaded.scores, table.scores)

    def test_non_numeric_cell_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,mos\n1,2,10\n3,oops,20\n")
        with pytest.raises(ParseError) as exc:
            load_table(path)
        assert exc.value.line == 3
        assert exc.value.column == 2

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("f0,f1,mos\n1,2,10\n3,4\n")
        with pytest.raises(ParseError) as exc:
            load_table(path)
        assert exc.value.line == 3

    def test_header_must_end_with_mos(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("f0,f1,score\n1,2,3\n")
        with pytest.raises(ParseError) as exc:
            load_table(path)
        assert exc.value.line == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_table(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "ho.csv"
        path.write_text("f0,mos\n")
        with pytest.raises(InsufficientDataError):
            load_table(path)

    def test_non_finite_cell(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("f0,mos\nnan,1\n")
        with pytest.raises(ParseError) as exc:
            load_table(path)
        assert exc.value.line == 2

    def test_non_finite_cell_after_blank_line(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("f0,mos\n\n1,1\nnan,1\n")
        with pytest.raises(ParseError) as exc:
            load_table(path)
        assert exc.value.line == 4
        assert exc.value.column == 1

    def test_error_after_multiline_quoted_cell_names_the_physical_line(self, tmp_path):
        path = tmp_path / "q.csv"
        path.write_text('f0,mos\n"1\n",2\nx,3\n')
        with pytest.raises(ParseError) as exc:
            load_table(path)
        assert (exc.value.line, exc.value.column) == (4, 1)


def _outcome(path):
    """What load_table makes of ``path``: the values' bits, or the error and its location."""
    try:
        table = load_table(path)
    except (ParseError, InsufficientDataError) as e:
        return type(e).__name__, getattr(e, "line", None), getattr(e, "column", None)
    return table.features.tobytes(), table.scores.tobytes()


class TestCsvReadPaths:
    """NumPy's C reader and the row loop give the same table or the same error."""

    @staticmethod
    def _row_loop_outcome(path, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(data, "_load_numeric", lambda fh, width: None)
            return _outcome(path)

    @pytest.mark.parametrize("cell", [
        "1_000", " 1 ", "\uff11\uff12", "+1", ".5", "1e-400", "1e400", "nan", "-inf",
        '"1.5"', "1#2", "1 2", "0x10", "", "2,"])
    def test_cell_matches_row_loop(self, tmp_path, monkeypatch, cell):
        path = tmp_path / "c.csv"
        # last in its line, where a '#' read as a comment would drop the rest
        path.write_text(f"f0,f1,mos\n0,0,0\n1,2,{cell}\n4,5,6\n", encoding="utf-8")
        got = _outcome(path)
        assert got == self._row_loop_outcome(path, monkeypatch)
        if isinstance(got[1], bytes):  # the cell parsed: float()'s bits
            assert got[1] == np.array([0, float(cell.strip('"')), 6]).tobytes()

    @pytest.mark.parametrize("text", [
        "f0,mos\n1,2\n   \n3,4\n",
        "f0,mos\r\n1,2\r\n3,4\r\n",
        "f0,mos\r1,2\r3,4\r",
        "f0,mos\n",
        "f0,mos\n1,2\n\nx,4\n",
        "f0,mos\n1,2,3\n4,5,6\n",
    ], ids=["whitespace-line", "crlf", "cr-only", "header-only", "blank-then-bad-cell",
            "every-row-too-wide"])
    def test_file_matches_row_loop(self, tmp_path, monkeypatch, text):
        path = tmp_path / "f.csv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(path)
        assert got == self._row_loop_outcome(path, monkeypatch)

    def test_saved_table_loads_without_the_row_loop(self, tmp_path, monkeypatch):
        table = make_synthetic(50, 7, 3, 0.1, "mixed", 11)
        path = tmp_path / "s.csv"
        save_table(table, path)

        def row_loop(*args):
            raise AssertionError("a plain numeric table fell back to the row loop")

        monkeypatch.setattr(data, "_load_rows", row_loop)
        loaded = load_table(path)
        np.testing.assert_array_equal(loaded.features, table.features)
        np.testing.assert_array_equal(loaded.scores, table.scores)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCsvMemory:
    """CSV read and write hold about one copy of the table, not its text."""

    @staticmethod
    def _table():
        rng = np.random.default_rng(4)
        return FeatureTable("m", rng.normal(size=(400, 512)), rng.uniform(0, 100, 400))

    def test_load_peak_within_three_feature_arrays(self, tmp_path):
        table = self._table()
        path = tmp_path / "m.csv"
        save_table(table, path)
        assert _traced_peak(lambda: load_table(path)) <= 3.0 * table.features.nbytes

    def test_save_streams_the_same_bytes(self, tmp_path):
        table = self._table()
        path = tmp_path / "m.csv"
        assert _traced_peak(lambda: save_table(table, path)) < 0.5 * table.features.nbytes
        lines = [",".join([f"f{j}" for j in range(table.d)] + ["mos"])]
        lines += [",".join([f"{v:.17g}" for v in table.features[i]] + [f"{table.scores[i]:.17g}"])
                  for i in range(table.n)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


class TestBinary:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        table = FeatureTable("b", rng.normal(size=(7, 3)), rng.uniform(0, 100, 7))
        path = tmp_path / "b.bin"
        save_table(table, path)
        loaded = load_table(path)
        assert loaded.features.tobytes() == table.features.tobytes()
        assert loaded.scores.tobytes() == table.scores.tobytes()

    def test_save_is_deterministic(self, tmp_path):
        table = _tiny_table()
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        save_table(table, a)
        save_table(table, b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        save_table(_tiny_table(), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_table(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v.bin"
        save_table(_tiny_table(), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<H", blob, 4, 9)
        path.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedVersionError):
            load_table(path)

    def test_payload_length_mismatch(self, tmp_path):
        path = tmp_path / "short.bin"
        save_table(_tiny_table(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(FormatError):
            load_table(path)

    def test_declared_dims_disagree_with_payload(self, tmp_path):
        path = tmp_path / "dims.bin"
        save_table(_tiny_table(), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, 6, 99)   # claim n=99, keep payload
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_table(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "trunc.bin"
        path.write_bytes(b"KA")
        with pytest.raises(FormatError):
            load_table(path)

    def test_explicit_format_overrides_suffix(self, tmp_path):
        path = tmp_path / "data.dat"
        save_table(_tiny_table(), path, fmt="bin")
        loaded = load_table(path, fmt="bin")
        assert loaded.n == 3

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            load_table(tmp_path / "x.csv", fmt="parquet")


class TestSplit:
    def test_hundred_rows(self):
        s = split(100, seed=0)
        assert (len(s.train), len(s.val), len(s.test)) == (70, 15, 15)

    def test_ten_rows(self):
        s = split(10, seed=0)
        assert (len(s.train), len(s.val), len(s.test)) == (7, 1, 2)

    def test_three_rows(self):
        s = split(3, seed=1)
        assert (len(s.train), len(s.val), len(s.test)) == (1, 1, 1)

    def test_same_seed_identical(self):
        a = split(57, seed=42)
        b = split(57, seed=42)
        np.testing.assert_array_equal(a.train, b.train)
        np.testing.assert_array_equal(a.val, b.val)
        np.testing.assert_array_equal(a.test, b.test)

    def test_different_seeds_differ(self):
        a = split(100, seed=0)
        b = split(100, seed=1)
        assert not np.array_equal(a.train, b.train)

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            split(2, seed=0)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=3, max_value=400),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_parts_partition_the_range(self, n, seed):
        s = split(n, seed)
        merged = np.concatenate([s.train, s.val, s.test])
        assert sorted(merged.tolist()) == list(range(n))
        assert len(s.train) > 0 and len(s.val) > 0 and len(s.test) > 0


class TestStandardizer:
    def test_three_point_column(self):
        feats = np.array([[1.0], [2.0], [3.0]])
        std = fit_standardizer(feats)
        out = apply_standardizer(std, feats)
        np.testing.assert_allclose(out[:, 0], [-1.2247, 0.0, 1.2247], atol=1e-4)

    def test_population_std_used(self):
        std = fit_standardizer(np.array([[1.0], [2.0], [3.0]]))
        assert std.stds[0] == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-12)

    def test_definition_oracle(self):
        """Column means and population stds (divisor n) against their definition."""
        feats = np.random.default_rng(5).normal(3.0, 2.0, size=(9, 4))
        std = fit_standardizer(feats)
        for j in range(4):
            col = [float(v) for v in feats[:, j]]
            mean = sum(col) / len(col)
            assert std.means[j] == pytest.approx(mean, abs=1e-14)
            assert std.stds[j] == pytest.approx(
                (sum((v - mean) ** 2 for v in col) / len(col)) ** 0.5, abs=1e-14)

    def test_constant_column(self):
        std = fit_standardizer(np.full((3, 1), 5.0))
        assert std.means[0] == 5.0
        assert std.stds[0] == 0.0

    def test_single_row(self):
        std = fit_standardizer(np.array([[3.0, -1.0]]))
        np.testing.assert_array_equal(std.means, [3.0, -1.0])
        np.testing.assert_array_equal(std.stds, [0.0, 0.0])

    @pytest.mark.parametrize("indices", [None, []], ids=["no-rows", "no-indices"])
    def test_empty_rejected(self, indices):
        feats = np.empty((0, 4)) if indices is None else np.ones((5, 4))
        with pytest.raises(ShapeError):
            fit_standardizer(feats, indices)

    def test_constant_column_maps_to_zero(self):
        feats = np.full((5, 2), 7.0)
        out = apply_standardizer(fit_standardizer(feats), feats)
        np.testing.assert_array_equal(out, np.zeros((5, 2)))

    def test_training_columns_centered(self):
        feats = np.random.default_rng(7).normal(5.0, 3.0, size=(40, 6))
        out = apply_standardizer(fit_standardizer(feats), feats)
        np.testing.assert_allclose(out.mean(axis=0), np.zeros(6), atol=1e-8)

    def test_fit_uses_only_selected_rows(self):
        feats = np.zeros((6, 1))
        feats[3:] = 100.0   # rows the fit must never see
        std = fit_standardizer(feats, indices=[0, 1, 2])
        assert std.means[0] == 0.0
        assert std.stds[0] == 0.0

    def test_accepts_feature_table(self):
        std = fit_standardizer(_tiny_table().features, indices=[0, 1, 2])
        np.testing.assert_allclose(std.means, [3.0, 4.0])

    def test_dim_mismatch(self):
        std = fit_standardizer(np.ones((4, 3)))
        with pytest.raises(ShapeError):
            apply_standardizer(std, np.ones((2, 5)))


class TestMakeSynthetic:
    def test_shapes_and_range(self):
        table = make_synthetic(50, 12, 4, target="mixed", seed=3)
        assert table.features.shape == (50, 12)
        assert table.scores.shape == (50,)
        assert table.scores.min() == pytest.approx(0.0, abs=1e-12)
        assert table.scores.max() == pytest.approx(100.0, abs=1e-12)

    def test_same_seed_identical(self):
        a = make_synthetic(30, 8, 3, target="quadratic", seed=9)
        b = make_synthetic(30, 8, 3, target="quadratic", seed=9)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.scores.tobytes() == b.scores.tobytes()

    def test_targets_share_features(self):
        a = make_synthetic(30, 8, 3, target="linear", seed=9)
        b = make_synthetic(30, 8, 3, target="mixed", seed=9)
        assert a.features.tobytes() == b.features.tobytes()
        assert not np.array_equal(a.scores, b.scores)

    def test_noiseless_linear_identifiable(self):
        table = make_synthetic(200, 10, 3, noise_sigma=0.0, target="linear", seed=1)
        x = np.column_stack([table.features, np.ones(200)])
        coef, *_ = np.linalg.lstsq(x, table.scores, rcond=None)
        pred = x @ coef
        r = np.corrcoef(pred, table.scores)[0, 1]
        assert r > 0.999

    def test_low_rank_spectrum_hits_floor(self):
        table = make_synthetic(60, 2048, 5, seed=7)
        model = pca_fit(table.features, 0.95)
        assert model.k == 64

    def test_rank_exceeding_dim_rejected(self):
        with pytest.raises(ParameterError):
            make_synthetic(10, 4, 5, seed=0)

    def test_bad_target_rejected(self):
        with pytest.raises(ParameterError):
            make_synthetic(10, 4, 2, target="cubic", seed=0)

    def test_negative_noise_rejected(self):
        with pytest.raises(ParameterError):
            make_synthetic(10, 4, 2, noise_sigma=-0.5, seed=0)

    def test_noise_changes_features(self):
        clean = make_synthetic(20, 6, 2, noise_sigma=0.0, seed=4)
        noisy = make_synthetic(20, 6, 2, noise_sigma=0.5, seed=4)
        assert not np.array_equal(clean.features, noisy.features)


class TestMosHistogram:
    def test_counts_sum_to_n(self):
        scores = np.random.default_rng(11).uniform(0, 100, size=137)
        edges, counts = mos_histogram(scores, bins=100)
        assert counts.sum() == 137
        assert len(edges) == 101

    def test_all_equal_scores_single_bin(self):
        edges, counts = mos_histogram(np.full(9, 42.0), bins=100)
        assert counts.sum() == 9
        assert np.count_nonzero(counts) == 1

    def test_default_is_hundred_bins(self):
        edges, counts = mos_histogram(np.arange(10.0))
        assert len(counts) == 100

    def test_bins_validated(self):
        with pytest.raises(ParameterError):
            mos_histogram(np.arange(5.0), bins=0)

    def test_empty_scores(self):
        with pytest.raises(InsufficientDataError):
            mos_histogram(np.array([]))

    def test_uniform_edges(self):
        edges, _ = mos_histogram(np.array([0.0, 50.0, 100.0]), bins=4)
        np.testing.assert_allclose(edges, [0.0, 25.0, 50.0, 75.0, 100.0])
