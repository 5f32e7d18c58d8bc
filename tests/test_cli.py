"""End-to-end command-line runs on small synthetic tables."""

import json

import numpy as np
import pytest

from kanreg.basis import BasisSpec
from kanreg.cli import REPORT_HEADER, main
from kanreg.data import Standardizer, make_synthetic, save_table, split
from kanreg.linalg import Rng
from kanreg.network import ModelBundle, init_network, save_model


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "small.csv"
    save_table(make_synthetic(60, 6, 2, 0.0, "quadratic", 3), path)
    return str(path)


@pytest.fixture(scope="module")
def wide_bin(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "wide.bin"
    save_table(make_synthetic(60, 2048, 5, 0.0, "quadratic", 7), path)
    return str(path)


def _train_args(data, out, **overrides):
    flags = {"basis": "taylor", "order": "2", "tau": "0.95", "seed": "5",
             "lr": "1e-3", "max-epochs": "15"}
    flags.update(overrides)
    argv = ["train", "--data", data, "--out", out]
    for key, value in flags.items():
        if value is not None:
            argv += [f"--{key}", value]
    return argv


def _rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0], lines[1:]


class TestTrainCommand:
    def test_happy_path_outputs(self, small_csv, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(_train_args(small_csv, str(out))) == 0
        assert (out / "model.json").exists()
        assert (out / "manifest.json").exists()
        header, rows = _rows(out / "report.csv")
        assert header == REPORT_HEADER
        assert len(rows) == 1
        fields = rows[0].split(",")
        assert fields[0] == "small"
        assert fields[1] == "taylor"
        assert fields[2] == "0.95"
        assert fields[3] == "6"           # d=6 caps the component floor
        assert fields[4] == "6-64-16-1"
        assert fields[5] == "0.001"
        assert -1.0 <= float(fields[6]) <= 1.0
        assert -1.0 <= float(fields[7]) <= 1.0
        assert fields[8] == "0.000"       # timing off zeroes wall seconds
        assert int(fields[9]) >= 1
        assert "PLCC=" in capsys.readouterr().out

    def test_lr_grid_csv(self, small_csv, tmp_path):
        out = tmp_path / "run"
        assert main(_train_args(small_csv, str(out), **{"lr-grid": "1e-4,1e-3"},
                                lr=None)) == 0
        header, rows = _rows(out / "lr_grid.csv")
        assert header == "lr,plcc,srcc,val_loss,seconds,epochs,status"
        assert len(rows) == 2
        assert rows[0].startswith("0.0001,")
        assert rows[1].startswith("0.001,")
        assert all(row.endswith(",ok") for row in rows)

    def test_manifest_contents(self, small_csv, tmp_path):
        import hashlib
        out = tmp_path / "run"
        main(_train_args(small_csv, str(out)))
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["command"] == "train"
        assert doc["config"]["tau"] == 0.95
        assert doc["config"]["seed"] == 5
        digest = hashlib.sha256(open(small_csv, "rb").read()).hexdigest()
        assert doc["inputs"][small_csv] == digest
        assert any(p.endswith("model.json") for p in doc["outputs"])

    def test_manifest_written_before_training(self, small_csv, tmp_path):
        out = tmp_path / "run"
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(_train_args(small_csv, str(out), lr="1e200"))
        assert code == 1
        assert (out / "manifest.json").exists()
        assert not (out / "model.json").exists()

    def test_rerun_byte_identical(self, small_csv, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(_train_args(small_csv, str(out_a)))
        main(_train_args(small_csv, str(out_b)))
        for name in ("report.csv", "lr_grid.csv", "model.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_wall_timing_records_seconds(self, small_csv, tmp_path):
        out = tmp_path / "run"
        main(_train_args(small_csv, str(out), timing="wall",
                         **{"max-epochs": "120"}))
        _, rows = _rows(out / "lr_grid.csv")
        assert float(rows[0].split(",")[4]) > 0.0

    def test_tau_one_skips_reduction(self, small_csv, tmp_path):
        out = tmp_path / "run"
        assert main(_train_args(small_csv, str(out), tau="1.0")) == 0
        doc = json.loads((out / "model.json").read_text())
        assert doc["pca"] is None
        _, rows = _rows(out / "report.csv")
        assert rows[0].split(",")[2] == "1.00"

    def test_tau_below_one_embeds_pca(self, small_csv, tmp_path):
        out = tmp_path / "run"
        main(_train_args(small_csv, str(out)))
        doc = json.loads((out / "model.json").read_text())
        assert doc["pca"] is not None

    def test_fourier_path(self, small_csv, tmp_path):
        out = tmp_path / "run"
        argv = _train_args(small_csv, str(out), basis="fourier",
                           harmonics="3", **{"max-epochs": "5"})
        assert main(argv) == 0
        _, rows = _rows(out / "report.csv")
        assert rows[0].split(",")[1] == "fourier"

    def test_mlp_baseline_path(self, small_csv, tmp_path):
        out = tmp_path / "run"
        argv = _train_args(small_csv, str(out), basis="mlp",
                           **{"max-epochs": "3"})
        assert main(argv) == 0
        fields = _rows(out / "report.csv")[1][0].split(",")
        assert fields[1] == "mlp"
        assert fields[2] == "1.00"        # PCA bypassed for the baseline
        assert fields[4] == "6-1024-512-256-128-1"

    def test_invalid_tau_rejected(self, small_csv, tmp_path, capsys):
        assert main(_train_args(small_csv, str(tmp_path / "x"), tau="0.8")) == 1
        assert "tau" in capsys.readouterr().err

    def test_missing_data_flag(self, tmp_path, capsys):
        assert main(["train", "--out", str(tmp_path / "x")]) == 1
        assert "--data" in capsys.readouterr().err

    def test_missing_data_file(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err != ""


class TestConfigFile:
    def test_file_sets_values_flags_override(self, small_csv, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("# comment line\nbins = 5\nseed = 9\n")
        out_file = tmp_path / "file_only"
        code = main(["hist", "--data", small_csv, "--out", str(out_file),
                     "--config", str(conf)])
        assert code == 0
        assert len(_rows(out_file / "hist.csv")[1]) == 5
        out_flag = tmp_path / "flag_wins"
        code = main(["hist", "--data", small_csv, "--out", str(out_flag),
                     "--config", str(conf), "--bins", "3"])
        assert code == 0
        assert len(_rows(out_flag / "hist.csv")[1]) == 3

    def test_key_invalid_for_command(self, small_csv, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("order = 3\n")   # a train key, not a hist key
        code = main(["hist", "--data", small_csv, "--out",
                     str(tmp_path / "x"), "--config", str(conf)])
        assert code == 1
        assert "order" in capsys.readouterr().err

    def test_malformed_line(self, small_csv, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("just words\n")
        code = main(["hist", "--data", small_csv, "--out",
                     str(tmp_path / "x"), "--config", str(conf)])
        assert code == 1

    def test_config_can_supply_data_path(self, small_csv, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(f"data = {small_csv}\nbins = 4\n")
        out = tmp_path / "run"
        assert main(["hist", "--out", str(out), "--config", str(conf)]) == 0
        assert len(_rows(out / "hist.csv")[1]) == 4


class TestCrossCommand:
    def test_matches_train_report_on_test_split(self, small_csv, tmp_path):
        train_out = tmp_path / "train"
        main(_train_args(small_csv, str(train_out)))
        train_fields = _rows(train_out / "report.csv")[1][0].split(",")
        cross_out = tmp_path / "cross"
        code = main(["cross", "--data", small_csv, "--model",
                     str(train_out / "model.json"), "--split", "test",
                     "--seed", "5", "--out", str(cross_out)])
        assert code == 0
        cross_fields = _rows(cross_out / "cross.csv")[1][0].split(",")
        assert cross_fields[6] == train_fields[6]   # plcc
        assert cross_fields[7] == train_fields[7]   # srcc

    def test_test_split_defaults_to_training_seed(self, small_csv, tmp_path, capsys):
        # seeds 7 and 42 (the CLI default) give different test rows
        assert list(split(60, 7).test) != list(split(60, 42).test)
        train_out = tmp_path / "train"
        assert main(_train_args(small_csv, str(train_out), seed="7")) == 0
        train_fields = _rows(train_out / "report.csv")[1][0].split(",")
        capsys.readouterr()
        cross_out = tmp_path / "cross"
        code = main(["cross", "--data", small_csv, "--model",
                     str(train_out / "model.json"), "--split", "test",
                     "--out", str(cross_out)])
        assert code == 0
        assert "warning" not in capsys.readouterr().err
        cross_fields = _rows(cross_out / "cross.csv")[1][0].split(",")
        assert cross_fields[6:8] == train_fields[6:8]   # plcc, srcc
        manifest = json.loads((cross_out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 7

    def test_explicit_seed_differing_from_training_seed_warns(self, small_csv,
                                                              tmp_path, capsys):
        train_out = tmp_path / "train"
        assert main(_train_args(small_csv, str(train_out), seed="7")) == 0
        capsys.readouterr()
        code = main(["cross", "--data", small_csv, "--model",
                     str(train_out / "model.json"), "--split", "test",
                     "--seed", "42", "--out", str(tmp_path / "cross")])
        assert code == 0
        err = capsys.readouterr().err
        assert "warning: --seed 42 differs from the model's training seed 7" in err

    def test_whole_table_evaluation(self, small_csv, tmp_path):
        train_out = tmp_path / "train"
        main(_train_args(small_csv, str(train_out)))
        cross_out = tmp_path / "cross"
        code = main(["cross", "--data", small_csv, "--model",
                     str(train_out / "model.json"), "--out", str(cross_out)])
        assert code == 0
        assert (cross_out / "cross.csv").exists()

    def test_dim_mismatch_names_both_sizes(self, small_csv, wide_bin,
                                           tmp_path, capsys):
        train_out = tmp_path / "train"
        main(_train_args(small_csv, str(train_out)))
        code = main(["cross", "--data", wide_bin, "--model",
                     str(train_out / "model.json"), "--out",
                     str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert "6" in err and "2048" in err

    def test_model_flag_required(self, small_csv, tmp_path, capsys):
        code = main(["cross", "--data", small_csv, "--out", str(tmp_path / "x")])
        assert code == 1
        assert "--model" in capsys.readouterr().err


class TestPcaCommand:
    def test_low_rank_wide_table(self, wide_bin, tmp_path):
        out = tmp_path / "run"
        code = main(["pca", "--data", wide_bin, "--seed", "5",
                     "--taus", "0.90,0.95,1.00", "--out", str(out)])
        assert code == 0
        header, rows = _rows(out / "pca_report.csv")
        assert header == "tau,k,reduction_pct"
        assert rows[0] == "0.90,64,96.8750"
        assert rows[1] == "0.95,64,96.8750"
        assert rows[2] == "1.00,2048,0.0000"

    def test_k_nonincreasing_as_tau_decreases(self, small_csv, tmp_path):
        out = tmp_path / "run"
        code = main(["pca", "--data", small_csv, "--seed", "5",
                     "--taus", "1.00,0.95,0.90", "--out", str(out)])
        assert code == 0
        ks = [int(r.split(",")[1]) for r in _rows(out / "pca_report.csv")[1]]
        assert all(b <= a for a, b in zip(ks, ks[1:]))

    def test_tau_one_is_identity(self, small_csv, tmp_path):
        out = tmp_path / "run"
        code = main(["pca", "--data", small_csv, "--seed", "5",
                     "--taus", "1.00", "--out", str(out)])
        assert code == 0
        assert _rows(out / "pca_report.csv")[1] == ["1.00,6,0.0000"]


class TestSweepOrder:
    def test_two_orders(self, small_csv, tmp_path):
        out = tmp_path / "run"
        argv = _train_args(small_csv, str(out), **{"max-epochs": "10"})
        argv[0:1] = ["sweep-order"]
        argv += ["--orders", "1,2"]
        assert main(argv) == 0
        header, rows = _rows(out / "sweep_order.csv")
        assert header == "order,plcc,srcc,seconds"
        assert [r.split(",")[0] for r in rows] == ["1", "2"]
        for row in rows:
            assert -1.0 <= float(row.split(",")[1]) <= 1.0

    def test_default_is_four_orders(self, small_csv, tmp_path):
        out = tmp_path / "run"
        argv = _train_args(small_csv, str(out), **{"max-epochs": "3"})
        argv[0:1] = ["sweep-order"]
        assert main(argv) == 0
        assert len(_rows(out / "sweep_order.csv")[1]) == 4

    def test_orderless_basis_rejected(self, small_csv, tmp_path, capsys):
        argv = _train_args(small_csv, str(tmp_path / "x"), basis="gaussian_rbf")
        argv[0:1] = ["sweep-order"]
        assert main(argv) == 1
        assert "order" in capsys.readouterr().err

    def test_failed_orders_write_nan_rows_and_exit_nonzero(self, small_csv,
                                                           tmp_path):
        out = tmp_path / "run"
        argv = _train_args(small_csv, str(out), lr="1e200",
                           **{"max-epochs": "5"})
        argv[0:1] = ["sweep-order"]
        argv += ["--orders", "1,2"]
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(argv) == 1
        _, rows = _rows(out / "sweep_order.csv")
        assert rows == ["1,nan,nan,nan", "2,nan,nan,nan"]


class TestSweepLayers:
    def test_grid_and_baseline_speedup(self, small_csv, tmp_path):
        out = tmp_path / "run"
        argv = _train_args(small_csv, str(out), basis="chebyshev", order="3",
                           **{"max-epochs": "10"})
        argv[0:1] = ["sweep-layers"]
        assert main(argv) == 0
        header, rows = _rows(out / "sweep_layers.csv")
        assert header == "layers,tau,plcc,srcc,seconds,speedup"
        assert [r.split(",")[:2] for r in rows] == [
            ["6", "1.00"], ["4", "1.00"], ["4", "0.95"]]
        assert rows[0].split(",")[5] == "1.00"    # self-baseline
        # sweep timings are always measured, even without --timing wall
        assert float(rows[0].split(",")[4]) > 0.0

    def test_mlp_rejected(self, small_csv, tmp_path, capsys):
        argv = _train_args(small_csv, str(tmp_path / "x"), basis="mlp")
        argv[0:1] = ["sweep-layers"]
        assert main(argv) == 1
        assert "mlp" in capsys.readouterr().err


def _linear_probe_bundle(d, slope, offset):
    """Model file payload predicting slope * x0 + offset."""
    net = init_network([d, 1], BasisSpec.taylor(1), Rng(0))
    for layer in net.layers:
        layer.coeffs[...] = 0.0
    net.layers[0].coeffs[0, 0, 1] = slope
    std = Standardizer(means=np.zeros(d), stds=np.ones(d), epsilon=0.0)
    return ModelBundle(net=net, standardizer=std, target_mean=offset,
                       target_std=1.0, meta={"basis": f"probe{slope:g}"})


class TestCompareCommand:
    def test_model_against_itself(self, small_csv, tmp_path):
        model = tmp_path / "m.json"
        save_model(model, _linear_probe_bundle(6, 1.0, 0.0))
        out = tmp_path / "run"
        code = main(["compare", "--data", small_csv, "--model-a", str(model),
                     "--model-b", str(model), "--out", str(out)])
        assert code == 0
        header, rows = _rows(out / "compare.csv")
        assert header == ("model_a,model_b,plcc_a,srcc_a,plcc_b,srcc_b,"
                          "t_stat,p_value,significant")
        fields = rows[0].split(",")
        assert float(fields[6]) == 0.0
        assert float(fields[7]) == 1.0
        assert fields[8] == "false"

    def test_systematic_offset_is_significant(self, small_csv, tmp_path):
        model_a = tmp_path / "a.json"
        model_b = tmp_path / "b.json"
        save_model(model_a, _linear_probe_bundle(6, 1.0, 0.0))
        save_model(model_b, _linear_probe_bundle(6, 2.0, 5.0))
        out = tmp_path / "run"
        code = main(["compare", "--data", small_csv, "--model-a", str(model_a),
                     "--model-b", str(model_b), "--out", str(out)])
        assert code == 0
        fields = _rows(out / "compare.csv")[1][0].split(",")
        assert fields[0] == "probe1"
        assert fields[1] == "probe2"
        assert fields[8] == "true"

    def test_both_models_required(self, small_csv, tmp_path, capsys):
        code = main(["compare", "--data", small_csv, "--model-a", "x.json",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "model" in capsys.readouterr().err


class TestHistCommand:
    def test_default_hundred_bins(self, small_csv, tmp_path):
        out = tmp_path / "run"
        assert main(["hist", "--data", small_csv, "--out", str(out)]) == 0
        header, rows = _rows(out / "hist.csv")
        assert header == "bin_lo,bin_hi,count"
        assert len(rows) == 100
        assert sum(int(r.split(",")[2]) for r in rows) == 60

    def test_evenly_spread_scores_fill_evenly(self, tmp_path):
        from kanreg.data import FeatureTable
        table = FeatureTable("flat", np.zeros((500, 1)),
                             np.linspace(0.0, 100.0, 500))
        path = tmp_path / "flat.csv"
        save_table(table, path)
        out = tmp_path / "run"
        assert main(["hist", "--data", str(path), "--bins", "10",
                     "--out", str(out)]) == 0
        counts = [int(r.split(",")[2]) for r in _rows(out / "hist.csv")[1]]
        assert counts == [50] * 10

    def test_uniform_random_scores_roughly_flat(self, tmp_path):
        from kanreg.data import FeatureTable
        rng = Rng(12)
        scores = 100.0 * rng.uniforms(2000)
        table = FeatureTable("u", np.zeros((2000, 1)), scores)
        path = tmp_path / "u.bin"
        save_table(table, path)
        out = tmp_path / "run"
        assert main(["hist", "--data", str(path), "--bins", "10",
                     "--out", str(out)]) == 0
        counts = np.array([int(r.split(",")[2])
                           for r in _rows(out / "hist.csv")[1]])
        # loose uniformity: every bin within a factor of two of its mean
        assert counts.min() > 100 and counts.max() < 400

    def test_bad_bins_rejected(self, small_csv, tmp_path):
        assert main(["hist", "--data", small_csv, "--bins", "0",
                     "--out", str(tmp_path / "x")]) == 1
