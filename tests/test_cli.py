"""End-to-end command-line runs on small synthetic tables."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kanreg.basis import BasisSpec
from kanreg import cli, training
from kanreg.cli import REPORT_HEADER, main
from kanreg.data import (FeatureTable, Standardizer, fit_standardizer, load_table,
                         make_synthetic, save_table, split)
from kanreg.errors import KanregError
from kanreg.linalg import Rng
from kanreg.metrics import plcc
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
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["config"]["lr_grid"] == [1e-4, 1e-3]

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
        doc = json.loads((out / "model.json").read_bytes().partition(b"\n")[0])
        assert doc["pca"] is None
        _, rows = _rows(out / "report.csv")
        assert rows[0].split(",")[2] == "1.00"

    def test_tau_below_one_embeds_pca(self, small_csv, tmp_path):
        out = tmp_path / "run"
        main(_train_args(small_csv, str(out)))
        doc = json.loads((out / "model.json").read_bytes().partition(b"\n")[0])
        assert doc["pca"] is not None

    def test_bsrbf_header_holds_its_grid_flags(self, small_csv, tmp_path):
        out = tmp_path / "run"
        argv = _train_args(small_csv, str(out), basis="bsrbf", tau="1.0",
                           **{"grid-size": "6", "degree": "2", "max-epochs": "2"})
        assert main(argv) == 0
        doc = json.loads((out / "model.json").read_bytes().partition(b"\n")[0])
        assert doc["basis"] == {"family": "bsrbf", "grid_size": 6, "degree": 2}

    def test_fourier_path(self, small_csv, tmp_path):
        out = tmp_path / "run"
        argv = _train_args(small_csv, str(out), basis="fourier",
                           harmonics="3", **{"max-epochs": "5"})
        assert main(argv) == 0
        _, rows = _rows(out / "report.csv")
        assert rows[0].split(",")[1] == "fourier"

    def test_wavelet_alias_names_the_family(self, small_csv, tmp_path):
        out = tmp_path / "run"
        argv = _train_args(small_csv, str(out), basis="wavelet", **{"max-epochs": "3"})
        assert main(argv) == 0
        assert _rows(out / "report.csv")[1][0].split(",")[1] == "wavelet_mexican_hat"
        assert json.loads((out / "manifest.json").read_text())["config"]["basis"] == \
            "wavelet_mexican_hat"

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

    @pytest.mark.parametrize("argv", [["train", "--lr-grid", "1e-3,x"],
                                      ["pca", "--taus", "0.90,abc"],
                                      ["sweep-order", "--orders", "1,x"],
                                      ["pca", "--taus", "1.5"],
                                      ["pca", "--taus", "0"],
                                      ["sweep-order", "--orders", "0,-1"],
                                      ["train", "--lr-grid", "0,1e-3"],
                                      ["sweep-order", "--orders", ","],
                                      ["sweep-order", "--orders", "0,1"]],
                             ids=["lr-grid", "taus", "orders", "taus-above-one",
                                  "taus-zero", "orders-negative", "lr-grid-zero",
                                  "orders-empty", "orders-zero"])
    def test_malformed_list_fails_before_the_output_directory(self, small_csv, tmp_path,
                                                              capsys, argv):
        out = tmp_path / "x"
        assert main(argv + ["--data", small_csv, "--out", str(out)]) == 1
        assert argv[1] in capsys.readouterr().err
        assert not out.exists()   # so no manifest.json either

    @pytest.mark.parametrize("argv, field", [(["train", "--batch", "0"], "batch"),
                                             (["train", "--order", "-1"], "order"),
                                             (["train", "--order", "0"], "--order"),
                                             (["train", "--basis", "chebyshev", "--order", "0"],
                                              "--order"),
                                             (["train", "--basis", "jacobi", "--order", "0"],
                                              "--order"),
                                             (["train", "--basis", "hermite", "--order", "0"],
                                              "--order"),
                                             (["train", "--basis", "fourier", "--harmonics",
                                               "0"], "--harmonics"),
                                             (["train", "--max-epochs", "0"], "max_epochs"),
                                             (["train", "--l1", "-1"], "l1"),
                                             (["hist", "--bins", "0"], "bins"),
                                             (["sweep-order", "--patience", "0"], "patience"),
                                             (["train", "--lr", "0"], "lr"),
                                             (["train", "--lr", "nan"], "lr"),
                                             (["train", "--l1", "nan"], "l1"),
                                             (["train", "--basis", "jacobi", "--alpha", "nan"],
                                              "alpha"),
                                             (["train", "--basis", "jacobi", "--beta", "nan"],
                                              "beta")],
                             ids=["batch", "order", "order-zero", "chebyshev-order-zero",
                                  "jacobi-order-zero", "hermite-order-zero", "harmonics-zero",
                                  "max-epochs", "l1", "bins", "patience",
                                  "lr-zero", "lr-nan", "l1-nan", "alpha-nan", "beta-nan"])
    def test_out_of_range_flag_fails_before_the_output_directory(self, small_csv, tmp_path,
                                                                 capsys, argv, field):
        out = tmp_path / "x"
        assert main(argv + ["--data", small_csv, "--out", str(out)]) == 1
        assert field in capsys.readouterr().err
        assert not out.exists()   # so no manifest.json either

    @pytest.mark.parametrize("command", ["train", "sweep-order", "sweep-layers"])
    def test_too_few_rows_fail_before_the_output_directory(self, tmp_path, capsys,
                                                           command):
        data = tmp_path / "ten.csv"
        save_table(make_synthetic(10, 6, 2), data)
        out = tmp_path / "x"
        assert main([command, "--data", str(data), "--out", str(out),
                     "--lr", "1e-3", "--max-epochs", "5"]) == 1
        err = capsys.readouterr().err
        assert "2 validation rows, got 7 and 1" in err
        assert "at least 14 rows" in err
        assert not out.exists()   # so no manifest.json either

    def test_fourteen_rows_train(self, tmp_path):
        data = tmp_path / "fourteen.csv"
        save_table(make_synthetic(14, 6, 2), data)
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(out),
                     "--lr", "1e-3", "--max-epochs", "5"]) == 0
        assert (out / "model.json").exists()

    @pytest.mark.parametrize("seed, rule", [("18446744073709551616", "must fit in 64 bits"),
                                            ("1.5", "must be an integer")])
    def test_bad_seed_flag_names_the_rule(self, small_csv, tmp_path, capsys, seed, rule):
        with pytest.raises(SystemExit) as exc:
            main(["hist", "--data", small_csv, "--out", str(tmp_path / "x"), "--seed", seed])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --seed: seed {rule}" in err
        assert "_parse_u64" not in err

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

    @pytest.mark.parametrize("command, line", [("cross", "split = tset"),
                                               ("hist", "timing = wal"),
                                               ("hist", "seed = 18446744073709551616")])
    def test_value_outside_choices_names_the_line(self, small_csv, tmp_path, capsys,
                                                  command, line):
        conf = tmp_path / "bad.conf"
        conf.write_text(f"# a typo on line 2\n{line}\n")
        out = tmp_path / "x"
        code = main([command, "--data", small_csv, "--out", str(out),
                     "--config", str(conf)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"bad value for {line.split(' = ')[0]!r}" in err
        assert "line 2" in err
        assert not out.exists()

    def test_unreadable_file_is_a_named_error(self, small_csv, tmp_path, capsys):
        out = tmp_path / "x"
        code = main(["hist", "--data", small_csv, "--out", str(out),
                     "--config", str(tmp_path / "absent.conf")])
        assert code == 1
        assert "cannot read config file" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_file_is_a_named_error(self, small_csv, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_bytes(b"bins = 5\n# caf\xe9\n")
        out = tmp_path / "x"
        code = main(["hist", "--data", small_csv, "--out", str(out), "--config", str(conf)])
        assert code == 1
        assert "bad.conf is not UTF-8 text: line 2, byte offset 14" in capsys.readouterr().err
        assert not out.exists()

    def test_nul_byte_in_a_value_is_a_named_error(self, small_csv, tmp_path, capsys):
        conf = tmp_path / "nul.conf"
        conf.write_text("bins = 5\nout = " + str(tmp_path / "a\0b") + "\n")
        assert main(["hist", "--data", small_csv, "--config", str(conf)]) == 1
        assert "NUL byte in the value of 'out': line 2" in capsys.readouterr().err

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

    def test_malformed_model_file_exits_with_named_error(self, small_csv, tmp_path,
                                                         capsys):
        model = tmp_path / "m.json"
        save_model(model, _linear_probe_bundle(6, 1.0, 0.0))
        doc = json.loads(model.read_bytes().partition(b"\n")[0])
        doc["layer_dims"] = ["x", 1]
        model.write_text(json.dumps(doc))
        code = main(["cross", "--data", small_csv, "--model", str(model),
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "layer_dims[0] must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("tau", "abc"), ("k", "x"),
                                            ("lr", None), ("epochs", "1.5"),
                                            ("seed", "x"), ("seed", -1)])
    def test_malformed_meta_exits_with_named_error(self, small_csv, tmp_path, capsys,
                                                   key, value):
        model = tmp_path / "m.json"
        bundle = _linear_probe_bundle(6, 1.0, 0.0)
        bundle.meta[key] = value
        save_model(model, bundle)
        code = main(["cross", "--data", small_csv, "--model", str(model),
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert f"meta.{key} is malformed: {value!r}" in capsys.readouterr().err

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

    @pytest.mark.parametrize("n", [3, 4])
    def test_one_train_row_fails_before_the_output_directory(self, tmp_path, capsys, n):
        data = tmp_path / "tiny.csv"
        save_table(make_synthetic(n, 6, 2), data)
        out = tmp_path / "x"
        assert main(["pca", "--data", str(data), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "pca fits on the train split, which needs 2 rows, got 1" in err
        assert "at least 5 rows" in err
        assert not out.exists()   # so no manifest.json either

    def test_five_rows_report(self, tmp_path):
        data = tmp_path / "five.csv"
        save_table(make_synthetic(5, 6, 2), data)
        out = tmp_path / "run"
        assert main(["pca", "--data", str(data), "--out", str(out)]) == 0
        assert len(_rows(out / "pca_report.csv")[1]) == 3


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

    def test_failed_order_gives_a_nan_row_and_the_next_order_still_runs(self, small_csv,
                                                                         tmp_path, capsys,
                                                                         monkeypatch):
        # the first trial scores constant validation predictions, so its
        # correlation is undefined
        calls = []

        def constant_first(a, b):
            calls.append(None)
            return plcc(a * 0.0 if len(calls) == 1 else a, b)

        monkeypatch.setattr(training, "plcc", constant_first)
        out = tmp_path / "run"
        argv = _train_args(small_csv, str(out), **{"max-epochs": "5"})
        argv[0:1] = ["sweep-order"]
        argv += ["--orders", "1,2"]
        assert main(argv) == 1
        _, rows = _rows(out / "sweep_order.csv")
        assert rows[0] == "1,nan,nan,nan"
        order, *values = rows[1].split(",")
        assert order == "2" and all(np.isfinite(float(v)) for v in values)
        err = capsys.readouterr().err
        assert "FAILED order=1: " in err and "correlation is undefined" in err
        assert "order=2" not in err

    def test_taylor_orders_up_to_6_stay_above_a_floor(self, tmp_path):
        # orders above 2 were once unstable; every order must now train
        data = tmp_path / "quadratic.csv"
        save_table(make_synthetic(200, 32, 4, 0.0, "quadratic", 3), data)
        out = tmp_path / "run"
        assert main(["sweep-order", "--data", str(data), "--out", str(out),
                     "--orders", "1,2,3,4,6", "--lr-grid", "1e-3,1e-2",
                     "--max-epochs", "60", "--seed", "5"]) == 0
        _, rows = _rows(out / "sweep_order.csv")
        assert [r.split(",")[0] for r in rows] == ["1", "2", "3", "4", "6"]
        for row in rows:
            values = [float(v) for v in row.split(",")[1:]]
            assert all(np.isfinite(values)) and values[0] >= 0.8, row

    def test_trial_out_of_memory_keeps_the_other_rows(self, small_csv, tmp_path,
                                                      monkeypatch, capsys):
        def init(dims, spec, rng):
            if spec.order == 2:
                raise MemoryError("Unable to allocate 7.28 TiB")
            return init_network(dims, spec, rng)

        monkeypatch.setattr(cli, "init_network", init)
        out = tmp_path / "run"
        argv = _train_args(small_csv, str(out), **{"max-epochs": "5"})
        argv[0:1] = ["sweep-order"]
        argv += ["--orders", "1,2,3"]
        assert main(argv) == 1
        _, rows = _rows(out / "sweep_order.csv")
        assert [r.split(",")[0] for r in rows] == ["1", "2", "3"]
        assert rows[1] == "2,nan,nan,nan"
        for row in (rows[0], rows[2]):
            assert all(np.isfinite(float(v)) for v in row.split(",")[1:])
        err = capsys.readouterr().err
        assert "FAILED order=2: Unable to allocate 7.28 TiB" in err
        assert "order=1" not in err and "order=3" not in err

    def test_rerun_rows_identical_apart_from_seconds(self, small_csv, tmp_path):
        argv = _train_args(small_csv, str(tmp_path / "run"), **{"max-epochs": "5"})
        argv[0:1] = ["sweep-order"]
        argv += ["--orders", "1,2"]
        runs = []
        for _ in range(2):
            assert main(argv) == 0
            header, rows = _rows(tmp_path / "run" / "sweep_order.csv")
            assert header.endswith(",seconds")
            runs.append([row.rsplit(",", 1)[0] for row in rows])
        assert runs[0] == runs[1]


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

    def test_features_prepared_once_per_tau(self, small_csv, tmp_path, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return fit_standardizer(*args, **kwargs)

        monkeypatch.setattr(cli, "fit_standardizer", counting)
        argv = _train_args(small_csv, str(tmp_path / "run"), basis="chebyshev",
                           order="3", **{"max-epochs": "2"})
        argv[0:1] = ["sweep-layers"]
        assert main(argv) == 0
        # two distinct taus, each fitting a standardizer and a final scaler
        assert len(calls) == 4

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
    net.layers[0].coeffs[0, 1, 0] = slope
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

    def test_split_all_scores_the_loaded_rows_uncopied(self, small_csv, tmp_path,
                                                       monkeypatch):
        tables, scored = [], []

        def load(*args):
            tables.append(load_table(*args))
            return tables[-1]

        def predict(bundle, feats):
            scored.append(feats)
            return real_predict(bundle, feats)

        real_predict = cli.predict
        monkeypatch.setattr(cli, "load_table", load)
        monkeypatch.setattr(cli, "predict", predict)
        model = tmp_path / "m.json"
        save_model(model, _linear_probe_bundle(6, 1.0, 0.0))
        assert main(["compare", "--data", small_csv, "--model-a", str(model),
                     "--model-b", str(model), "--split", "all",
                     "--out", str(tmp_path / "run")]) == 0
        assert len(tables) == 1 and len(scored) == 2
        assert all(np.shares_memory(feats, tables[0].features) for feats in scored)

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

    def test_same_mean_different_accuracy_is_significant(self, tmp_path):
        # model a predicts the score exactly and model b adds centred noise:
        # their predictions agree in mean, so only the errors separate them
        scores = np.linspace(0.0, 100.0, 60)
        noise = np.random.default_rng(3).normal(size=60)
        noise -= noise.mean()
        data = tmp_path / "t.csv"
        save_table(FeatureTable("t", np.column_stack([scores, noise]), scores), data)
        model_a = tmp_path / "a.json"
        model_b = tmp_path / "b.json"
        save_model(model_a, _linear_probe_bundle(2, 1.0, 0.0))
        noisy = _linear_probe_bundle(2, 1.0, 0.0)
        noisy.net.layers[0].coeffs[0, 1, 1] = 1.0
        save_model(model_b, noisy)
        out = tmp_path / "run"
        assert main(["compare", "--data", str(data), "--model-a", str(model_a),
                     "--model-b", str(model_b), "--out", str(out)]) == 0
        fields = _rows(out / "compare.csv")[1][0].split(",")
        assert float(fields[6]) < 0.0      # model a has the smaller errors
        assert fields[8] == "true"

    def test_test_split_defaults_to_training_seed(self, small_csv, tmp_path, capsys):
        # seeds 7 and 42 (the CLI default) give different test rows
        assert list(split(60, 7).test) != list(split(60, 42).test)
        reports = []
        for name, lr in (("a", "1e-3"), ("b", "1e-2")):
            assert main(_train_args(small_csv, str(tmp_path / name), seed="7", lr=lr)) == 0
            reports.append(_rows(tmp_path / name / "report.csv")[1][0].split(","))
        capsys.readouterr()
        out = tmp_path / "run"
        code = main(["compare", "--data", small_csv, "--split", "test",
                     "--model-a", str(tmp_path / "a" / "model.json"),
                     "--model-b", str(tmp_path / "b" / "model.json"), "--out", str(out)])
        assert code == 0
        assert "warning" not in capsys.readouterr().err
        fields = _rows(out / "compare.csv")[1][0].split(",")
        assert fields[2:4] == reports[0][6:8]   # plcc, srcc of model a
        assert fields[4:6] == reports[1][6:8]   # plcc, srcc of model b
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 7

    def test_models_with_different_seeds_need_an_explicit_seed(self, small_csv, tmp_path,
                                                                capsys):
        for name, seed in (("a", "7"), ("b", "9")):
            assert main(_train_args(small_csv, str(tmp_path / name), seed=seed)) == 0
        capsys.readouterr()
        argv = ["compare", "--data", small_csv, "--split", "test",
                "--model-a", str(tmp_path / "a" / "model.json"),
                "--model-b", str(tmp_path / "b" / "model.json"), "--out", str(tmp_path / "x")]
        assert main(argv) == 1
        assert "model-a with seed 7 and model-b with seed 9" in capsys.readouterr().err
        assert main(argv + ["--seed", "7"]) == 0
        err = capsys.readouterr().err
        assert "warning: --seed 7 differs from the model's training seed 9" in err

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

    def test_non_utf8_csv_is_a_named_error(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_bytes(b"f0,mos\n1\xff,2\n")
        out = tmp_path / "x"
        assert main(["hist", "--data", str(data), "--out", str(out)]) == 1
        assert "bad.csv is not UTF-8 text: line 2, byte offset 8" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_bins_rejected(self, small_csv, tmp_path):
        assert main(["hist", "--data", small_csv, "--bins", "0",
                     "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_bins_above_ceiling_fails_before_the_output_directory(self, small_csv, tmp_path,
                                                                  capsys, source):
        # A count past the ceiling would only reach the histogram's allocation.
        conf = tmp_path / "hist.conf"
        conf.write_text("bins = 1000001\n")
        extra = ["--bins", "1000001"] if source == "flag" else ["--config", str(conf)]
        out = tmp_path / "x"
        assert main(["hist", "--data", small_csv, "--out", str(out)] + extra) == 1
        assert "--bins" in capsys.readouterr().err
        assert not out.exists()   # so no manifest.json either


class TestMalformedInputs:
    """Damaged tables and config files end in a named error and exit 1."""

    def test_unclosed_quote_is_a_named_error(self, tmp_path, capsys):
        # the quoted field runs to the end of the file, past csv's field limit
        data = tmp_path / "quote.csv"
        data.write_text('f0,mos\n"1,2\n' + "".join(f"{i},{i}.5\n" for i in range(20000)))
        out = tmp_path / "x"
        assert main(["hist", "--data", str(data), "--out", str(out)]) == 1
        assert "quote.csv is not valid CSV (field larger than field limit" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["csv", "bin", "config"])
    def test_byte_flips_and_truncations_raise_only_named_errors(self, tmp_path, capsys,
                                                                kind):
        data = tmp_path / "t.csv"
        save_table(make_synthetic(5, 2, 1, 0.0, "quadratic", 173), data)
        path = tmp_path / f"damaged.{kind}"
        if kind == "config":
            path.write_text("# hist settings\nseed = 9\nbins = 5\nformat = csv\n"
                            "timing = off\n")
            read = lambda: cli._read_config_file(str(path), cli._COMMANDS["hist"][2], "hist")
            argv = ["hist", "--data", str(data), "--config", str(path)]
        else:
            save_table(load_table(data), path, kind)
            read = lambda: load_table(path, kind)
            argv = ["hist", "--data", str(path), "--format", kind]
        clean = path.read_bytes()
        rng = np.random.default_rng(179)
        failed = 0
        for _ in range(100):
            blob = bytearray(clean)
            if rng.random() < 0.75:
                blob[rng.integers(len(blob))] = rng.integers(256)
            else:
                del blob[rng.integers(len(blob)):]
            path.write_bytes(blob)
            try:
                read()
            except (KanregError, OSError):
                failed += 1
                assert main(argv + ["--out", str(tmp_path / "x")]) == 1
        assert 0 < failed < 100
        capsys.readouterr()


def _cap_address_space(limit=2 << 30):
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


class TestOutOfMemory:
    @pytest.mark.parametrize("flags", [["--order", "100000000"],
                                       ["--basis", "fourier", "--harmonics", "100000000"],
                                       ["--basis", "bspline", "--grid-size", "100000000"]])
    def test_is_an_error_line_not_a_traceback(self, small_csv, tmp_path, flags):
        # A basis of 10**8 functions asks for hundreds of GiB at init; in a
        # child whose address space is capped the allocation fails at once.
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "kanreg.cli", "train", "--data", small_csv,
             "--out", str(tmp_path / "out"), "--lr", "1e-3", *flags],
            env=dict(os.environ, PYTHONPATH=str(src)), preexec_fn=_cap_address_space,
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 1, proc.stderr
        assert "kanreg train: error: " in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_bare_memory_error_says_out_of_memory(self, small_csv, tmp_path, monkeypatch,
                                                  capsys):
        def init(dims, spec, rng):
            raise MemoryError

        monkeypatch.setattr(cli, "init_network", init)
        assert main(_train_args(small_csv, str(tmp_path / "run"))) == 1
        assert capsys.readouterr().err == "kanreg train: error: out of memory\n"
