import argparse
import json
import re
import shutil
import time

import numpy as np
import pytest

from fftmix import cli, hpxio
from fftmix import model as mdl


MICRO_MODEL = {
    "stage_channels": [8, 8, 8, 8],
    "stage_blocks": [1, 1, 1, 1],
    "mixer_layout": ["global2d", "global2d", "global2d", "global2d"],
    "embed_dims": [4, 4, 4, 4],
    "num_classes": 4,
    "input_size": [32, 32],
}


# HPX1 header of a [32, 32, 3] tensor: magic, rank 3, then the three extents.
HPX1_32x32x3 = b"HPX1\x03\x00\x00\x00" + b"\x20\x00\x00\x00" * 2 + b"\x03\x00\x00\x00"
HPX1_65536x65536 = b"HPX1\x02\x00\x00\x00" + b"\x00\x00\x01\x00" * 2


def write_config(tmp_path, **overrides):
    config = {
        "model": MICRO_MODEL,
        "train": {"total_epochs": 1, "warmup_epochs": 0, "seed": 0},
        "data": {"train_size": 32, "val_size": 16, "image_size": 32, "num_classes": 4, "seed": 1},
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("clirun")
    cfg = write_config(tmp)
    out = tmp / "run"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    return out


class TestParse:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["bogus"])
        assert exc.value.code == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["train", "--config", str(bad), "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_unknown_config_keys_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, optimizer={"kind": "sgd"})
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["train", "--config", str(cfg), "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_unknown_nested_key_exits_2(self, tmp_path):
        for key in ("lr", "hflip"):
            cfg = write_config(tmp_path, train={"total_epochs": 1, "warmup_epochs": 0, key: 1.0})
            with pytest.raises(SystemExit) as exc:
                cli.parse_args(["train", "--config", str(cfg), "--out", str(tmp_path)])
            assert exc.value.code == 2, key

    def test_invalid_config_values_exit_2(self, tmp_path):
        for train in (
            {"total_epochs": 1, "warmup_epochs": 0, "label_smoothing": 1.5},
            {"total_epochs": 1, "warmup_epochs": 0, "batch_size": 0},
            {"total_epochs": 0, "warmup_epochs": -1},
            {"total_epochs": 2, "warmup_epochs": -1},
        ):
            cfg = write_config(tmp_path, train=train)
            with pytest.raises(SystemExit) as exc:
                cli.parse_args(["train", "--config", str(cfg), "--out", str(tmp_path)])
            assert exc.value.code == 2, train

    def test_invalid_model_sections_exit_2(self, tmp_path):
        for model in (
            {"preset": "hpx-s4", "input_size": 33},
            {"preset": "hpx-s4", "input_size": [48, 48]},
            {"preset": "nope-s4"},
            {"preset": 5},
            {**MICRO_MODEL, "stage_channels": 5},
            {**MICRO_MODEL, "stage_blocks": [-1, 1, 1, 1]},
            {**MICRO_MODEL, "num_classes": 0},
        ):
            cfg = write_config(tmp_path, model=model)
            with pytest.raises(SystemExit) as exc:
                cli.parse_args(["train", "--config", str(cfg), "--out", str(tmp_path)])
            assert exc.value.code == 2, model

    @pytest.mark.parametrize("key,value", [("train_size", -5), ("val_size", -1), ("num_classes", 0),
                                           ("image_size", 7), ("num_classes", 8)])
    def test_data_sizes_that_break_training_exit_2(self, tmp_path, capsys, key, value):
        data = {"train_size": 32, "val_size": 16, "image_size": 32, "num_classes": 4, "seed": 1, key: value}
        cfg = write_config(tmp_path, data=data)
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert f"fftmix train: invalid config: {key} must" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section,key,value", [
        ("train", "lr_peak", "0.001"),
        ("train", "lr_peak", float("nan")),
        pytest.param("train", "lr_peak", 10**400, id="train-lr_peak-int-beyond-float"),
        ("train", "weight_decay", -1.0),
        ("train", "batch_size", 2.5),
        ("data", "train_size", 2.5),
        ("data", "image_size", 32.0),
        ("data", "seed", "x"),
    ])
    def test_wrongly_typed_or_negative_values_exit_2_naming_the_key(self, tmp_path, capsys, section, key, value):
        base = {"train": {"total_epochs": 1, "warmup_epochs": 0},
                "data": {"train_size": 32, "val_size": 16, "image_size": 32, "num_classes": 4, "seed": 1}}
        cfg = write_config(tmp_path, **{section: {**base[section], key: value}})
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "fftmix train: invalid config: " in err and (f"'{key}'" in err or f" {key} must" in err)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("key,value", [
        ("input_size", [0, 0]),
        ("stage_channels", [8, 0, 8, 8]),
        ("mixer_layout", ["global2d", "global2d", "attention", "global2d"]),
        ("embed_dims", [3, 3, 3, 3]),
    ])
    def test_model_geometry_exits_2_naming_the_key(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, model={**MICRO_MODEL, key: value})
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
        assert f"fftmix train: invalid config: config key '{key}' at stage" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_non_object_config_exits_2(self, tmp_path):
        cfg = tmp_path / "list.json"
        cfg.write_text("[]")
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["train", "--config", str(cfg), "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_empty_split_exits_1(self, tmp_path, capsys):
        data = {"train_size": 32, "val_size": 0, "image_size": 32, "num_classes": 4, "seed": 1}
        cfg = write_config(tmp_path, data=data)
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert "error: the validation split is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("odd", ["mixed shapes", "no images"])
    def test_bad_image_directory_exits_1(self, tmp_path, capsys, odd):
        data = tmp_path / "data"
        for split in ("train", "val"):
            (data / split / "a").mkdir(parents=True)
            hpxio.write_hpx1(data / split / "a" / "0.hpx1", np.zeros((32, 32, 3)))
        if odd == "mixed shapes":
            hpxio.write_hpx1(data / "train" / "a" / "1.hpx1", np.zeros((48, 32, 3)))
            message = f"the train split mixes image shapes: {data / 'train' / 'a' / '1.hpx1'} is [48, 32, 3]"
        else:
            (data / "val" / "a" / "0.hpx1").unlink()
            message = f"the val split holds no .hpx1 images under {data / 'val'}"
        cfg = write_config(tmp_path, data={"source": "directory", "path": str(data), "num_classes": 4})
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert f"fftmix train: error: {message}" in capsys.readouterr().err

    def test_main_maps_usage_errors_to_2(self):
        assert cli.main(["bogus"]) == 2

    def test_one_dispatch_table_holds_every_subcommand(self):
        (sub,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(cli._DISPATCH) == set(sub.choices)


class TestModelInfo:
    def test_preset_info_prints_ladder_and_params(self, capsys):
        assert cli.main(["model", "info", "--preset", "hpx-s18"]) == 0
        out = capsys.readouterr().out
        assert "stage 1: 56x56 x64" in out
        assert "params: 27489166" in out

    def test_checkpoint_round_trip_reproduces_config_echo(self, trained_run, capsys):
        assert cli.main(["model", "info", "--checkpoint", str(trained_run / "checkpoint")]) == 0
        from_ckpt = capsys.readouterr().out.splitlines()[0]
        expected = json.loads(from_ckpt.removeprefix("config: "))
        for key, val in MICRO_MODEL.items():
            assert expected[key] == val

    def test_unknown_preset_is_runtime_error(self):
        assert cli.main(["model", "info", "--preset", "vgg-16"]) == 1

    @pytest.mark.parametrize("flag", ["--input-size", "--num-classes"])
    def test_sizes_below_one_exit_2(self, capsys, flag):
        # --input-size 0 once printed a 224 px model and exited 0.
        assert cli.main(["model", "info", "--preset", "hpx-s4", flag, "0"]) == 2
        assert f"{flag}: must be at least 1, got 0" in capsys.readouterr().err


class TestSubcommands:
    def test_train_outputs(self, trained_run):
        assert (trained_run / "history.csv").exists()
        assert (trained_run / "manifest.json").exists()
        assert (trained_run / "checkpoint" / "manifest.json").exists()

    def test_erf_outputs(self, trained_run, tmp_path):
        out = tmp_path / "erf"
        code = cli.main(
            ["erf", "--model", str(trained_run / "checkpoint"), "--images", "synthetic",
             "--num", "2", "--out", str(out)]
        )
        assert code == 0
        assert (out / "erf.pgm").exists()
        assert (out / "erf.hpx1").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "erf"
        grid = hpxio.read_hpx1(out / "erf.hpx1")
        assert grid.shape == (32, 32)
        assert abs(grid.max() - 1.0) < 1e-6

    def test_erf_deterministic_outputs(self, trained_run, tmp_path):
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            cli.main(["erf", "--model", str(trained_run / "checkpoint"), "--images", "synthetic",
                      "--num", "2", "--out", str(out), "--seed", "7"])
            outs.append(out)
        a = (outs[0] / "erf.hpx1").read_bytes()
        b = (outs[1] / "erf.hpx1").read_bytes()
        assert a == b
        m1 = json.loads((outs[0] / "manifest.json").read_text())["config_hash"]
        m2 = json.loads((outs[1] / "manifest.json").read_text())["config_hash"]
        assert m1 == m2

    def test_erf_from_image_directory(self, trained_run, tmp_path):
        imgdir = tmp_path / "imgs"
        imgdir.mkdir()
        rng = np.random.default_rng(0)
        for i in range(2):
            hpxio.write_hpx1(imgdir / f"img{i}.hpx1", rng.normal(size=(32, 32, 3)))
        out = tmp_path / "erfdir"
        code = cli.main(
            ["erf", "--model", str(trained_run / "checkpoint"), "--images", str(imgdir),
             "--num", "2", "--out", str(out)]
        )
        assert code == 0
        assert hpxio.read_hpx1(out / "erf.hpx1").shape == (32, 32)

    @pytest.mark.parametrize("num", ["-1", "0"])
    def test_erf_num_below_one_exits_2(self, trained_run, tmp_path, capsys, num):
        imgdir = tmp_path / "imgs"
        imgdir.mkdir()
        for i in range(3):
            hpxio.write_hpx1(imgdir / f"img{i}.hpx1", np.zeros((32, 32, 3)))
        out = tmp_path / "o"
        code = cli.main(["erf", "--model", str(trained_run / "checkpoint"), "--images", str(imgdir),
                         "--num", num, "--out", str(out)])
        assert code == 2
        assert f"argument --num: must be at least 1, got {num}" in capsys.readouterr().err
        assert not out.exists()

    def test_erf_truncated_image_exits_1(self, trained_run, tmp_path, capsys):
        # A cut header, and a header alone that claims a 16 GiB payload.
        for name, raw in [("short", b"HPX1\x03\x00"), ("huge", HPX1_65536x65536)]:
            imgdir = tmp_path / name
            imgdir.mkdir()
            (imgdir / f"{name}.hpx1").write_bytes(raw)
            code = cli.main(
                ["erf", "--model", str(trained_run / "checkpoint"), "--images", str(imgdir),
                 "--out", str(tmp_path / "o")]
            )
            assert code == 1
            assert f"error: {imgdir / name}.hpx1: truncated" in capsys.readouterr().err

    def test_erf_non_finite_image_exits_1(self, trained_run, tmp_path, capsys):
        imgdir = tmp_path / "imgs"
        imgdir.mkdir()
        payload = np.full((32, 32, 3), np.nan, dtype="<f4").tobytes()
        (imgdir / "nan.hpx1").write_bytes(HPX1_32x32x3 + payload)
        code = cli.main(
            ["erf", "--model", str(trained_run / "checkpoint"), "--images", str(imgdir),
             "--out", str(tmp_path / "o")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "nan.hpx1: non-finite payload" in err

    def test_erf_mixed_image_shapes_exit_1_naming_the_file(self, trained_run, tmp_path, capsys):
        imgdir = tmp_path / "imgs"
        imgdir.mkdir()
        hpxio.write_hpx1(imgdir / "a.hpx1", np.zeros((32, 32, 3)))
        hpxio.write_hpx1(imgdir / "b.hpx1", np.zeros((48, 32, 3)))
        out = tmp_path / "o"
        code = cli.main(["erf", "--model", str(trained_run / "checkpoint"), "--images", str(imgdir),
                         "--out", str(out)])
        assert code == 1
        message = (f"fftmix erf: error: the image directory {imgdir} mixes image shapes: "
                   f"{imgdir / 'b.hpx1'} is [48, 32, 3], {imgdir / 'a.hpx1'} is [32, 32, 3]")
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_records_wall_time_outside_the_config(self, tmp_path):
        manifests = []
        for name in ("b1", "b2"):
            out = tmp_path / name
            t0 = time.perf_counter()
            code = cli.main(["bench", "--variants", "global2d", "--extents", "4,8", "--channels", "2",
                             "--repeats", "5", "--out", str(out)])
            elapsed = time.perf_counter() - t0
            assert code == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert 0 < manifest["wall_s"] <= elapsed
            assert "wall_s" not in manifest["config"]
            manifests.append(manifest)
        assert manifests[0]["config_hash"] == manifests[1]["config_hash"]

    def test_coverage_csv_header(self, trained_run, tmp_path):
        out = tmp_path / "cov"
        assert cli.main(["coverage", "--model", str(trained_run / "checkpoint"), "--out", str(out)]) == 0
        lines = (out / "coverage.csv").read_text().splitlines()
        assert lines[0] == "stage,block,diameter,coverage"
        assert len(lines) == 5  # one per block

    @pytest.mark.parametrize("threshold", ["nan", "inf", "0"])
    def test_coverage_threshold_that_is_not_positive_and_finite_exits_1(self, trained_run, tmp_path, capsys, threshold):
        out = tmp_path / "cov"
        argv = ["coverage", "--model", str(trained_run / "checkpoint"), "--threshold", threshold, "--out", str(out)]
        assert cli.main(argv) == 1
        assert "error: threshold must be a positive finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_truncate_eval(self, trained_run, tmp_path):
        out = tmp_path / "tr"
        code = cli.main(
            ["truncate", "--model", str(trained_run / "checkpoint"), "--stage", "4",
             "--rel", "2.0", "--eval", "--out", str(out)]
        )
        assert code == 0
        result = json.loads((out / "results.json").read_text())
        assert result["stage"] == 4
        assert result["val_acc"] == result["val_acc_untruncated"]  # rel 2 is identity

    def test_bench_csv(self, tmp_path):
        out = tmp_path / "bench"
        code = cli.main(
            ["bench", "--variants", "global2d,local", "--extents", "8,16",
             "--channels", "2", "--repeats", "5", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "bench.csv").read_text().splitlines()
        assert lines[0] == "variant,extent,channels,median_seconds,pixels"
        assert len(lines) == 5
        slopes = json.loads((out / "slopes.json").read_text())
        assert set(slopes) == {"global2d", "local"}

    def test_bench_needs_two_distinct_extents(self, tmp_path, capsys):
        for extents in ("8", "8,8"):
            out = tmp_path / f"bench{extents}"
            code = cli.main(["bench", "--variants", "global2d", "--extents", extents, "--out", str(out)])
            assert code == 1, extents
            assert "two distinct extents" in capsys.readouterr().err
            assert not out.exists()

    def test_filters_dump(self, trained_run, tmp_path):
        out = tmp_path / "filt"
        code = cli.main(["filters", "dump", "--model", str(trained_run / "checkpoint"), "--out", str(out)])
        assert code == 0
        files = sorted(p.name for p in out.iterdir())
        assert "kernel_s1b1.hpx1" in files
        assert "kernel_s1b1_mean.pgm" in files
        kernel = hpxio.read_hpx1(out / "kernel_s1b1.hpx1")
        assert kernel.shape == (15, 15, 8)

    def test_runtime_failure_exits_1(self, tmp_path):
        assert cli.main(["erf", "--model", str(tmp_path / "missing"), "--out", str(tmp_path / "o")]) == 1

    def test_failed_run_leaves_no_out_dir(self, tmp_path):
        model = mdl.build_model(mdl.micro_config("local"), seed=0)
        local = hpxio.save_checkpoint(tmp_path / "local", model.config.to_dict(), model.parameters())
        missing = str(tmp_path / "missing")
        runs = [
            ["erf", "--model", missing],
            ["coverage", "--model", missing],
            ["truncate", "--model", missing, "--stage", "1", "--rel", "0.5"],
            ["filters", "dump", "--model", missing],
            ["filters", "dump", "--model", str(local)],  # no implicit filters
            ["bench", "--variants", "global2d", "--extents", "8"],
        ]
        for i, argv in enumerate(runs):
            out = tmp_path / f"o{i}"
            assert cli.main(argv + ["--out", str(out)]) == 1, argv
            assert not out.exists(), argv

    def test_load_model_reads_manifest_once(self, trained_run, monkeypatch):
        calls = []
        read = hpxio.load_checkpoint_manifest
        monkeypatch.setattr(hpxio, "load_checkpoint_manifest", lambda d: calls.append(d) or read(d))
        model = cli._load_model(trained_run / "checkpoint")
        assert len(calls) == 1
        saved = hpxio.load_checkpoint_tensors(trained_run / "checkpoint")
        assert all(np.array_equal(t.data, saved[n]) for n, t in model.parameters())

    def test_writes_stay_under_out(self, trained_run, tmp_path, monkeypatch):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        out = tmp_path / "cov2"
        cli.main(["coverage", "--model", str(trained_run / "checkpoint"), "--out", str(out)])
        assert list(workdir.iterdir()) == []


@pytest.fixture(scope="module")
def micro_checkpoint(tmp_path_factory):
    model = mdl.build_model(mdl.config_from_dict(MICRO_MODEL), seed=0)
    return hpxio.save_checkpoint(
        tmp_path_factory.mktemp("ckpt") / "checkpoint", model.config.to_dict(), model.parameters()
    )


def copy_checkpoint(src, dst, manifest_text):
    """``src`` with its manifest replaced by ``manifest_text``."""
    shutil.copytree(src, dst)
    (dst / hpxio.CHECKPOINT_MANIFEST).write_text(manifest_text)
    return dst


class TestManyClasses:
    """A model of more than four classes, for which the quadrant task has no
    data: labels 4 and up once put their blob outside the image."""

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        model = mdl.build_model(mdl.config_from_dict({**MICRO_MODEL, "num_classes": 8}), seed=0)
        return hpxio.save_checkpoint(
            tmp_path_factory.mktemp("ckpt8") / "checkpoint", model.config.to_dict(), model.parameters()
        )

    def test_synthetic_erf_images_each_hold_a_blob(self, checkpoint, tmp_path):
        images = cli._synthetic_images(cli._load_model(checkpoint), 8, seed=0)
        assert images.shape == (8, 32, 32, 3)
        assert images.max(axis=(1, 2, 3)).min() > 1.5  # blob amplitudes are 2-3, noise 0.05
        assert cli.main(["erf", "--model", str(checkpoint), "--num", "8", "--out", str(tmp_path / "erf")]) == 0

    def test_truncate_eval_exits_1_naming_the_key(self, checkpoint, tmp_path, capsys):
        argv = ["truncate", "--model", str(checkpoint), "--stage", "4", "--rel", "0.5", "--eval",
                "--out", str(tmp_path / "tr")]
        assert cli.main(argv) == 1
        assert "error: num_classes must be at most 4 for synthetic images, got 8" in capsys.readouterr().err
        assert not (tmp_path / "tr").exists()


class TestCheckpointManifest:
    def test_retired_config_keys_load_at_their_fixed_values(self, micro_checkpoint, tmp_path, capsys):
        manifest = json.loads((micro_checkpoint / hpxio.CHECKPOINT_MANIFEST).read_text())
        manifest["config"].update(ffn_expansion=4, res_scale_stages=[3, 4], head_hidden_ratio=4)
        ckpt = copy_checkpoint(micro_checkpoint, tmp_path / "old", json.dumps(manifest))
        assert cli.main(["model", "info", "--checkpoint", str(ckpt)]) == 0
        code = cli.main(["erf", "--model", str(ckpt), "--num", "1", "--out", str(tmp_path / "erf")])
        assert code == 0
        manifest["config"]["head_hidden_ratio"] = 0
        ckpt = copy_checkpoint(micro_checkpoint, tmp_path / "linear", json.dumps(manifest))
        capsys.readouterr()
        assert cli.main(["model", "info", "--checkpoint", str(ckpt)]) == 1
        assert "head_hidden_ratio" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: [m],
            lambda m: {**m, "config": {"stage_channels": 5}},
            lambda m: {**m, "config": {"input_size": "ab"}},
            lambda m: {k: v for k, v in m.items() if k != "config"},
            lambda m: {k: v for k, v in m.items() if k != "tensors"},
            lambda m: {**m, "tensors": 5},
            lambda m: {**m, "tensors": {**m["tensors"], "head.w2": "../t0000.hpx1"}},
        ],
        ids=[
            "array", "channels-int", "input-size-str", "no-config", "no-tensors",
            "tensors-int", "tensor-outside-dir",
        ],
    )
    def test_malformed_manifest_exits_1_naming_it(self, micro_checkpoint, tmp_path, capsys, edit):
        manifest = json.loads((micro_checkpoint / hpxio.CHECKPOINT_MANIFEST).read_text())
        ckpt = copy_checkpoint(micro_checkpoint, tmp_path / "ckpt", json.dumps(edit(manifest)))
        for argv in (
            ["model", "info", "--checkpoint", str(ckpt)],
            ["erf", "--model", str(ckpt), "--num", "1", "--out", str(tmp_path / "erf")],
        ):
            assert cli.main(argv) == 1, argv
            assert f"error: {ckpt / hpxio.CHECKPOINT_MANIFEST}: " in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("stage_blocks", [-1, 1, 1, 1]), ("num_classes", 0)])
    def test_degenerate_counts_exit_1_naming_the_key(self, micro_checkpoint, tmp_path, capsys, key, value):
        manifest = json.loads((micro_checkpoint / hpxio.CHECKPOINT_MANIFEST).read_text())
        manifest["config"][key] = value
        ckpt = copy_checkpoint(micro_checkpoint, tmp_path / "ckpt", json.dumps(manifest))
        assert cli.main(["model", "info", "--checkpoint", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert f"error: {ckpt / hpxio.CHECKPOINT_MANIFEST}: config key '{key}'" in err

    def test_fuzzed_manifests_raise_value_error_naming_the_file(self, micro_checkpoint, tmp_path):
        """Random, truncated and wrongly typed manifests each raise a
        ``ValueError`` that names the manifest, and the CLI exits 1."""
        rng = np.random.default_rng(17)
        text = (micro_checkpoint / hpxio.CHECKPOINT_MANIFEST).read_text()
        good = json.loads(text)
        tag = good["format"]
        wrong = [None, True, 0, 1.5, "ab", [], ["x"], [1.5, 2.5], {"a": 1}]
        documents = wrong + [{}, {"format": tag}, {"format": tag, "config": good["config"]}]
        bad_names = ["", "..", "../t0000.hpx1", "sub/t0000.hpx1", "/t0000.hpx1"]
        ckpt = copy_checkpoint(micro_checkpoint, tmp_path / "ckpt", text)
        path = ckpt / hpxio.CHECKPOINT_MANIFEST
        for case in range(300):
            kind = case % 3
            if kind == 0:  # a random JSON document
                raw = json.dumps(documents[rng.integers(len(documents))])
            elif kind == 1:  # truncated
                raw = text[: rng.integers(len(text))]
            else:  # one value replaced by a value of the wrong type, or dropped
                manifest = json.loads(text)
                where = [manifest, manifest["config"], manifest["tensors"]][rng.integers(3)]
                key = list(where)[rng.integers(len(where))]
                pool = wrong + bad_names if where is manifest["tensors"] else wrong
                if where is manifest and rng.integers(4) == 0:
                    del manifest[key]
                else:
                    where[key] = pool[rng.integers(len(pool))]
                raw = json.dumps(manifest)
            path.write_text(raw)
            with pytest.raises(ValueError, match=re.escape(str(path))):
                cli._load_model(ckpt)
            assert cli.main(["model", "info", "--checkpoint", str(ckpt)]) == 1, raw[:80]


class TestHpx1Format:
    def test_round_trip(self, tmp_path, rng):
        arr = rng.normal(size=(3, 4, 5))
        path = tmp_path / "t.hpx1"
        hpxio.write_hpx1(path, arr)
        back = hpxio.read_hpx1(path)
        assert back.shape == (3, 4, 5)
        assert np.abs(back - arr).max() < 1e-6  # float32 payload

    def test_layout_bytes(self, tmp_path):
        path = tmp_path / "t.hpx1"
        hpxio.write_hpx1(path, np.array([[1.0, 2.0]], dtype=np.float64))
        raw = path.read_bytes()
        assert raw[:4] == b"HPX1"
        assert int.from_bytes(raw[4:8], "little") == 2
        assert int.from_bytes(raw[8:12], "little") == 1
        assert int.from_bytes(raw[12:16], "little") == 2
        assert np.frombuffer(raw[16:], dtype="<f4").tolist() == [1.0, 2.0]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.hpx1"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            hpxio.read_hpx1(path)

    @pytest.mark.parametrize("body", [b"\x02\x00", b"\x02\x00\x00\x00\x04\x00\x00\x00"])
    def test_truncated_header_or_shape_rejected(self, tmp_path, body):
        path = tmp_path / "short.hpx1"
        path.write_bytes(b"HPX1" + body)
        with pytest.raises(ValueError, match="short.hpx1: truncated"):
            hpxio.read_hpx1(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.hpx1"
        hpxio.write_hpx1(path, np.ones(3))
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="long.hpx1: trailing bytes"):
            hpxio.read_hpx1(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_rejected(self, tmp_path, value):
        path = tmp_path / "bad.hpx1"
        hpxio.write_hpx1(path, np.ones(3))
        raw = bytearray(path.read_bytes())
        raw[-4:] = np.array([value], dtype="<f4").tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="bad.hpx1: non-finite payload"):
            hpxio.read_hpx1(path)

    @pytest.mark.parametrize("value", [3.5e38, -1e39, np.nan])
    def test_write_outside_float32_range_rejected(self, tmp_path, value):
        path = tmp_path / "big.hpx1"
        with pytest.raises(ValueError, match="big.hpx1: values are not finite in float32"):
            hpxio.write_hpx1(path, np.array([1.0, value]))
        assert not path.exists()

    def test_write_float32_extremes_round_trip(self, tmp_path):
        path = tmp_path / "max.hpx1"
        arr = np.array([np.finfo(np.float32).max, -np.finfo(np.float32).max, 0.0])
        hpxio.write_hpx1(path, arr)
        assert np.array_equal(hpxio.read_hpx1(path), arr)

    def test_fuzzed_files_load_or_raise_value_error(self, tmp_path):
        """Cut, overwritten and extended HPX1 files either load or raise
        ``ValueError``; none asks for a buffer larger than the file."""
        rng = np.random.default_rng(5)
        seeds = []
        for shape in [(), (3,), (2, 3), (4, 2, 3)]:
            path = tmp_path / "seed.hpx1"
            hpxio.write_hpx1(path, rng.normal(size=shape))
            seeds.append((hpxio.read_hpx1, path.read_bytes()))
        seeds.append((hpxio.read_hpx1, HPX1_65536x65536))
        path = tmp_path / "fuzz"
        for case in range(3000):
            read, raw = seeds[case % len(seeds)]
            data = bytearray(raw)
            kind = rng.integers(4)
            if kind == 0:  # cut
                data = data[: rng.integers(len(data) + 1)]
            elif kind == 1:  # random bytes overwritten
                for i in rng.integers(len(data), size=rng.integers(1, 4)):
                    data[i] = rng.integers(256)
            elif kind == 2:  # a random 32-bit word in the header
                at = rng.integers(min(len(data), 24) - 3)
                data[at : at + 4] = rng.integers(2**32, dtype=np.uint64).tobytes()[:4]
            else:  # extended
                data += rng.bytes(rng.integers(1, 9))
            path.write_bytes(bytes(data))
            try:
                read(path)
            except ValueError:
                pass
            except Exception as exc:  # noqa: BLE001 - the test names every other failure
                pytest.fail(f"case {case} ({bytes(data[:24])!r}...): {type(exc).__name__}: {exc}")

    def test_pgm_round_trip(self, tmp_path, rng):
        img = rng.normal(size=(6, 9))
        path = tmp_path / "i.pgm"
        hpxio.write_pgm(path, img)
        raw = path.read_bytes()
        header = b"P5\n9 6\n255\n"  # width, height, maxval
        assert raw[: len(header)] == header and len(raw) == len(header) + 6 * 9
        back = np.frombuffer(raw[len(header) :], dtype=np.uint8).reshape(6, 9) / 255.0
        normalized = (img - img.min()) / (img.max() - img.min())
        assert np.abs(back - normalized).max() < 1.0 / 255 + 1e-9
