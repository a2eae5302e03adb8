import json

import numpy as np
import pytest

from fftmix import cli, hpxio


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
        cfg = write_config(tmp_path, train={"total_epochs": 1, "warmup_epochs": 0, "lr": 1.0})
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["train", "--config", str(cfg), "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_invalid_config_values_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, train={"total_epochs": 1, "warmup_epochs": 0, "label_smoothing": 1.5})
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["train", "--config", str(cfg), "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_main_maps_usage_errors_to_2(self):
        assert cli.main(["bogus"]) == 2


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

    def test_erf_truncated_image_exits_1(self, trained_run, tmp_path, capsys):
        imgdir = tmp_path / "imgs"
        imgdir.mkdir()
        (imgdir / "short.hpx1").write_bytes(b"HPX1\x03\x00")
        code = cli.main(
            ["erf", "--model", str(trained_run / "checkpoint"), "--images", str(imgdir),
             "--out", str(tmp_path / "o")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

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

    def test_coverage_csv_header(self, trained_run, tmp_path):
        out = tmp_path / "cov"
        assert cli.main(["coverage", "--model", str(trained_run / "checkpoint"), "--out", str(out)]) == 0
        lines = (out / "coverage.csv").read_text().splitlines()
        assert lines[0] == "stage,block,diameter,coverage"
        assert len(lines) == 5  # one per block

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

    def test_writes_stay_under_out(self, trained_run, tmp_path, monkeypatch):
        workdir = tmp_path / "cwd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        out = tmp_path / "cov2"
        cli.main(["coverage", "--model", str(trained_run / "checkpoint"), "--out", str(out)])
        assert list(workdir.iterdir()) == []


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

    @pytest.mark.parametrize(
        "raw,why",
        [
            (b"P5\n\n255\n", "malformed header"),  # no width or height
            (b"P5\n4\n255\n" + b"\x00" * 4, "malformed header"),  # no height
            (b"P5\n2 x\n255\n" + b"\x00" * 4, "malformed header"),
            (b"P5\n2 2\n\n" + b"\x00" * 4, "malformed header"),  # no maxval
            (b"P5\n0 2\n255\n", "empty image"),
            (b"P5\n2 2\n0\n" + b"\x00" * 4, "maxval 0"),
            (b"P5\n2 2\n65535\n" + b"\x00" * 8, "maxval 65535"),
            (b"P5\n2 2\n255\n\x00\x00\x00", "truncated payload"),
            (b"P2\n2 2\n255\n0 0 0 0\n", "only binary PGM"),
        ],
    )
    def test_malformed_pgm_rejected(self, tmp_path, raw, why):
        path = tmp_path / "bad.pgm"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=f"bad.pgm: {why}"):
            hpxio.read_pgm(path)

    def test_pgm_round_trip(self, tmp_path, rng):
        img = rng.normal(size=(6, 9))
        path = tmp_path / "i.pgm"
        hpxio.write_pgm(path, img)
        back = hpxio.read_pgm(path)
        assert back.shape == (6, 9)
        normalized = (img - img.min()) / (img.max() - img.min())
        assert np.abs(back - normalized).max() < 1.0 / 255 + 1e-9
