import numpy as np
import pytest

from fftmix import hpxio
from fftmix import mixers as mx
from fftmix import model as mdl
from fftmix import numerics as nx
from fftmix.filters import ImplicitFilter
from fftmix.numerics import GradTape, Tensor, grad_check


class TestStarRelu:
    def test_negative_inputs_give_bias(self):
        params = mx.StarReLUParams(Tensor(np.float64(1.3)), Tensor(np.float64(0.2)))
        y = mx.star_relu(Tensor([-3.0, -0.5, 0.0]), params)
        assert np.allclose(y.data, 0.2)

    def test_unit_case(self):
        params = mx.StarReLUParams(Tensor(np.float64(1.0)), Tensor(np.float64(0.0)))
        assert mx.star_relu(Tensor([1.0]), params).data[0] == 1.0

    def test_default_init_values(self):
        params = mx.init_star_relu()
        assert abs(params.scale.data - 0.894) < 1e-3
        assert abs(params.shift.data + 0.447) < 1e-3

    def test_gradient_away_from_zero(self, rng):
        x = rng.normal(size=10)
        x[np.abs(x) < 0.2] += 0.5
        params = mx.init_star_relu()

        def f(s, b, xx):
            return nx.tensor_sum(mx.star_relu(xx, mx.StarReLUParams(s, b)))

        assert grad_check(f, [params.scale, params.shift, Tensor(x)]) < 1e-6


class TestLayerNorm:
    def test_constant_channels_give_beta(self, rng):
        gamma = Tensor(rng.normal(size=5))
        beta = Tensor(rng.normal(size=5))
        x = Tensor(np.full((3, 5), 7.7))
        y = mdl.layer_norm(x, gamma, beta)
        assert np.abs(y.data - beta.data).max() < 1e-3  # eps soaks the 0 variance

    def test_normalizes_mean_and_std(self, rng):
        x = Tensor(rng.normal(size=(40, 16)) * 3.0 + 1.0)
        y = mdl.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16))).data
        assert np.abs(y.mean(axis=-1)).max() < 1e-6
        assert np.abs(y.std(axis=-1) - 1.0).max() < 1e-3

    def test_gradient(self, rng):
        def f(x, g, b):
            return nx.tensor_sum(nx.square(mdl.layer_norm(x, g, b)))

        inputs = [Tensor(rng.normal(size=(4, 6))), Tensor(rng.normal(size=6)), Tensor(rng.normal(size=6))]
        assert grad_check(f, inputs) < 1e-5

    def test_eps_validation(self, rng):
        with pytest.raises(ValueError):
            mdl.layer_norm(Tensor(rng.normal(size=(2, 3))), Tensor(np.ones(3)), Tensor(np.zeros(3)), eps=0.0)


class TestStemAndMerge:
    def test_stem_224_gives_56(self, rng):
        stem = mdl.ConvNormLayer(3, 64, 7, 4, 2, rng)
        y = mdl.patch_embed(Tensor(rng.normal(size=(1, 224, 224, 3))), stem)
        assert y.shape == (1, 56, 56, 64)

    def test_stem_64_gives_16(self, rng):
        stem = mdl.ConvNormLayer(3, 8, 7, 4, 2, rng)
        y = mdl.patch_embed(Tensor(rng.normal(size=(1, 64, 64, 3))), stem)
        assert y.shape == (1, 16, 16, 8)

    def test_constant_image_constant_interior(self, rng):
        stem = mdl.ConvNormLayer(3, 4, 7, 4, 2, rng)
        y = mdl.patch_embed(Tensor(np.full((1, 64, 64, 3), 0.5)), stem).data[0]
        interior = y[2:-2, 2:-2]
        spread = np.abs(interior - interior[0, 0]).max()
        assert spread < 1e-10

    def test_indivisible_input_rejected(self, rng):
        stem = mdl.ConvNormLayer(3, 4, 7, 4, 2, rng)
        with pytest.raises(ValueError):
            mdl.patch_embed(Tensor(rng.normal(size=(1, 60, 60, 3))), stem)

    def test_downsample_shapes(self, rng):
        layer = mdl.ConvNormLayer(64, 128, 3, 2, 1, rng)
        y = mdl.downsample(Tensor(rng.normal(size=(1, 56, 56, 64))), layer)
        assert y.shape == (1, 28, 28, 128)
        layer2 = mdl.ConvNormLayer(320, 512, 3, 2, 1, rng)
        y2 = mdl.downsample(Tensor(rng.normal(size=(1, 14, 14, 320))), layer2)
        assert y2.shape == (1, 7, 7, 512)

    def test_downsample_odd_extent_rejected(self, rng):
        layer = mdl.ConvNormLayer(4, 8, 3, 2, 1, rng)
        with pytest.raises(ValueError):
            mdl.downsample(Tensor(rng.normal(size=(1, 7, 7, 4))), layer)

    def test_shape_ladder_all_stages(self):
        config = mdl.preset_config("hpx-s18")
        assert config.stage_extents() == [(56, 56), (28, 28), (14, 14), (7, 7)]


class TestBlock:
    def _block(self, rng, channels=6, extent=5, use_rs=True):
        cfg = mx.MixerConfig("global2d", channels, (extent, extent), embed_dim=4)
        return mdl.Block(channels, cfg, 4, use_rs, rng)

    def test_zeroed_branches_identity(self, rng):
        block = self._block(rng)
        block.mixer.out_proj.data[:] = 0.0
        block.ffn.w2.data[:] = 0.0
        block.ffn.b2.data[:] = 0.0
        x = Tensor(rng.normal(size=(1, 5, 5, 6)))
        y = block(x)
        assert np.array_equal(y.data, x.data)

    def test_zero_res_scale_identity(self, rng):
        block = self._block(rng)
        block.res_scale1.data[:] = 0.0
        block.res_scale2.data[:] = 0.0
        x = Tensor(rng.normal(size=(1, 5, 5, 6)))
        assert np.array_equal(block(x).data, x.data)

    def test_shape_preserved(self, rng):
        block = self._block(rng, use_rs=False)
        x = Tensor(rng.normal(size=(2, 5, 5, 6)))
        assert block(x).shape == x.shape

    def test_gradient_through_block(self, rng):
        cfg = mx.MixerConfig("global2d", 8, (6, 6), embed_dim=4)
        block = mdl.Block(8, cfg, 4, True, rng)
        x = Tensor(rng.normal(size=(6, 6, 8)))

        def f(xx):
            return nx.tensor_sum(nx.square(block(xx)))

        assert grad_check(f, [x], max_coords=120) < 1e-4

    def test_image_gradient_skips_kernel_materialization(self, rng, monkeypatch):
        block = self._block(rng)
        x = Tensor(rng.normal(size=(1, 5, 5, 6)), requires_grad=True)
        upstream = rng.normal(size=x.shape)
        materialize = ImplicitFilter.materialize
        kernel_nodes = set()
        tape = None

        def recording(filt):
            n0 = len(tape.nodes)
            out = materialize(filt)
            kernel_nodes.update(range(n0, len(tape.nodes)))
            return out

        monkeypatch.setattr(ImplicitFilter, "materialize", recording)

        def image_gradient(sources):
            nonlocal tape
            kernel_nodes.clear()
            with GradTape() as tape:
                y = block(x)
            called = set()
            for i, node in enumerate(tape.nodes):
                node._vjp = (lambda vjp, i: lambda g: called.add(i) or vjp(g))(node._vjp, i)
            return tape.gradient(y, [x] + sources, upstream=upstream)[0].data, called

        pruned, called = image_gradient([])
        assert kernel_nodes and called and not called & kernel_nodes
        full, called = image_gradient([t for _, t in block.parameters()])
        assert kernel_nodes <= called
        assert np.array_equal(pruned, full)


class TestBuildModel:
    @pytest.mark.parametrize(
        "preset,target",
        [("hpx-s18", 29e6), ("hb-s18", 28e6), ("chpx-s18", 28e6)],
    )
    def test_parameter_anchor_within_ten_percent(self, preset, target):
        model = mdl.build_model(mdl.preset_config(preset), seed=0)
        n = mdl.count_params(model)
        assert abs(n - target) / target <= 0.10

    def test_sizes_strictly_monotone(self):
        counts = [
            mdl.count_params(mdl.build_model(mdl.preset_config(f"hpx-{s}"), seed=0))
            for s in ("s4", "s12", "s18")
        ]
        assert counts[0] < counts[1] < counts[2]

    def test_count_semantics_single_linear(self):
        # A lone linear layer C_in=4 -> C_out=8 with bias holds 40 scalars.
        w = Tensor(np.zeros((4, 8)), requires_grad=True)
        b = Tensor(np.zeros(8), requires_grad=True)
        assert w.size + b.size == 40

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            mdl.preset_config("resnet-50")

    def test_config_roundtrip_rejects_unknown_keys(self):
        config = mdl.micro_config()
        d = config.to_dict()
        assert mdl.config_from_dict(d).to_dict() == d
        d["dropout"] = 0.5
        with pytest.raises(ValueError):
            mdl.config_from_dict(d)


class TestForward:
    def test_identical_images_identical_logits(self, rng):
        model = mdl.build_model(mdl.micro_config(), seed=0)
        img = rng.normal(size=(1, 32, 32, 3))
        batch = Tensor(np.concatenate([img, img], axis=0))
        logits = model(batch).data
        assert np.array_equal(logits[0], logits[1])

    def test_logits_shape_default_head(self, rng):
        config = mdl.micro_config(num_classes=1000)
        model = mdl.build_model(config, seed=0)
        logits = model(Tensor(rng.normal(size=(2, 32, 32, 3))))
        assert logits.shape == (2, 1000)

    def test_forward_deterministic_bitwise(self, rng):
        model = mdl.build_model(mdl.micro_config(), seed=0)
        x = Tensor(rng.normal(size=(2, 32, 32, 3)))
        assert np.array_equal(model(x).data, model(x).data)

    def test_wrong_input_size_rejected(self, rng):
        model = mdl.build_model(mdl.micro_config(), seed=0)
        with pytest.raises(ValueError):
            model(Tensor(rng.normal(size=(1, 64, 64, 3))))

    def test_micro_end_to_end_gradient_spotcheck(self, rng):
        model = mdl.build_model(mdl.micro_config(), seed=0)

        def f(img):
            return nx.tensor_sum(nx.square(model(img)))

        x = Tensor(rng.normal(size=(1, 32, 32, 3)))
        assert grad_check(f, [x], max_coords=48) < 1e-3


class TestCheckpoint:
    def test_save_load_roundtrip(self, tmp_path, rng):
        model = mdl.build_model(mdl.micro_config(), seed=3)
        out = hpxio.save_checkpoint(tmp_path / "ckpt", model.config.to_dict(), model.parameters())
        manifest = hpxio.load_checkpoint_manifest(out)
        config = mdl.config_from_dict(manifest["config"])
        clone = mdl.build_model(config, seed=0)
        mdl.load_params(clone, hpxio.load_checkpoint_tensors(out))
        x = Tensor(rng.normal(size=(1, 32, 32, 3)).astype(np.float32).astype(np.float64))
        a = model(x).data
        b = clone(x).data
        # float32 storage: parameters round-trip to ~1e-7 relative.
        assert np.abs(a - b).max() < 1e-4

    def test_unknown_tensor_rejected(self, tmp_path):
        model = mdl.build_model(mdl.micro_config(), seed=0)
        tensors = {name: t.data.copy() for name, t in model.parameters()}
        tensors["stage9.extra"] = np.zeros(3)
        with pytest.raises(ValueError, match="unknown tensors: \\['stage9.extra'\\]"):
            mdl.load_params(model, tensors)

    def test_missing_tensor_rejected(self, tmp_path):
        model = mdl.build_model(mdl.micro_config(), seed=0)
        out = hpxio.save_checkpoint(tmp_path / "ckpt", model.config.to_dict(), model.parameters()[:-1])
        with pytest.raises(ValueError):
            mdl.load_params(model, hpxio.load_checkpoint_tensors(out))
