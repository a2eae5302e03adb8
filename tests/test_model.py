import gc
import re
import threading
import tracemalloc
import types

import numpy as np
import pytest

from fftmix import analysis, hpxio
from fftmix import training as tr
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


class TestStemAndMerge:
    def test_stem_224_gives_56(self, rng):
        stem = mdl.ConvNormLayer(3, 64, 7, 4, 2, rng)
        y = stem(Tensor(rng.normal(size=(1, 224, 224, 3))))
        assert y.shape == (1, 56, 56, 64)

    def test_stem_64_gives_16(self, rng):
        stem = mdl.ConvNormLayer(3, 8, 7, 4, 2, rng)
        y = stem(Tensor(rng.normal(size=(1, 64, 64, 3))))
        assert y.shape == (1, 16, 16, 8)

    def test_constant_image_constant_interior(self, rng):
        stem = mdl.ConvNormLayer(3, 4, 7, 4, 2, rng)
        y = stem(Tensor(np.full((1, 64, 64, 3), 0.5))).data[0]
        interior = y[2:-2, 2:-2]
        spread = np.abs(interior - interior[0, 0]).max()
        assert spread < 1e-10

    def test_downsample_shapes(self, rng):
        layer = mdl.ConvNormLayer(64, 128, 3, 2, 1, rng)
        y = layer(Tensor(rng.normal(size=(1, 56, 56, 64))))
        assert y.shape == (1, 28, 28, 128)
        layer2 = mdl.ConvNormLayer(320, 512, 3, 2, 1, rng)
        y2 = layer2(Tensor(rng.normal(size=(1, 14, 14, 320))))
        assert y2.shape == (1, 7, 7, 512)

    def test_shape_ladder_all_stages(self):
        config = mdl.preset_config("hpx-s18")
        assert config.stage_extents() == [(56, 56), (28, 28), (14, 14), (7, 7)]


class TestBlock:
    def _block(self, rng, channels=6, extent=5, use_rs=True):
        cfg = mx.MixerConfig("global2d", channels, (extent, extent), embed_dim=4)
        return mdl.Block(channels, cfg, use_rs, rng)

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
        block = mdl.Block(8, cfg, True, rng)
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

    def test_retired_keys_load_only_at_their_fixed_values(self):
        legacy = {
            **mdl.micro_config().to_dict(),
            "ffn_expansion": 4,
            "res_scale_stages": [3, 4],
            "head_hidden_ratio": 4,
        }
        assert mdl.config_from_dict(legacy) == mdl.micro_config()
        for key, value in [
            ("ffn_expansion", 2),
            ("res_scale_stages", [4]),
            ("res_scale_stages", [3.0, 4.0]),
            ("head_hidden_ratio", 0),
            ("head_hidden_ratio", True),
        ]:
            with pytest.raises(ValueError, match=key):
                mdl.config_from_dict({**legacy, key: value})

    def test_wrongly_typed_values_rejected(self):
        for key, value in [
            ("stage_channels", 5),
            ("stage_channels", [8, 8, 8]),
            ("stage_blocks", [1, 1, 1, 1.5]),
            ("mixer_layout", [1, 2, 3, 4]),
            ("input_size", "ab"),
            ("input_size", [32, 32, 32]),
            ("num_classes", "4"),
            ("num_classes", None),
        ]:
            with pytest.raises(ValueError, match=key):
                mdl.config_from_dict({**mdl.micro_config().to_dict(), key: value})
        with pytest.raises(ValueError):
            mdl.config_from_dict([["num_classes", 4]])

    @pytest.mark.parametrize("key,value", [
        ("stage_channels", (8, 8, 8)),
        ("stage_blocks", (1.5, 1, 1, 1)),
        ("mixer_layout", ("global2d",) * 3 + (4,)),
        ("input_size", 32),
        ("num_classes", 2.5),
        ("num_classes", True),
    ])
    def test_wrongly_typed_values_rejected_from_python(self, key, value):
        # Once: an int input_size raised a bare TypeError, and a float class
        # or block count passed the config.
        with pytest.raises(ValueError, match=rf"^config key '{key}' must"):
            mdl.ModelConfig(**{**mdl.micro_config().to_dict(), key: value})

    def test_lists_become_tuples(self):
        config = mdl.ModelConfig(**{**mdl.micro_config().to_dict(), "input_size": [32, 32]})
        assert config == mdl.micro_config() and config.input_size == (32, 32)

    @pytest.mark.parametrize("key,value", [
        ("input_size", [0, 0]),
        ("stage_channels", [8, 0, 8, 8]),
        ("mixer_layout", ["global2d", "global2d", "attention", "global2d"]),
        ("embed_dims", [3, 3, 3, 3]),
    ])
    def test_mixer_geometry_rejected_naming_the_key(self, key, value):
        # Once each of these passed the config and failed only in the model
        # builder, with a message that named no key.
        with pytest.raises(ValueError, match=rf"^config key '{key}' at stage \d: "):
            mdl.config_from_dict({**mdl.micro_config().to_dict(), key: value})

    def test_degenerate_counts_rejected(self):
        # Once: [-1, 1, 1, 1] built an empty stage, 0 classes gave (1, 0)
        # logits, and -3 failed inside numpy.
        for key, value in [
            ("stage_blocks", [-1, 1, 1, 1]),
            ("stage_blocks", [1, 1, 0, 1]),
            ("num_classes", 0),
            ("num_classes", -3),
        ]:
            with pytest.raises(ValueError, match=key):
                mdl.config_from_dict({**mdl.micro_config().to_dict(), key: value})


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


def _captured_tensors(vjp) -> list[Tensor]:
    """The tensors a VJP closure holds, looking through nested functions
    and the tuples, lists and dicts its cells hold."""
    found, stack, seen = [], [vjp], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Tensor):
            found.append(obj)
        elif isinstance(obj, types.FunctionType):
            for cell in obj.__closure__ or ():
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # a cell not yet assigned
                    pass
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
    return found


class TestTapeCaptures:
    @pytest.mark.parametrize("variant", mx.MIXER_VARIANTS)
    @pytest.mark.parametrize("sourced", [False, True])
    def test_no_vjp_closure_holds_a_tensor(self, rng, variant, sourced):
        # A VJP keeps the arrays its partials read, never a whole Tensor,
        # which would keep that Tensor's array alive whether read or not.
        model = mdl.build_model(mdl.micro_config(variant), seed=0)
        img = Tensor(rng.normal(size=(2, 32, 32, 3)))
        with GradTape([img] if sourced else None) as tape:
            model(img)
        assert tape.nodes
        assert all(not _captured_tensors(node._vjp) for node in tape.nodes)

    def test_guard_sees_a_tensor_in_a_nested_closure(self):
        t = Tensor(np.ones(2))

        def outer():
            def inner(g):
                return g * t.data
            return lambda g: (inner(g), [{"k": (None,)}])

        assert _captured_tensors(outer()) == [t]


class TestInferenceMemory:
    """A warm forward pass with no tape at 224 px: the wide stage-1 layers run
    their scratch arrays in blocks, so none holds its whole 112 x 112
    spectrum, its 4x-wide hidden layer, or a q/k/v map beside q, k and v."""

    @pytest.mark.parametrize("preset", ["hpx-s4", "hb-s4", "chpx-s4"])
    def test_warm_224px_forward_peaks_under_11_5_mb(self, rng, preset):
        m = mdl.build_model(mdl.preset_config(preset), seed=0)
        image = Tensor(rng.normal(size=(1, 224, 224, 3)))
        m(image)  # builds the kernel spectra
        gc.collect()
        tracemalloc.start()
        try:
            m(image)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 11.12, 11.26 and 10.05 MB, the largest of runs whose pooled blocks
        # overlap in different ways, under a margin of 0.24 MB.  13.63, 13.05
        # and 10.43 MB when the q/k/v projection held a 3C-wide map (padded,
        # or cropped into q, k and v); 18.4, 17.7 and 14.5 MB when each layer
        # held its scratch arrays whole.
        assert peak <= 11.5e6


class TestBlockPool:
    """Which passes reach the pool of worker threads that runs the wide ops'
    blocks, and what those workers may touch."""

    @pytest.mark.parametrize("variant", ["global2d", "bidirectional", "local", "causal"])
    def test_micro_training_pass_runs_every_op_as_one_block(self, rng, monkeypatch, variant):
        blocks = []
        each_block = nx._each_block
        monkeypatch.setattr(nx, "_each_block", lambda fn, bs: blocks.append(len(bs)) or each_block(fn, bs))

        def no_pool():
            raise AssertionError("a micro-model op submitted blocks to the pool")

        monkeypatch.setattr(nx, "_pool", no_pool)
        m = mdl.build_model(mdl.micro_config(variant), seed=0)
        x = Tensor(rng.normal(size=(32, 32, 32, 3)))
        with GradTape() as tape:
            loss = tr.cross_entropy_smoothed(m(x), rng.integers(0, 4, size=32), 0.1)
        tape.gradient(loss, m.parameter_tensors())
        assert blocks and set(blocks) == {1}

    def test_micro_ffn_vjp_sits_exactly_at_one_blocks_share(self):
        # The stage-1 FFN of a batch-32 micro model: 2048 rows whose VJP holds
        # two 32-wide hidden rows each, 1 MiB, all of one block's share.
        assert 2048 * 2 * 32 * 8 == nx._BLOCK_BYTES // nx._IN_FLIGHT
        assert nx._blocks(2048, 2 * 32 * 8) == [slice(None)]
        assert len(nx._blocks(2049, 2 * 32 * 8)) == 2

    def test_tensors_and_tape_nodes_are_made_on_the_calling_thread(self, rng, monkeypatch):
        monkeypatch.setattr(nx, "_WORKERS", 2)
        pool, submits, threads = nx._pool(), [], set()

        class CountingPool:
            def submit(self, fn, *args):
                submits.append(fn)
                return pool.submit(fn, *args)

        init, record = nx.Tensor.__init__, nx._record

        def tensor_init(tensor, *args, **kwargs):
            threads.add(threading.get_ident())
            init(tensor, *args, **kwargs)

        def tape_record(*args):
            threads.add(threading.get_ident())
            record(*args)

        m = mdl.build_model(mdl.preset_config("hpx-s4"), seed=0)
        image = Tensor(rng.normal(size=(1, 224, 224, 3)))
        monkeypatch.setattr(nx, "_pool", CountingPool)
        monkeypatch.setattr(nx.Tensor, "__init__", tensor_init)
        monkeypatch.setattr(nx, "_record", tape_record)
        with GradTape() as tape:
            x = m.stem(image)
            for block in m.stages[0]:
                x = block(x)
            loss = nx.tensor_sum(x)
        tape.gradient(loss, m.parameter_tensors())
        assert len(submits) > 20
        assert threads == {threading.get_ident()}


class TestCheckpoint:
    def test_save_load_roundtrip(self, tmp_path, rng):
        for variant in ("global2d", "bidirectional", "local"):
            model = mdl.build_model(mdl.micro_config(variant), seed=3)
            out = hpxio.save_checkpoint(
                tmp_path / variant, model.config.to_dict(), model.parameters()
            )
            manifest = hpxio.load_checkpoint_manifest(out)
            config = mdl.config_from_dict(manifest["config"])
            clone = mdl.build_model(config, seed=0)
            mdl.load_params(clone, hpxio.load_checkpoint_tensors(out))
            x = Tensor(rng.normal(size=(8, 32, 32, 3)))
            # float32 storage rounds each parameter by ~6e-8 relative; the
            # logits moved by at most 1.7e-7 across seeds when measured.
            assert np.abs(model(x).data - clone(x).data).max() < 1e-6, variant

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


    @pytest.mark.parametrize("bad,match", [
        (np.nan, "parameter head.w2: tensor contains non-finite values"),
        (np.inf, "parameter head.w2: tensor contains non-finite values"),
        ("0.5", "parameter head.w2: a tensor holds real numbers, not values of dtype <U3"),
        (0.5 + 1e-3j, "parameter head.w2: a tensor holds real numbers, not values of dtype complex128"),
    ])
    def test_non_real_or_non_finite_tensor_rejected_by_name(self, bad, match):
        model = mdl.build_model(mdl.micro_config(), seed=0)
        tensors = {name: t.data.copy() for name, t in model.parameters()}
        w2 = tensors["head.w2"]
        tensors["head.w2"] = np.full(w2.shape, bad)
        other = mdl.build_model(mdl.micro_config(), seed=1)
        before = [t.data for t in model.parameter_tensors()]
        tensors = {name: t.data.copy() for name, t in other.parameters()} | {"head.w2": tensors["head.w2"]}
        with pytest.raises(ValueError, match=re.escape(match)):
            mdl.load_params(model, tensors)
        # Not one parameter is overwritten, not even those before head.w2.
        assert all(t.data is a for t, a in zip(model.parameter_tensors(), before))

    def test_load_copies_its_input(self, rng):
        # A step on the loaded model leaves the source model's arrays as they were.
        model = mdl.build_model(mdl.micro_config(), seed=0)
        other = mdl.build_model(mdl.micro_config(), seed=1)
        source = {name: t.data for name, t in other.parameters()}
        before = {name: a.copy() for name, a in source.items()}
        mdl.load_params(model, source)
        params = model.parameter_tensors()
        grads = [rng.normal(size=p.shape) for p in params]
        tr.adamw_step(params, grads, tr.init_adamw_state(params), 1e-2, weight_decay=0.05)
        assert all(not np.shares_memory(p.data, a) for p, a in zip(params, source.values()))
        assert all(np.array_equal(source[name], before[name]) for name in source)


class TestKernelSpectrumCache:
    """Tape-free outputs follow every change to the values a kernel is built
    from, whichever way it is made, bit for bit."""

    @staticmethod
    def reference(m, x):
        with GradTape():  # a taped pass materializes every kernel afresh
            return m(x).data

    def test_tape_free_output_follows_parameter_and_mask_changes(self, rng):
        m = mdl.build_model(mdl.micro_config("global2d"), seed=0)
        x = Tensor(rng.normal(size=(2, 32, 32, 3)))
        params = m.parameter_tensors()
        filt = m.stages[0][0].mixer.filters[0]
        other = mdl.build_model(mdl.micro_config("global2d"), seed=1)

        def write_ffn_weight():
            filt.ffn.weights[0][0].data[0, 0] += 0.25

        def adamw():
            grads = [rng.normal(size=p.shape) for p in params]
            tr.adamw_step(params, grads, tr.init_adamw_state(params), 1e-2, weight_decay=0.05)

        def constrain():
            filt.window.alpha.data[0] = -0.5
            m.apply_constraints()

        def load():
            mdl.load_params(m, {n: t.data for n, t in other.parameters()})

        for change in (write_ffn_weight, adamw, constrain, load):
            before = m(x).data  # warm
            change()
            after = m(x).data
            assert not np.array_equal(after, before), change.__name__
            assert np.array_equal(after, self.reference(m, x)), change.__name__
        truncated = analysis.truncate_kernels(m, 1, 0.5)
        after = truncated(x).data
        assert not np.array_equal(after, m(x).data)
        assert np.array_equal(after, self.reference(truncated, x))
