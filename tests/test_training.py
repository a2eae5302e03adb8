import gc
import hashlib
import re
import shutil
import tracemalloc
import weakref

import numpy as np
import pytest

from fftmix import hpxio
from fftmix import model as mdl
from fftmix import training as tr
from fftmix.numerics import GradTape, Tensor


def adam_reference(params, grads, state, lr, betas=(0.9, 0.999), eps=1e-8):
    """Plain Adam oracle (no weight decay) mirroring the standard update."""
    beta1, beta2 = betas
    state["step"] += 1
    t = state["step"]
    for p, g, m, v in zip(params, grads, state["m"], state["v"]):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        update = (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)
        p -= lr * update
    return state


class TestSchedule:
    def conf(self, **kw):
        base = dict(lr_peak=1e-3, lr_final=1e-5, warmup_epochs=2, total_epochs=20)
        base.update(kw)
        return tr.TrainConfig(**base)

    def test_step_zero(self):
        c = self.conf()
        assert tr.cosine_warmup_lr(0, c, steps_per_epoch=10) == 0.0
        assert tr.cosine_warmup_lr(1, c, steps_per_epoch=10) <= c.lr_peak / 2

    def test_warmup_end_hits_peak(self):
        c = self.conf()
        assert tr.cosine_warmup_lr(20, c, steps_per_epoch=10) == c.lr_peak

    def test_final_step_hits_floor(self):
        c = self.conf()
        assert tr.cosine_warmup_lr(199, c, steps_per_epoch=10) == c.lr_final
        assert tr.cosine_warmup_lr(500, c, steps_per_epoch=10) == c.lr_final

    def test_continuity_bound(self):
        c = self.conf()
        spe = 10
        warmup = c.warmup_epochs * spe
        total = c.total_epochs * spe
        lrs = [tr.cosine_warmup_lr(s, c, spe) for s in range(total)]
        cos_bound = np.pi * (c.lr_peak - c.lr_final) / (2 * (total - warmup))
        bound = c.lr_peak / warmup + cos_bound + 1e-12
        assert np.abs(np.diff(lrs)).max() <= bound

    def test_validation(self):
        with pytest.raises(ValueError):
            tr.TrainConfig(label_smoothing=1.0)
        with pytest.raises(ValueError):
            tr.TrainConfig(warmup_epochs=20, total_epochs=20)


class TestCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        logits = Tensor(np.zeros((3, 7)))
        loss = tr.cross_entropy_smoothed(logits, np.array([0, 3, 6]), 0.0)
        assert abs(float(loss.data) - np.log(7)) < 1e-12

    def test_confident_correct_logit_drives_loss_to_zero(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 50.0
        loss = tr.cross_entropy_smoothed(Tensor(logits), np.array([2]), 0.0)
        assert float(loss.data) < 1e-12

    def test_matches_direct_formula(self, rng):
        n, k, eps = 5, 6, 0.1
        logits = rng.normal(size=(n, k))
        labels = rng.integers(0, k, size=n)
        loss = float(tr.cross_entropy_smoothed(Tensor(logits), labels, eps).data)
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        targets = np.full((n, k), eps / k)
        targets[np.arange(n), labels] += 1 - eps
        direct = float(np.mean(-(targets * np.log(probs)).sum(axis=1)))
        assert abs(loss - direct) < 1e-10

    def test_label_out_of_range(self, rng):
        with pytest.raises(ValueError):
            tr.cross_entropy_smoothed(Tensor(rng.normal(size=(2, 3))), np.array([0, 3]), 0.0)

    @pytest.mark.parametrize("labels", [np.array([0.0, 1.0]), np.array([True, False])])
    def test_non_integer_labels_named(self, rng, labels):
        with pytest.raises(ValueError, match=f"got dtype {labels.dtype}"):
            tr.cross_entropy_smoothed(Tensor(rng.normal(size=(2, 3))), labels, 0.0)


class TestAdamW:
    def test_zero_gradients_pure_decay(self, rng):
        p = Tensor(rng.normal(size=7), requires_grad=True)
        before = p.data.copy()
        state = tr.init_adamw_state([p])
        tr.adamw_step([p], [np.zeros(7)], state, lr=0.1, weight_decay=0.05)
        assert np.array_equal(p.data, before * (1 - 0.1 * 0.05))

    def test_first_step_closed_form(self):
        g = 0.37
        p = Tensor(np.array([1.0]), requires_grad=True)
        state = tr.init_adamw_state([p])
        tr.adamw_step([p], [np.array([g])], state, lr=0.01, weight_decay=0.0)
        expected = 1.0 - 0.01 * g / (abs(g) + 1e-8)
        assert abs(p.data[0] - expected) < 1e-14

    def test_decay_decouples_from_moments(self, rng):
        # adamw(wd) == decay-then-adam, bitwise.
        p1 = Tensor(rng.normal(size=5), requires_grad=True)
        p2 = Tensor(p1.data.copy(), requires_grad=True)
        g = rng.normal(size=5)
        s1 = tr.init_adamw_state([p1])
        s2 = {"step": 0, "m": [np.zeros(5)], "v": [np.zeros(5)]}
        tr.adamw_step([p1], [g], s1, lr=0.02, weight_decay=0.1)
        p2.data *= 1 - 0.02 * 0.1
        adam_reference([p2.data], [g], s2, lr=0.02)
        assert np.array_equal(p1.data, p2.data)

    def test_wd_zero_equals_adam_bitwise(self, rng):
        p = Tensor(rng.normal(size=9), requires_grad=True)
        ref = p.data.copy()
        state = tr.init_adamw_state([p])
        ref_state = {"step": 0, "m": [np.zeros(9)], "v": [np.zeros(9)]}
        for _ in range(25):
            g = rng.normal(size=9)
            tr.adamw_step([p], [g], state, lr=0.003, weight_decay=0.0)
            adam_reference([ref], [g], ref_state, lr=0.003)
        assert np.array_equal(p.data, ref)

    def test_in_place_update_is_the_textbook_formula_bitwise(self, rng):
        # Decay, then the moments and the update written out in full, as
        # ``adam_reference`` does, on a large, a small and a 0-d tensor.
        shapes = [(512, 2048), (7, 3), ()]
        params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        ref = [p.data.copy() for p in params]
        state = tr.init_adamw_state(params)
        ref_state = {"step": 0, "m": [np.zeros(s) for s in shapes], "v": [np.zeros(s) for s in shapes]}
        lr, wd = 3e-3, 0.05
        for _ in range(5):
            grads = [rng.normal(size=s) for s in shapes]
            tr.adamw_step(params, grads, state, lr, weight_decay=wd)
            for r in ref:
                r *= 1.0 - lr * wd
            adam_reference(ref, grads, ref_state, lr)

        def digest(arrays):
            return [hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest() for a in arrays]

        assert digest(p.data for p in params) == digest(ref)
        assert digest(state["m"]) == digest(ref_state["m"])
        assert digest(state["v"]) == digest(ref_state["v"])

    def test_update_needs_two_scratch_arrays(self, rng):
        p = Tensor(rng.normal(size=(512, 256)), requires_grad=True)
        state = tr.init_adamw_state([p])
        grads = [rng.normal(size=p.shape)]
        tracemalloc.start()
        try:
            tr.adamw_step([p], grads, state, 1e-3, weight_decay=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * p.data.nbytes + 8_000

    def test_converges_on_quadratic(self, rng):
        target = rng.normal(size=16)
        offset = rng.normal(size=16)
        w = Tensor(target + offset / np.linalg.norm(offset), requires_grad=True)
        state = tr.init_adamw_state([w])
        for _ in range(200):
            grad = 2.0 * (w.data - target)
            tr.adamw_step([w], [grad], state, lr=0.05, weight_decay=0.0)
        assert np.linalg.norm(w.data - target) < 1e-2

    def test_non_finite_gradients_rejected(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        state = tr.init_adamw_state([p])
        with pytest.raises(ValueError):
            tr.adamw_step([p], [np.array([np.nan])], state, lr=0.01)

    def test_only_raw_gradients_are_scanned(self, monkeypatch):
        params = [Tensor(np.ones(3), requires_grad=True) for _ in range(2)]
        grads = [Tensor(np.full(3, 0.5)) for _ in params]  # checked when built
        state = tr.init_adamw_state(params)
        scans = []
        isfinite = np.isfinite
        monkeypatch.setattr(np, "isfinite", lambda a: scans.append(1) or isfinite(a))
        tr.adamw_step(params, grads, state, lr=0.01)
        assert scans == []
        tr.adamw_step(params, [g.data for g in grads], state, lr=0.01)
        assert len(scans) == 2


class TestSyntheticData:
    def test_balanced_and_disjoint(self):
        spec = tr.DatasetSpec(train_size=64, val_size=32, seed=5)
        tx, ty, vx, vy = tr.synthetic_quadrant_dataset(spec)
        assert tx.shape == (64, 32, 32, 3) and vx.shape == (32, 32, 32, 3)
        assert np.bincount(ty, minlength=4).tolist() == [16, 16, 16, 16]
        assert np.bincount(vy, minlength=4).tolist() == [8, 8, 8, 8]
        # Disjoint: no train image equals a val image.
        assert not any(np.array_equal(tx[i], vx[j]) for i in range(8) for j in range(8))

    def test_deterministic(self):
        spec = tr.DatasetSpec(train_size=16, val_size=8, seed=9)
        a = tr.synthetic_quadrant_dataset(spec)
        b = tr.synthetic_quadrant_dataset(spec)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_blob_lands_in_labeled_quadrant(self):
        spec = tr.DatasetSpec(train_size=32, val_size=0, seed=2)
        tx, ty, _, _ = tr.synthetic_quadrant_dataset(spec)
        for img, label in zip(tx, ty):
            intensity = img.sum(axis=-1)
            by, bx = np.unravel_index(np.argmax(intensity), intensity.shape)
            assert (by >= 16) * 2 + (bx >= 16) == label

    def test_directory_source_requires_path(self):
        with pytest.raises(ValueError):
            tr.DatasetSpec(source="directory")

    @pytest.mark.parametrize("key,value", [("train_size", -5), ("val_size", -1), ("num_classes", 0),
                                           ("image_size", 7), ("num_classes", 5)])
    def test_sizes_that_break_training_are_rejected_naming_the_key(self, key, value):
        with pytest.raises(ValueError, match=rf"^{key} must"):
            tr.DatasetSpec(**{key: value})

    @pytest.mark.parametrize("cls,key,value", [
        (tr.TrainConfig, "lr_peak", "0.001"),
        (tr.TrainConfig, "lr_peak", float("nan")),
        (tr.TrainConfig, "lr_final", float("inf")),
        (tr.TrainConfig, "lr_final", -1e-5),
        (tr.TrainConfig, "weight_decay", -1.0),
        (tr.TrainConfig, "batch_size", 2.5),
        (tr.TrainConfig, "total_epochs", True),
        (tr.DatasetSpec, "train_size", 2.5),
        (tr.DatasetSpec, "image_size", 32.0),
        (tr.DatasetSpec, "seed", "x"),
        (tr.DatasetSpec, "path", 5),
    ])
    def test_wrongly_typed_or_negative_values_are_rejected_naming_the_key(self, cls, key, value):
        with pytest.raises(ValueError, match=rf"^(config key '{key}'|{key}) must"):
            cls(**{key: value})

    def test_float_keys_take_ints_and_path_takes_a_string(self):
        assert tr.TrainConfig(lr_peak=1, lr_final=0, weight_decay=0).lr_peak == 1
        assert tr.DatasetSpec(source="directory", path="images").path == "images"

    def test_zero_sizes_and_small_directory_images_stay_legal(self):
        tx, _, vx, _ = tr.synthetic_quadrant_dataset(tr.DatasetSpec(train_size=0, val_size=2, image_size=8))
        assert tx.shape == (0, 8, 8, 3) and vx.shape == (2, 8, 8, 3)
        tr.DatasetSpec(source="directory", path="images", image_size=4)
        tr.DatasetSpec(source="directory", path="images", num_classes=8)

    def test_directory_labels_follow_train_classes(self, tmp_path):
        def write_split(split, classes):
            for c in classes:
                (tmp_path / split / c).mkdir(parents=True)
                # Each image is filled with its class's index in "abcd".
                hpxio.write_hpx1(tmp_path / split / c / "0.hpx1", np.full((4, 4, 3), "abcd".index(c), float))

        write_split("train", "abcd")
        write_split("val", "abcd")
        spec = tr.DatasetSpec(source="directory", path=str(tmp_path))
        _, ty, vx, vy = tr.load_dataset(spec)
        assert list(ty) == [0, 1, 2, 3]
        assert np.array_equal(vx[:, 0, 0, 0], vy)
        shutil.rmtree(tmp_path / "val" / "b")  # val's c must not take b's label
        with pytest.raises(ValueError, match="differ from train"):
            tr.load_dataset(spec)


    def test_mixed_image_shapes_named(self, tmp_path):
        for split in ("train", "val"):
            (tmp_path / split / "a").mkdir(parents=True)
            hpxio.write_hpx1(tmp_path / split / "a" / "0.hpx1", np.zeros((32, 32, 3)))
        hpxio.write_hpx1(tmp_path / "val" / "a" / "1.hpx1", np.zeros((48, 32, 3)))
        spec = tr.DatasetSpec(source="directory", path=str(tmp_path))
        first, odd = tmp_path / "val" / "a" / "0.hpx1", tmp_path / "val" / "a" / "1.hpx1"
        match = re.escape(f"the val split mixes image shapes: {odd} is [48, 32, 3], {first} is [32, 32, 3]")
        with pytest.raises(ValueError, match=match):
            tr.load_dataset(spec)

    def test_split_without_images_named(self, tmp_path):
        for split in ("train", "val"):
            (tmp_path / split / "a").mkdir(parents=True)
        hpxio.write_hpx1(tmp_path / "train" / "a" / "0.hpx1", np.zeros((32, 32, 3)))
        spec = tr.DatasetSpec(source="directory", path=str(tmp_path))
        match = re.escape(f"the val split holds no .hpx1 images under {tmp_path / 'val'}")
        with pytest.raises(ValueError, match=match):
            tr.load_dataset(spec)

    def test_each_split_must_match_the_model_input(self, tmp_path):
        # 32 px training images and 48 px validation images for a 32 px model.
        for split, size in (("train", 32), ("val", 48)):
            for c in "ab":
                (tmp_path / split / c).mkdir(parents=True)
                hpxio.write_hpx1(tmp_path / split / c / "0.hpx1", np.zeros((size, size, 3)))
        model = mdl.build_model(mdl.micro_config(num_classes=2), seed=0)
        spec = tr.DatasetSpec(source="directory", path=str(tmp_path), num_classes=2)
        conf = tr.TrainConfig(total_epochs=1, warmup_epochs=0, batch_size=2)
        with pytest.raises(ValueError, match=r"validation split's images are \[48, 48, 3\], the model expects \[32, 32, 3\]"):
            tr.train(model, spec, conf)


class TestTrainLoop:
    def micro_setup(self, variant="global2d", **kw):
        model = mdl.build_model(mdl.micro_config(variant), seed=0)
        spec = tr.DatasetSpec(train_size=64, val_size=32, seed=1)
        conf = dict(total_epochs=3, warmup_epochs=1, seed=0)
        conf.update(kw)
        return model, spec, tr.TrainConfig(**conf)

    def test_finished_step_tape_freed_without_gc(self):
        model, _, _ = self.micro_setup()
        x = Tensor(np.random.default_rng(0).normal(size=(2, 32, 32, 3)))
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            with GradTape() as tape:
                loss = tr.cross_entropy_smoothed(model(x), np.array([0, 1]), 0.1)
            tape.gradient(loss, model.parameter_tensors())
            ref = weakref.ref(tape)
            del tape
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_zero_lr_constant_history(self):
        model, spec, conf = self.micro_setup(lr_peak=0.0, lr_final=0.0, weight_decay=0.0)
        history = tr.train(model, spec, conf)
        losses = [h["train_loss"] for h in history]
        accs = [h["val_acc"] for h in history]
        assert max(losses) - min(losses) < 1e-12
        assert len(set(accs)) == 1

    def test_equal_seeds_identical_curves(self):
        m1, spec, conf = self.micro_setup()
        h1 = tr.train(m1, spec, conf)
        m2, _, _ = self.micro_setup()
        h2 = tr.train(m2, spec, conf)
        assert [h["train_loss"] for h in h1] == [h["train_loss"] for h in h2]
        assert [h["val_acc"] for h in h1] == [h["val_acc"] for h in h2]

    @pytest.mark.parametrize(
        "variant", ["causal", "bidirectional", "global2d", "separable2d", "local"]
    )
    def test_loss_decreases_first_epochs(self, variant):
        model = mdl.build_model(mdl.micro_config(variant), seed=0)
        spec = tr.DatasetSpec(train_size=128, val_size=32, seed=1)
        conf = tr.TrainConfig(lr_peak=2e-3, total_epochs=5, warmup_epochs=1, seed=0)
        history = tr.train(model, spec, conf)
        losses = [h["train_loss"] for h in history]
        assert losses[-1] < losses[0]

    def test_size_mismatch_rejected(self):
        model = mdl.build_model(mdl.micro_config(), seed=0)
        spec = tr.DatasetSpec(train_size=8, val_size=4, image_size=64)
        with pytest.raises(ValueError):
            tr.train(model, spec, tr.TrainConfig(total_epochs=1, warmup_epochs=0))
        with pytest.raises(ValueError, match="image array is empty"):
            tr.evaluate_accuracy(model, np.empty((0, 32, 32, 3)), np.empty(0, dtype=np.int64))

    def test_writes_history_and_checkpoint(self, tmp_path):
        model, spec, conf = self.micro_setup(total_epochs=1, warmup_epochs=0)
        tr.train(model, spec, conf, out_dir=tmp_path)
        text = (tmp_path / "history.csv").read_text().splitlines()
        assert text[0] == "epoch,lr,train_loss,val_acc"
        assert len(text) == 2
        assert (tmp_path / "checkpoint" / "manifest.json").exists()
