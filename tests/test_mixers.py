import numpy as np
import pytest

from fftmix import mixers as mx
from fftmix import numerics as nx
from fftmix.numerics import GradTape, Tensor, grad_check


# ---------------------------------------------------------------------------
# Plain-numpy oracles: recompute the whole mixer by direct summation.
# ---------------------------------------------------------------------------


def oracle_project(x, proj):
    wide = x @ proj.pointwise_w.data + proj.pointwise_b.data
    out = np.zeros_like(wide)
    spatial = wide.shape[:-1]
    for t, off in enumerate(proj.offsets):
        w = proj.depthwise_w.data[t]
        if len(off) == 1:
            (o,) = off
            for i in range(spatial[-1]):
                j = i - o
                if 0 <= j < spatial[-1]:
                    out[..., i, :] += w * wide[..., j, :]
        else:
            oy, ox = off
            for iy in range(spatial[-2]):
                jy = iy - oy
                if not 0 <= jy < spatial[-2]:
                    continue
                for ix in range(spatial[-1]):
                    jx = ix - ox
                    if 0 <= jx < spatial[-1]:
                        out[..., iy, ix, :] += w * wide[..., jy, jx, :]
        pass
    out += proj.depthwise_b.data
    c = proj.channels
    return out[..., :c], out[..., c : 2 * c], out[..., 2 * c :]


def oracle_causal(x, mixer):
    length = x.shape[0]
    q, k, v = oracle_project(x, mixer.proj)
    qk = q * k
    h = mixer.kernel(0).data
    g = np.zeros_like(qk)
    for i in range(length):
        for s in range(min(i + 1, h.shape[0])):
            g[i] += h[s] * qk[i - s]
    return (g * v) @ mixer.out_proj.data


def oracle_bidirectional(x, mixer):
    length = x.shape[0]
    q, k, v = oracle_project(x, mixer.proj)
    qk = q * k
    h = mixer.kernel(0).data  # offsets -(L-1)..L-1
    g = np.zeros_like(qk)
    for i in range(length):
        for s in range(length):
            g[i] += qk[s] * h[i - s + length - 1]
    return (g * v) @ mixer.out_proj.data


def oracle_global2d(x, mixer, kernel=None):
    ey, ex, _ = x.shape
    q, k, v = oracle_project(x, mixer.proj)
    qk = q * k
    h = mixer.kernel(0).data if kernel is None else kernel
    h = h.reshape(2 * ey - 1, 2 * ex - 1, -1)
    g = np.zeros_like(qk)
    for iy in range(ey):
        for ix in range(ex):
            for sy in range(ey):
                for sx in range(ex):
                    g[iy, ix] += qk[sy, sx] * h[iy - sy + ey - 1, ix - sx + ex - 1]
    return (g * v) @ mixer.out_proj.data


def identity_projection(proj):
    """q = k = v = x: stacked identity pointwise, impulse depthwise."""
    c = proj.channels
    proj.pointwise_w.data[:] = np.concatenate([np.eye(c)] * 3, axis=1)
    proj.pointwise_b.data[:] = 0.0
    proj.depthwise_w.data[:] = 0.0
    center = proj.offsets.index(tuple([0] * len(proj.axes)))
    proj.depthwise_w.data[center] = 1.0
    proj.depthwise_b.data[:] = 0.0


def centered_impulse_kernel(mixer, index=0):
    f = mixer.filters[index]
    kernel = np.zeros((f.num_positions, mixer.config.channels))
    pos = f.basis.positions
    if pos.ndim == 1:
        center = int(np.where(pos == 0)[0][0])
    else:
        center = int(np.where((pos == 0).all(axis=1))[0][0])
    kernel[center] = 1.0
    return kernel


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


class TestProjection:
    def test_identity_construction_passes_input(self, rng):
        cfg = mx.MixerConfig("bidirectional", channels=3, extent=6, embed_dim=2)
        mixer = mx.GatedConvMixer(cfg, rng)
        identity_projection(mixer.proj)
        x = Tensor(rng.normal(size=(6, 3)))
        q, k, v = mx.project_qkv(x, mixer.proj)
        for t in (q, k, v):
            assert np.abs(t.data - x.data).max() < 1e-15

    def test_stage1_s18_output_channels(self, rng):
        cfg = mx.MixerConfig("global2d", channels=64, extent=(8, 8), embed_dim=32)
        proj = mx.init_gate_projection(cfg, rng)
        assert proj.pointwise_w.shape == (64, 192)
        x = Tensor(rng.normal(size=(8, 8, 64)))
        q, k, v = mx.project_qkv(x, proj)
        assert q.shape[-1] == k.shape[-1] == v.shape[-1] == 64

    def test_gradient(self, rng):
        cfg = mx.MixerConfig("bidirectional", channels=2, extent=5, embed_dim=2)
        proj = mx.init_gate_projection(cfg, rng)
        x = Tensor(rng.normal(size=(5, 2)))

        def f(pw, pb, dw, db):
            p2 = mx.GateProjection(pw, pb, dw, db, proj.offsets, proj.axes)
            q, k, v = mx.project_qkv(x, p2)
            return nx.tensor_sum(nx.mul(nx.mul(q, k), v))

        err = grad_check(f, [proj.pointwise_w, proj.pointwise_b, proj.depthwise_w, proj.depthwise_b])
        assert err < 1e-5

    def test_channel_mismatch(self, rng):
        cfg = mx.MixerConfig("bidirectional", channels=3, extent=4, embed_dim=2)
        proj = mx.init_gate_projection(cfg, rng)
        with pytest.raises(ValueError):
            mx.project_qkv(Tensor(rng.normal(size=(4, 5))), proj)


# ---------------------------------------------------------------------------
# Gated variants
# ---------------------------------------------------------------------------


def gating_identity_case(variant, extent, rng):
    cfg = mx.MixerConfig(variant, channels=3, extent=extent, embed_dim=4)
    mixer = mx.GatedConvMixer(cfg, rng)
    identity_projection(mixer.proj)
    mixer.out_proj.data[:] = np.eye(3)
    return mixer


class TestCausal:
    def test_impulse_kernel_gives_elementwise_product(self, rng):
        mixer = gating_identity_case("causal", 8, rng)
        x = rng.normal(size=(8, 3))
        kernel = np.zeros((8, 3))
        kernel[0] = 1.0
        y = mixer.forward(Tensor(x), kernel_override=kernel).data
        assert np.abs(y - x * x * x).max() < 1e-12

    def test_causality_is_bitwise(self, rng):
        cfg = mx.MixerConfig("causal", channels=3, extent=12, embed_dim=2)
        mixer = mx.GatedConvMixer(cfg, rng)
        x = rng.normal(size=(12, 3))
        y = mixer.forward(Tensor(x)).data
        x2 = x.copy()
        x2[7:] = 99.0
        y2 = mixer.forward(Tensor(x2)).data
        assert np.array_equal(y[:7], y2[:7])

    def test_matches_direct_oracle(self, rng):
        cfg = mx.MixerConfig("causal", channels=4, extent=32, embed_dim=4)
        mixer = mx.GatedConvMixer(cfg, rng)
        x = rng.normal(size=(32, 4))
        y = mixer.forward(Tensor(x)).data
        assert np.abs(y - oracle_causal(x, mixer)).max() < 1e-10

    def test_future_jacobian_exactly_zero(self, rng):
        cfg = mx.MixerConfig("causal", channels=2, extent=9, embed_dim=2)
        mixer = mx.GatedConvMixer(cfg, rng)
        x = Tensor(rng.normal(size=(9, 2)), requires_grad=True)
        for i in range(9):
            with GradTape() as tape:
                y = mixer.forward(x)
                target = nx.tensor_sum(nx.crop(y, [slice(i, i + 1), slice(None)]))
            g = tape.gradient(target, [x])[0].data
            assert np.array_equal(g[i + 1 :], np.zeros_like(g[i + 1 :]))

    def test_rejects_2d_feature_maps(self, rng):
        cfg = mx.MixerConfig("causal", channels=2, extent=4, embed_dim=2)
        mixer = mx.GatedConvMixer(cfg, rng)
        with pytest.raises(ValueError):
            mixer.forward(Tensor(rng.normal(size=(1, 4, 4, 2))))  # rank-4 map batch
        with pytest.raises(ValueError):
            mixer.forward(Tensor(rng.normal(size=(5, 2))))  # wrong length


class TestBidirectional:
    def test_center_impulse_gives_elementwise_product(self, rng):
        mixer = gating_identity_case("bidirectional", 6, rng)
        x = rng.normal(size=(6, 3))
        y = mixer.forward(Tensor(x), kernel_override=centered_impulse_kernel(mixer)).data
        assert np.abs(y - x * x * x).max() < 1e-12

    def test_all_ones_kernel_full_coverage(self, rng):
        mixer = gating_identity_case("bidirectional", 7, rng)
        x = np.zeros((7, 3))
        x[3] = 1.0  # impulse input -> q*k is an impulse at position 3
        ones = np.ones((13, 3))
        # Probe the g-branch via v == x trick: y = g(q*k) * v; read conv output
        # by making v all ones instead (bias trick on the projection).
        mixer.proj.pointwise_w.data[:, 6:] = 0.0
        mixer.proj.depthwise_b.data[6:] = 1.0
        y = mixer.forward(Tensor(x), kernel_override=ones).data
        assert np.abs(y - 1.0).max() < 1e-12

    def test_matches_direct_oracle(self, rng):
        cfg = mx.MixerConfig("bidirectional", channels=4, extent=32, embed_dim=4)
        mixer = mx.GatedConvMixer(cfg, rng)
        x = rng.normal(size=(32, 4))
        y = mixer.forward(Tensor(x)).data
        assert np.abs(y - oracle_bidirectional(x, mixer)).max() < 1e-10


class TestGlobal2D:
    def test_center_impulse_gives_elementwise_product(self, rng):
        mixer = gating_identity_case("global2d", (5, 4), rng)
        x = rng.normal(size=(5, 4, 3))
        y = mixer.forward(Tensor(x), kernel_override=centered_impulse_kernel(mixer)).data
        assert np.abs(y - x * x * x).max() < 1e-12

    def test_matches_direct_oracle(self, rng):
        cfg = mx.MixerConfig("global2d", channels=3, extent=(6, 8), embed_dim=4)
        mixer = mx.GatedConvMixer(cfg, rng)
        x = rng.normal(size=(6, 8, 3))
        y = mixer.forward(Tensor(x)).data
        assert np.abs(y - oracle_global2d(x, mixer)).max() < 1e-10

    def test_extent_mismatch_rejected(self, rng):
        cfg = mx.MixerConfig("global2d", channels=3, extent=(6, 8), embed_dim=4)
        mixer = mx.GatedConvMixer(cfg, rng)
        with pytest.raises(ValueError):
            mixer.forward(Tensor(rng.normal(size=(8, 6, 3))))


class TestSeparable:
    def test_impulse_kernels_give_elementwise_product(self, rng):
        mixer = gating_identity_case("separable2d", (5, 6), rng)
        x = rng.normal(size=(5, 6, 3))
        over = [centered_impulse_kernel(mixer, 0), centered_impulse_kernel(mixer, 1)]
        y = mixer.forward(Tensor(x), kernel_override=over).data
        assert np.abs(y - x * x * x).max() < 1e-12

    def test_rank_one_kernel_equals_global2d(self, rng):
        ey, ex, c = 5, 6, 2
        cfg_s = mx.MixerConfig("separable2d", channels=c, extent=(ey, ex), embed_dim=4)
        cfg_g = mx.MixerConfig("global2d", channels=c, extent=(ey, ex), embed_dim=4)
        m_s = mx.GatedConvMixer(cfg_s, np.random.default_rng(7))
        m_g = mx.GatedConvMixer(cfg_g, np.random.default_rng(7))
        m_g.proj, m_g.out_proj = m_s.proj, m_s.out_proj
        h_h = rng.normal(size=(2 * ex - 1, c))
        h_v = rng.normal(size=(2 * ey - 1, c))
        h2d = (h_v[:, None, :] * h_h[None, :, :]).reshape(-1, c)
        x = Tensor(rng.normal(size=(ey, ex, c)))
        y_s = m_s.forward(x, kernel_override=[h_h, h_v]).data
        y_g = m_g.forward(x, kernel_override=h2d).data
        assert np.abs(y_s - y_g).max() < 1e-10

    def test_axis_gradient_support_factorizes(self, rng):
        # Sequential separability: the center output's gradient support is the
        # outer product of the two 1D kernel supports.  Collapsing one axis
        # kernel to an impulse confines the support to the center column/row.
        ey = ex = 7
        cfg = mx.MixerConfig("separable2d", channels=1, extent=(ey, ex), embed_dim=2)
        mixer = mx.GatedConvMixer(cfg, rng)
        identity_projection(mixer.proj)
        mixer.out_proj.data[:] = np.eye(1)
        mixer.proj.pointwise_w.data[:, 1:] = 0.0  # k, v weights zero
        mixer.proj.depthwise_b.data[1:] = 1.0  # k = v = 1, so y = g(x)
        full = np.ones((13, 1))
        impulse = centered_impulse_kernel(mixer, 0)
        for case, kernels in {
            "column": [impulse, full],  # horizontal kernel collapses to a tap
            "row": [full, impulse],  # vertical kernel collapses to a tap
        }.items():
            x = Tensor(rng.normal(size=(ey, ex, 1)), requires_grad=True)
            with GradTape() as tape:
                y = mixer.forward(x, kernel_override=kernels)
                target = nx.tensor_sum(nx.crop(y, [slice(3, 4), slice(3, 4), slice(None)]))
            g = tape.gradient(target, [x])[0].data[..., 0]
            # Spectral path: off-support entries are FFT roundoff, not exact 0.
            support = np.abs(g) > 1e-10
            expected = np.zeros_like(support)
            if case == "column":
                expected[:, 3] = True
            else:
                expected[3, :] = True
            assert not support[~expected].any(), case
            assert support[expected].all(), case


class TestLocal:
    def test_impulse_depthwise_is_pointwise_activation(self, rng):
        cfg = mx.MixerConfig("local", channels=3, extent=(5, 5), embed_dim=2, expand_ratio=1)
        mixer = mx.LocalConvMixer(cfg, rng)
        mixer.expand_w.data[:] = np.eye(3)
        mixer.expand_b.data[:] = 0.0
        mixer.contract_w.data[:] = np.eye(3)
        mixer.contract_b.data[:] = 0.0
        mixer.depthwise_w.data[:] = 0.0
        mixer.depthwise_w.data[mixer.offsets.index((0, 0))] = 1.0
        mixer.depthwise_b.data[:] = 0.0
        x = rng.normal(size=(5, 5, 3))
        y = mixer.forward(Tensor(x)).data
        s, b = mixer.act.scale.data, mixer.act.shift.data
        expected = s * np.maximum(x, 0.0) ** 2 + b
        assert np.abs(y - expected).max() < 1e-14

    def test_receptive_field_confined_to_7x7(self, rng):
        cfg = mx.MixerConfig("local", channels=2, extent=(11, 11), embed_dim=2)
        mixer = mx.LocalConvMixer(cfg, rng)
        x = rng.normal(size=(11, 11, 2))
        y = mixer.forward(Tensor(x)).data
        x2 = x.copy()
        patch = np.zeros((11, 11), dtype=bool)
        patch[5 - 3 : 5 + 4, 5 - 3 : 5 + 4] = True
        x2[~patch] = 123.0
        y2 = mixer.forward(Tensor(x2)).data
        assert np.array_equal(y[5, 5], y2[5, 5])

    def test_gradient(self, rng):
        cfg = mx.MixerConfig("local", channels=4, extent=(9, 9), embed_dim=2)
        mixer = mx.LocalConvMixer(cfg, rng)
        x = Tensor(rng.normal(size=(9, 9, 4)))

        def f(ew, dw, cw):
            m2 = mx.LocalConvMixer(cfg, np.random.default_rng(0))
            m2.expand_w, m2.depthwise_w, m2.contract_w = ew, dw, cw
            m2.expand_b, m2.depthwise_b = mixer.expand_b, mixer.depthwise_b
            m2.contract_b, m2.act = mixer.contract_b, mixer.act
            m2.offsets = mixer.offsets
            return nx.tensor_sum(m2.forward(x))

        err = grad_check(
            f, [mixer.expand_w, mixer.depthwise_w, mixer.contract_w], max_coords=400
        )
        assert err < 1e-5

    def test_extent_validation(self):
        with pytest.raises(ValueError):
            mx.MixerConfig("local", channels=2, extent=(0, 4), embed_dim=2)


class TestSmallExtents:
    """Extents 1 and 2, the micro model's stage-3 and stage-4 maps, against
    direct summation: the centered crop starts at L-1 there too."""

    @pytest.mark.parametrize("length", [1, 2])
    def test_bidirectional(self, rng, length):
        mixer = mx.GatedConvMixer(mx.MixerConfig("bidirectional", 3, length, embed_dim=4), rng)
        x = rng.normal(size=(length, 3))
        y = mixer.forward(Tensor(x)).data
        assert np.abs(y - oracle_bidirectional(x, mixer)).max() < 1e-10

    @pytest.mark.parametrize("extent", [(1, 1), (2, 2), (1, 5)])
    def test_global2d(self, rng, extent):
        mixer = mx.GatedConvMixer(mx.MixerConfig("global2d", 3, extent, embed_dim=4), rng)
        x = rng.normal(size=extent + (3,))
        y = mixer.forward(Tensor(x)).data
        assert np.abs(y - oracle_global2d(x, mixer)).max() < 1e-10

    @pytest.mark.parametrize("extent", [(2, 2), (1, 5)])
    def test_separable2d_matches_outer_product_oracle(self, rng, extent):
        mixer = mx.GatedConvMixer(mx.MixerConfig("separable2d", 3, extent, embed_dim=4), rng)
        h2d = mixer.kernel(1).data[:, None, :] * mixer.kernel(0).data[None, :, :]
        x = rng.normal(size=extent + (3,))
        y = mixer.forward(Tensor(x)).data
        assert np.abs(y - oracle_global2d(x, mixer, h2d)).max() < 1e-10


class TestConfig:
    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            mx.MixerConfig("attention", channels=2, extent=4, embed_dim=2)

    def test_filter_extents(self):
        assert mx.MixerConfig("causal", 2, 10, 2).filter_extent() == 10
        assert mx.MixerConfig("bidirectional", 2, 10, 2).filter_extent() == 19
        assert mx.MixerConfig("global2d", 2, (4, 6), 2).filter_extent() == (7, 11)


class TestFullContext:
    @pytest.mark.parametrize("variant,extent", [("bidirectional", 6), ("global2d", (4, 5))])
    def test_all_ones_kernel_reaches_every_position(self, rng, variant, extent):
        cfg = mx.MixerConfig(variant, channels=3, extent=extent, embed_dim=4)
        mixer = mx.GatedConvMixer(cfg, rng)
        if variant == "bidirectional":
            x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
            ones = np.ones((11, 3))
            center = [slice(3, 4), slice(None)]
        else:
            x = Tensor(rng.normal(size=(4, 5, 3)), requires_grad=True)
            ones = np.ones((7 * 9, 3))
            center = [slice(2, 3), slice(2, 3), slice(None)]
        with GradTape() as tape:
            y = mixer.forward(x, kernel_override=ones)
            target = nx.tensor_sum(nx.crop(y, center))
        g = tape.gradient(target, [x])[0].data
        per_position = np.abs(g).max(axis=-1)
        assert np.all(per_position > 0)
