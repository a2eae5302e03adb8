# Gated long-convolution token mixers
# ------------------------------------
# Every mixer here follows the same recipe: project the input into three
# chunks (query, key, value), convolve q*k with a long kernel, and gate the
# result with v.  This script builds each variant on a toy input and checks
# the properties that define them: what the kernel can reach, and what
# happens when it degenerates to an impulse.

import numpy as np

from fftmix import GradTape, MixerConfig, Tensor, build_mixer
from fftmix import numerics as nx

rng = np.random.default_rng(0)

# --- causal: outputs only ever see the past -------------------------------
cfg = MixerConfig("causal", channels=4, extent=24, embed_dim=4)
mixer = build_mixer(cfg, rng)
x = rng.normal(size=(24, 4))
y = mixer.forward(Tensor(x)).data

x_future = x.copy()
x_future[12:] = 1e6  # rewrite the future
y_future = mixer.forward(Tensor(x_future)).data
print("causal: outputs 0..11 identical after rewriting the future:",
      np.array_equal(y[:12], y_future[:12]))

# --- bidirectional: a centered kernel of width 2L-1 covers everything -----
cfg = MixerConfig("bidirectional", channels=4, extent=24, embed_dim=4)
mixer = build_mixer(cfg, rng)
xt = Tensor(rng.normal(size=(24, 4)), requires_grad=True)
ones_kernel = np.ones((47, 4))
with GradTape() as tape:
    out = mixer.forward(xt, kernel_override=ones_kernel)
    center = nx.tensor_sum(nx.crop(out, [slice(12, 13), slice(None)]))
grad = tape.gradient(center, [xt])[0].data
print("bidirectional: fraction of inputs influencing the center output:",
      float((np.abs(grad).max(axis=-1) > 0).mean()))

# --- gating identity: an impulse kernel reduces the mixer to q*k*v --------
cfg = MixerConfig("global2d", channels=3, extent=(8, 8), embed_dim=4)
mixer = build_mixer(cfg, rng)
c = cfg.channels
mixer.proj.pointwise_w.data[:] = np.concatenate([np.eye(c)] * 3, axis=1)
mixer.proj.pointwise_b.data[:] = 0.0
mixer.proj.depthwise_w.data[:] = 0.0
mixer.proj.depthwise_w.data[mixer.proj.offsets.index((0, 0))] = 1.0
mixer.proj.depthwise_b.data[:] = 0.0
mixer.out_proj.data[:] = np.eye(c)

impulse = np.zeros((15 * 15, c))
impulse[(15 * 15) // 2] = 1.0  # offset (0, 0) sits at the grid center
xm = rng.normal(size=(8, 8, c))
ym = mixer.forward(Tensor(xm), kernel_override=impulse).data
print("global2d: impulse kernel reproduces x*x*x:",
      float(np.abs(ym - xm**3).max()))

# --- separable: horizontal then vertical 1D kernels -----------------------
cfg = MixerConfig("separable2d", channels=3, extent=(8, 8), embed_dim=4)
mixer = build_mixer(cfg, rng)
print("separable2d: two 1D kernels of", [f.basis.grid for f in mixer.filters],
      "replace one", (15, 15), "kernel")
