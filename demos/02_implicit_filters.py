# Implicit kernels: positional basis -> sine FFN -> decay window
# ----------------------------------------------------------------
# Long kernels are never stored tap-by-tap.  A fixed sin/cos basis over the
# kernel grid goes through a small sine-activated network (one output per
# channel), and the result is shaped by an exponential-decay window whose
# per-channel rate is learnable.  1D and 2D filters share one basis type,
# ``PositionalBasis``, whose ``grid`` is (L,) or (2Ly-1, 2Lx-1).  The basis
# harmonics span one period of whatever grid they are built on, but the
# window reads each tap's offset in taps, so a filter simply rebuilt on a
# larger grid keeps its decay length in taps.  ``resample_filter`` also
# rescales those offsets by old/new extent, so the same weights give the
# trained continuous filter, resampled, when the input resolution grows.

import numpy as np

from fftmix import (
    Tensor,
    WindowParams,
    build_basis_1d,
    build_basis_2d,
    eval_window,
    materialize_filter,
    resample_filter,
)
from fftmix.filters import init_filter_ffn, init_window_params
from fftmix.hpxio import write_pgm

rng = np.random.default_rng(3)

# --- the 1D basis is a truncated Fourier family ----------------------------
basis = build_basis_1d(16, 4)
print("basis features:", basis.features.shape, "(constant + 3 sin/cos pairs)")
gram = basis.features.T @ basis.features
print("columns orthogonal over one period:",
      float(np.abs(gram - np.diag(np.diag(gram))).max()))

# --- windows: exp(-alpha * distance) + bias --------------------------------
w = WindowParams(Tensor(np.array([np.log(2.0)])), Tensor(np.array([0.0])), "bidirectional")
print("halving window at offsets -2..2:",
      eval_window(w, np.arange(-2.0, 3.0)).data[:, 0].round(4))

# --- materialize a 2D kernel and dump it as an image ------------------------
channels, extent, K = 4, 14, 8
basis2 = build_basis_2d(extent, extent, K)
ffn = init_filter_ffn(K, 2 * K, channels, basis2.features.shape[0], rng)
window = init_window_params(channels, extent, "radial2d", rng)
kernel = materialize_filter(basis2, ffn, window).data
grid = kernel.reshape(*basis2.grid, channels)  # (27, 27, channels)
print("materialized kernel:", grid.shape)
write_pgm("demo_kernel_mean.pgm", grid.mean(axis=-1))
print("wrote demo_kernel_mean.pgm (mean over channels, 27x27)")

# --- resampling: same continuous filter, denser grid ------------------------
up = resample_filter(ffn, window, (27, 27), (81, 81)).data
print("resampled kernel:", up.reshape(81, 81, channels).shape)
# Grid points that coincide (odd 3x ratio) carry identical values:
old_center = kernel.reshape(27, 27, channels)[13, 13]
new_center = up.reshape(81, 81, channels)[40, 40]
print("center value drift after resampling:",
      float(np.abs(old_center - new_center).max()))
