# Effective receptive fields: local vs global mixers
# ----------------------------------------------------
# The ERF is the gradient footprint of the center output unit on the input
# image.  A stem plus one local-convolution block has a provably bounded
# footprint (zero gradients outside a 31x31 window); swapping in one 2D
# global-kernel block lights up the whole image.

import numpy as np

from fftmix import erf_map
from fftmix import mixers as mx
from fftmix import model as mdl
from fftmix.hpxio import write_pgm


class StemPlusBlock:
    def __init__(self, variant, input_size=64, channels=4, seed=0):
        rng = np.random.default_rng(seed)
        self.stem = mdl.ConvNormLayer(3, channels, 7, 4, 2, rng)
        f = input_size // 4
        extent = f * f if variant in ("causal", "bidirectional") else (f, f)
        cfg = mx.MixerConfig(variant, channels, extent, embed_dim=4)
        self.block = mdl.Block(channels, cfg, False, rng)

    def features(self, images):
        return self.block(self.stem(images))


images = np.random.default_rng(7).normal(size=(4, 64, 64, 3))

for variant in ("local", "global2d"):
    emap = erf_map(StemPlusBlock(variant), images)
    nonzero = float((emap.grid > 0).mean())
    print(f"{variant}: nonzero ERF fraction {nonzero:.3f}, "
          f"min {emap.grid.min():.2e}, averaged over {emap.num_images} images")
    write_pgm(f"demo_erf_{variant}.pgm", emap.grid)

print("wrote demo_erf_local.pgm / demo_erf_global2d.pgm")
# The CLI produces the same artifacts from a checkpoint:
#   fftmix erf --model <ckpt> --images synthetic --out erf_out
