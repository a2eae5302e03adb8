"""Hierarchical model builder: stem, four mixer stages, pooled head.

The layout follows the MetaFormer template: an overlapping patch stem
(kernel 7, stride 4), four stages of [norm -> mixer -> residual,
norm -> FFN -> residual] blocks with overlapping downsampling between
stages (kernel 3, stride 2), StarReLU activations, learnable residual
branch scales in the last two stages, and a mean-pooled MLP head.

1D mixers see the feature map flattened row-major to a length F*F
sequence; 2D mixers see it as is.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import numerics as nx
from .mixers import MixerConfig, build_mixer, init_star_relu, star_relu
from .numerics import Tensor

STEM_KERNEL, STEM_STRIDE, STEM_PAD = 7, 4, 2
DOWN_KERNEL, DOWN_STRIDE, DOWN_PAD = 3, 2, 1
LN_EPS = 1e-6

SIZE_PRESETS = {
    "s4": (1, 1, 1, 1),
    "s12": (2, 2, 6, 2),
    "s18": (3, 3, 9, 3),
}
LAYOUT_PRESETS = {
    "hpx": ("global2d", "global2d", "global2d", "global2d"),
    "hb": ("bidirectional", "bidirectional", "bidirectional", "bidirectional"),
    "chpx": ("local", "local", "global2d", "global2d"),
}
DEFAULT_CHANNELS = (64, 128, 320, 512)
DEFAULT_EMBED_DIMS = (32, 32, 48, 64)


@dataclass
class ModelConfig:
    stage_channels: tuple = DEFAULT_CHANNELS
    stage_blocks: tuple = (3, 3, 9, 3)
    mixer_layout: tuple = LAYOUT_PRESETS["hpx"]
    embed_dims: tuple = DEFAULT_EMBED_DIMS
    ffn_expansion: int = 4
    num_classes: int = 1000
    res_scale_stages: tuple = (3, 4)  # 1-indexed
    input_size: tuple = (224, 224)
    head_hidden_ratio: int = 4  # 0 selects a single linear head

    def __post_init__(self):
        n = len(self.stage_channels)
        if n != 4:
            raise ValueError("expected four stages")
        if not (len(self.stage_blocks) == len(self.mixer_layout) == len(self.embed_dims) == n):
            raise ValueError("per-stage fields must all have four entries")
        h, w = self.input_size
        if h % 32 or w % 32:
            raise ValueError("input extents must be divisible by 32")

    def stage_extents(self) -> list[tuple[int, int]]:
        h, w = self.input_size
        return [(h // (4 * 2**i), w // (4 * 2**i)) for i in range(4)]

    def mixer_config(self, stage: int) -> MixerConfig:
        """Mixer geometry for 0-indexed ``stage`` at this input size."""
        fy, fx = self.stage_extents()[stage]
        variant = self.mixer_layout[stage]
        extent = fy * fx if variant in ("causal", "bidirectional") else (fy, fx)
        return MixerConfig(
            variant=variant,
            channels=self.stage_channels[stage],
            extent=extent,
            embed_dim=self.embed_dims[stage],
        )

    def to_dict(self) -> dict:
        return asdict(self)


def config_from_dict(d: dict) -> ModelConfig:
    known = {f for f in ModelConfig.__dataclass_fields__}
    unknown = set(d) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in d.items()}
    return ModelConfig(**kwargs)


def preset_config(name: str, input_size=(224, 224), num_classes: int = 1000) -> ModelConfig:
    """Named presets like ``hpx-s18``, ``hb-s12``, ``chpx-s4``."""
    try:
        layout_key, size_key = name.lower().split("-")
        layout = LAYOUT_PRESETS[layout_key]
        blocks = SIZE_PRESETS[size_key]
    except (ValueError, KeyError):
        raise ValueError(
            f"unknown preset {name!r}; expected layout-size such as hpx-s18"
        ) from None
    return ModelConfig(
        stage_blocks=blocks,
        mixer_layout=layout,
        input_size=tuple(input_size),
        num_classes=num_classes,
    )


def micro_config(variant: str = "global2d", num_classes: int = 4) -> ModelConfig:
    """Tiny desk-scale model: channels (8,8,8,8), one block per stage, 32x32."""
    return ModelConfig(
        stage_channels=(8, 8, 8, 8),
        stage_blocks=(1, 1, 1, 1),
        mixer_layout=(variant,) * 4,
        embed_dims=(4, 4, 4, 4),
        num_classes=num_classes,
        input_size=(32, 32),
    )


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


@dataclass
class LayerNormParams:
    gamma: Tensor
    beta: Tensor
    eps: float = LN_EPS

    def parameters(self):
        return [("g", self.gamma), ("b", self.beta)]


def init_layer_norm(channels: int) -> LayerNormParams:
    return LayerNormParams(
        gamma=Tensor(np.ones(channels), requires_grad=True),
        beta=Tensor(np.zeros(channels), requires_grad=True),
    )


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = LN_EPS) -> Tensor:
    """Per-position channel normalization to zero mean/unit variance, then affine."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    mu = nx.mean(x, axis=-1, keepdims=True)
    centered = nx.sub(x, mu)
    var = nx.mean(nx.square(centered), axis=-1, keepdims=True)
    inv = nx.div(1.0, nx.sqrt(nx.add(var, eps)))
    return nx.add(nx.mul(nx.mul(centered, inv), gamma), beta)


class ConvNormLayer:
    """Strided overlapping convolution followed by layer norm."""

    def __init__(self, cin, cout, kernel, stride, padding, rng):
        fan_in = kernel * kernel * cin
        self.kernel, self.stride, self.padding = kernel, stride, padding
        self.weight = Tensor(
            rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(kernel, kernel, cin, cout)),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(cout), requires_grad=True)
        self.norm = init_layer_norm(cout)

    def forward(self, x: Tensor) -> Tensor:
        y = nx.strided_conv2d(x, self.weight, self.bias, self.stride, self.padding)
        return layer_norm(y, self.norm.gamma, self.norm.beta, self.norm.eps)

    __call__ = forward

    def parameters(self):
        return [
            ("conv_w", self.weight),
            ("conv_b", self.bias),
            *[(f"norm.{n}", t) for n, t in self.norm.parameters()],
        ]


def patch_embed(image: Tensor, layer: ConvNormLayer) -> Tensor:
    """Overlapping patch stem: kernel 7, stride 4, padding 2, then norm."""
    h, w = image.shape[-3], image.shape[-2]
    if h % 32 or w % 32:
        raise ValueError("input extents must be divisible by 32")
    return layer(image)


def downsample(x: Tensor, layer: ConvNormLayer) -> Tensor:
    """Overlapping merge: kernel 3, stride 2, padding 1, channel change, norm."""
    if x.shape[-3] % 2 or x.shape[-2] % 2:
        raise ValueError("downsample requires even feature extents")
    return layer(x)


class FeedForward:
    def __init__(self, channels: int, expansion: int, rng):
        wide = channels * expansion
        self.w1 = Tensor(rng.normal(0, 1 / np.sqrt(channels), (channels, wide)), requires_grad=True)
        self.b1 = Tensor(np.zeros(wide), requires_grad=True)
        self.act = init_star_relu()
        self.w2 = Tensor(rng.normal(0, 1 / np.sqrt(wide), (wide, channels)), requires_grad=True)
        self.b2 = Tensor(np.zeros(channels), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        h = star_relu(nx.linear(x, self.w1, self.b1), self.act)
        return nx.linear(h, self.w2, self.b2)

    __call__ = forward

    def parameters(self):
        return [
            ("w1", self.w1),
            ("b1", self.b1),
            *self.act.parameters(),
            ("w2", self.w2),
            ("b2", self.b2),
        ]


class Block:
    """norm -> mixer -> scaled residual, norm -> FFN -> scaled residual."""

    def __init__(self, channels, mixer_cfg: MixerConfig, ffn_expansion, use_res_scale, rng):
        self.norm1 = init_layer_norm(channels)
        self.mixer = build_mixer(mixer_cfg, rng)
        self.norm2 = init_layer_norm(channels)
        self.ffn = FeedForward(channels, ffn_expansion, rng)
        self.mixer_is_1d = not mixer_cfg.is_2d
        if use_res_scale:
            self.res_scale1 = Tensor(np.ones(channels), requires_grad=True)
            self.res_scale2 = Tensor(np.ones(channels), requires_grad=True)
        else:
            self.res_scale1 = None
            self.res_scale2 = None

    def _mix(self, x: Tensor) -> Tensor:
        if not self.mixer_is_1d:
            return self.mixer(x)
        fy, fx, c = x.shape[-3], x.shape[-2], x.shape[-1]
        flat_shape = x.shape[:-3] + (fy * fx, c)
        flat = nx.reshape(x, flat_shape)
        return nx.reshape(self.mixer(flat), x.shape)

    def forward(self, x: Tensor) -> Tensor:
        branch = self._mix(layer_norm(x, self.norm1.gamma, self.norm1.beta, self.norm1.eps))
        if self.res_scale1 is not None:
            branch = nx.mul(branch, self.res_scale1)
        u = nx.add(x, branch)
        branch = self.ffn(layer_norm(u, self.norm2.gamma, self.norm2.beta, self.norm2.eps))
        if self.res_scale2 is not None:
            branch = nx.mul(branch, self.res_scale2)
        return nx.add(u, branch)

    __call__ = forward

    def parameters(self):
        out = [(f"norm1.{n}", t) for n, t in self.norm1.parameters()]
        out += [(f"mixer.{n}", t) for n, t in self.mixer.parameters()]
        out += [(f"norm2.{n}", t) for n, t in self.norm2.parameters()]
        out += [(f"ffn.{n}", t) for n, t in self.ffn.parameters()]
        if self.res_scale1 is not None:
            out += [("res_scale1", self.res_scale1), ("res_scale2", self.res_scale2)]
        return out


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


class Model:
    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        chans = config.stage_channels
        self.stem = ConvNormLayer(3, chans[0], STEM_KERNEL, STEM_STRIDE, STEM_PAD, rng)
        self.stages: list[list[Block]] = []
        self.downsamples: list[ConvNormLayer] = []
        for s in range(4):
            mixer_cfg = config.mixer_config(s)
            use_rs = (s + 1) in config.res_scale_stages
            blocks = [
                Block(chans[s], mixer_cfg, config.ffn_expansion, use_rs, rng)
                for _ in range(config.stage_blocks[s])
            ]
            self.stages.append(blocks)
            if s < 3:
                self.downsamples.append(
                    ConvNormLayer(chans[s], chans[s + 1], DOWN_KERNEL, DOWN_STRIDE, DOWN_PAD, rng)
                )
        self.final_norm = init_layer_norm(chans[-1])
        self.head_hidden = config.head_hidden_ratio * chans[-1] if config.head_hidden_ratio else 0
        if self.head_hidden:
            self.head_w1 = Tensor(
                rng.normal(0, 1 / np.sqrt(chans[-1]), (chans[-1], self.head_hidden)),
                requires_grad=True,
            )
            self.head_b1 = Tensor(np.zeros(self.head_hidden), requires_grad=True)
            self.head_act = init_star_relu()
            self.head_norm = init_layer_norm(self.head_hidden)
            fc_in = self.head_hidden
        else:
            fc_in = chans[-1]
        self.head_w2 = Tensor(
            rng.normal(0, 0.02, (fc_in, config.num_classes)), requires_grad=True
        )
        self.head_b2 = Tensor(np.zeros(config.num_classes), requires_grad=True)

    # -- forward ------------------------------------------------------------

    def features(self, images: Tensor) -> Tensor:
        """Final pre-pool feature map [N, F, F, C4]."""
        if images.ndim != 4 or images.shape[-1] != 3:
            raise ValueError("expected images of shape [N, H, W, 3]")
        h, w = self.config.input_size
        if images.shape[1] != h or images.shape[2] != w:
            raise ValueError(
                f"model built for {h}x{w} inputs, got {images.shape[1]}x{images.shape[2]}"
            )
        x = patch_embed(images, self.stem)
        for s in range(4):
            for block in self.stages[s]:
                x = block(x)
            if s < 3:
                x = downsample(x, self.downsamples[s])
        return x

    def head(self, feats: Tensor) -> Tensor:
        x = layer_norm(feats, self.final_norm.gamma, self.final_norm.beta, self.final_norm.eps)
        x = nx.mean(x, axis=(-3, -2))
        if self.head_hidden:
            x = star_relu(nx.linear(x, self.head_w1, self.head_b1), self.head_act)
            x = layer_norm(x, self.head_norm.gamma, self.head_norm.beta, self.head_norm.eps)
        return nx.linear(x, self.head_w2, self.head_b2)

    def forward(self, images: Tensor) -> Tensor:
        return self.head(self.features(images))

    __call__ = forward

    # -- parameters -----------------------------------------------------------

    def parameters(self) -> list[tuple[str, Tensor]]:
        out = [(f"stem.{n}", t) for n, t in self.stem.parameters()]
        for s, blocks in enumerate(self.stages):
            for b, block in enumerate(blocks):
                out += [(f"stage{s + 1}.block{b + 1}.{n}", t) for n, t in block.parameters()]
            if s < 3:
                out += [(f"down{s + 1}.{n}", t) for n, t in self.downsamples[s].parameters()]
        out += [(f"final_norm.{n}", t) for n, t in self.final_norm.parameters()]
        if self.head_hidden:
            out += [
                ("head.w1", self.head_w1),
                ("head.b1", self.head_b1),
                *[(f"head.{n}", t) for n, t in self.head_act.parameters()],
                *[(f"head.norm.{n}", t) for n, t in self.head_norm.parameters()],
            ]
        out += [("head.w2", self.head_w2), ("head.b2", self.head_b2)]
        return out

    def parameter_tensors(self) -> list[Tensor]:
        return [t for _, t in self.parameters()]

    def apply_constraints(self) -> None:
        """Clamp decay scales to stay non-negative after optimizer steps."""
        for blocks in self.stages:
            for block in blocks:
                mixer = block.mixer
                for f in getattr(mixer, "filters", []):
                    np.maximum(f.window.alpha.data, 0.0, out=f.window.alpha.data)

    def shape_ladder(self) -> list[tuple[int, int, int]]:
        return [
            (fy, fx, c)
            for (fy, fx), c in zip(self.config.stage_extents(), self.config.stage_channels)
        ]


def build_model(config: ModelConfig, seed: int = 0) -> Model:
    return Model(config, seed=seed)


def count_params(model: Model) -> int:
    """Exact count of learnable scalars."""
    names = model.parameters()
    seen = {id(t) for _, t in names}
    if len(seen) != len(names):
        raise RuntimeError("duplicate parameter registration")
    return sum(t.size for _, t in names)


def load_params(model: Model, tensors: dict) -> Model:
    """Overwrite model parameters from a name -> ndarray mapping."""
    params = dict(model.parameters())
    missing = set(params) - set(tensors)
    if missing:
        raise ValueError(f"checkpoint missing tensors: {sorted(missing)[:3]}...")
    unknown = set(tensors) - set(params)
    if unknown:
        raise ValueError(f"checkpoint has unknown tensors: {sorted(unknown)}")
    for name, tensor in params.items():
        arr = np.asarray(tensors[name], dtype=np.float64)
        if arr.shape != tensor.shape and not (arr.size == 1 and tensor.size == 1):
            raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {tensor.shape}")
        tensor.data = arr.reshape(tensor.shape) if tensor.shape else arr.reshape(())
    return model
