"""Hierarchical model builder: stem, four mixer stages, pooled head.

The layout follows the MetaFormer template: an overlapping patch stem
(kernel 7, stride 4), four stages of [norm -> mixer -> residual,
norm -> FFN -> residual] blocks with overlapping downsampling between
stages (kernel 3, stride 2), StarReLU activations, an FFN of expansion 4,
learnable residual branch scales in the last two stages, and a mean-pooled
MLP head of hidden ratio 4.  These are fixed constants, not config fields.

1D mixers see the feature map flattened row-major to a length F*F
sequence; 2D mixers see it as is.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import numerics as nx
from .mixers import MixerConfig, build_mixer, init_star_relu, star_relu
from .numerics import Tensor

STEM_KERNEL, STEM_STRIDE, STEM_PAD = 7, 4, 2
DOWN_KERNEL, DOWN_STRIDE, DOWN_PAD = 3, 2, 1
LN_EPS = 1e-6
FFN_EXPANSION = 4
RES_SCALE_STAGES = (3, 4)  # 1-indexed stages whose blocks scale their residual branches
HEAD_HIDDEN_RATIO = 4

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
# The config key behind each ``MixerConfig`` field, whose name starts each of
# its error messages.
_MIXER_KEYS = {
    "variant": "mixer_layout", "channels": "stage_channels", "extent": "input_size", "embed_dim": "embed_dims"
}


@dataclass
class ModelConfig:
    stage_channels: tuple = DEFAULT_CHANNELS
    stage_blocks: tuple = (3, 3, 9, 3)
    mixer_layout: tuple = LAYOUT_PRESETS["hpx"]
    embed_dims: tuple = DEFAULT_EMBED_DIMS
    num_classes: int = 1000
    input_size: tuple = (224, 224)

    def __post_init__(self):
        check_field_types(self)
        h, w = self.input_size
        if h % 32 or w % 32:
            raise ValueError("input extents must be divisible by 32")
        if min(self.stage_blocks) < 1:
            raise ValueError(
                f"config key 'stage_blocks' must be at least 1 per stage, got {list(self.stage_blocks)}"
            )
        if self.num_classes < 1:
            raise ValueError(f"config key 'num_classes' must be at least 1, got {self.num_classes}")
        for stage in range(4):
            try:
                self.mixer_config(stage)
            except ValueError as exc:
                key = _MIXER_KEYS[str(exc).split()[0]]
                raise ValueError(f"config key {key!r} at stage {stage + 1}: {exc}") from None

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


# Keys that configs once held; a manifest may still hold them at these values.
_RETIRED_KEYS = {
    "ffn_expansion": FFN_EXPANSION,
    "res_scale_stages": RES_SCALE_STAGES,
    "head_hidden_ratio": HEAD_HIDDEN_RATIO,
}


def _typed_value(key: str, value, like):
    """``value`` checked against ``like``, the key's default: the same
    scalar type, or a list or tuple of that many items of its item type.  A
    float key also takes an int, and rejects NaN, infinities and any int too
    large for a float; a key whose default is None takes a string, and no
    key takes a bool."""
    if isinstance(like, tuple):
        kind = type(like[0])
        if not (
            isinstance(value, (list, tuple))
            and len(value) == len(like)
            and all(type(v) is kind for v in value)
        ):
            raise ValueError(f"config key {key!r} must hold {len(like)} values of type {kind.__name__}")
        return tuple(value)
    kind = str if like is None else type(like)
    kinds = {float, int} if kind is float else {kind}
    if type(value) not in kinds and not (like is None and value is None):
        raise ValueError(f"config key {key!r} must be of type {kind.__name__}")
    if kind is float and not abs(value) <= sys.float_info.max:  # NaN, infinities, ints no float holds
        shown = value if type(value) is float else f"an int of {len(str(abs(value)))} digits"
        raise ValueError(f"config key {key!r} must be finite, got {shown}")
    return value


def check_field_types(config) -> None:
    """Each field of the dataclass ``config`` set to what ``_typed_value``
    makes of it against the field's default, so a list becomes a tuple."""
    for name, field in config.__dataclass_fields__.items():
        setattr(config, name, _typed_value(name, getattr(config, name), field.default))


def config_from_dict(d: dict) -> ModelConfig:
    """Config from a dict such as ``to_dict`` writes; a missing key takes its
    default, and an unknown or wrongly typed one raises ``ValueError``."""
    if not isinstance(d, dict):
        raise ValueError("a model config must be a JSON object")
    fields = ModelConfig.__dataclass_fields__
    unknown = set(d) - set(fields) - set(_RETIRED_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, fixed in _RETIRED_KEYS.items():
        if key in d and _typed_value(key, d[key], fixed) != fixed:
            raise ValueError(f"config key {key!r} is fixed at {fixed}, got {d[key]}")
    return ModelConfig(**{k: v for k, v in d.items() if k in fields})


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

    def parameters(self):
        return [("g", self.gamma), ("b", self.beta)]


def init_layer_norm(channels: int) -> LayerNormParams:
    return LayerNormParams(
        gamma=Tensor(np.ones(channels), requires_grad=True),
        beta=Tensor(np.zeros(channels), requires_grad=True),
    )


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-position channel normalization to zero mean/unit variance, then affine."""
    return nx.layer_norm(x, gamma, beta, LN_EPS)


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
        return layer_norm(y, self.norm.gamma, self.norm.beta)

    __call__ = forward

    def parameters(self):
        return [
            ("conv_w", self.weight),
            ("conv_b", self.bias),
            *[(f"norm.{n}", t) for n, t in self.norm.parameters()],
        ]


class FeedForward:
    """The block's second norm, then linear -> StarReLU -> linear at
    expansion 4, run as the one op ``numerics.feed_forward``: a tape keeps
    the norm's normalised input, not the norm's output or the 4x-wide hidden
    layer, which the backward pass recomputes.  The norm's parameters stay
    the block's (``norm2``), so parameter names do not change."""

    def __init__(self, channels: int, rng):
        wide = channels * FFN_EXPANSION
        self.w1 = Tensor(rng.normal(0, 1 / np.sqrt(channels), (channels, wide)), requires_grad=True)
        self.b1 = Tensor(np.zeros(wide), requires_grad=True)
        self.act = init_star_relu()
        self.w2 = Tensor(rng.normal(0, 1 / np.sqrt(wide), (wide, channels)), requires_grad=True)
        self.b2 = Tensor(np.zeros(channels), requires_grad=True)

    def forward(self, x: Tensor, norm: LayerNormParams) -> Tensor:
        act = self.act
        return nx.feed_forward(
            x, norm.gamma, norm.beta, LN_EPS, self.w1, self.b1, act.scale, act.shift, self.w2, self.b2
        )

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
    """norm -> mixer -> scaled residual, norm -> FFN -> scaled residual.

    The second norm runs inside the FFN's op (``FeedForward``), which reads
    its parameters from ``norm2``."""

    def __init__(self, channels, mixer_cfg: MixerConfig, use_res_scale, rng):
        self.norm1 = init_layer_norm(channels)
        self.mixer = build_mixer(mixer_cfg, rng)
        self.norm2 = init_layer_norm(channels)
        self.ffn = FeedForward(channels, rng)
        if use_res_scale:
            self.res_scale1 = Tensor(np.ones(channels), requires_grad=True)
            self.res_scale2 = Tensor(np.ones(channels), requires_grad=True)
        else:
            self.res_scale1 = None
            self.res_scale2 = None

    def _mix(self, x: Tensor) -> Tensor:
        if self.mixer.config.is_2d:
            return self.mixer(x)
        fy, fx, c = x.shape[-3], x.shape[-2], x.shape[-1]
        flat_shape = x.shape[:-3] + (fy * fx, c)
        flat = nx.reshape(x, flat_shape)
        return nx.reshape(self.mixer(flat), x.shape)

    def forward(self, x: Tensor) -> Tensor:
        branch = self._mix(layer_norm(x, self.norm1.gamma, self.norm1.beta))
        if self.res_scale1 is not None:
            branch = nx.mul(branch, self.res_scale1)
        u = nx.add(x, branch)
        branch = self.ffn(u, self.norm2)
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
            use_rs = (s + 1) in RES_SCALE_STAGES
            blocks = [Block(chans[s], mixer_cfg, use_rs, rng) for _ in range(config.stage_blocks[s])]
            self.stages.append(blocks)
            if s < 3:
                self.downsamples.append(
                    ConvNormLayer(chans[s], chans[s + 1], DOWN_KERNEL, DOWN_STRIDE, DOWN_PAD, rng)
                )
        self.final_norm = init_layer_norm(chans[-1])
        hidden = HEAD_HIDDEN_RATIO * chans[-1]
        self.head_w1 = Tensor(
            rng.normal(0, 1 / np.sqrt(chans[-1]), (chans[-1], hidden)), requires_grad=True
        )
        self.head_b1 = Tensor(np.zeros(hidden), requires_grad=True)
        self.head_act = init_star_relu()
        self.head_norm = init_layer_norm(hidden)
        self.head_w2 = Tensor(rng.normal(0, 0.02, (hidden, config.num_classes)), requires_grad=True)
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
        x = self.stem(images)
        for s in range(4):
            for block in self.stages[s]:
                x = block(x)
            if s < 3:
                x = self.downsamples[s](x)
        return x

    def head(self, feats: Tensor) -> Tensor:
        x = layer_norm(feats, self.final_norm.gamma, self.final_norm.beta)
        x = nx.mean(x, axis=(-3, -2))
        x = star_relu(nx.linear(x, self.head_w1, self.head_b1), self.head_act)
        x = layer_norm(x, self.head_norm.gamma, self.head_norm.beta)
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
        out += [
            ("head.w1", self.head_w1),
            ("head.b1", self.head_b1),
            *[(f"head.{n}", t) for n, t in self.head_act.parameters()],
            *[(f"head.norm.{n}", t) for n, t in self.head_norm.parameters()],
            ("head.w2", self.head_w2),
            ("head.b2", self.head_b2),
        ]
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
    """Overwrite model parameters from a name -> ndarray mapping with
    float64 copies, so later updates leave the mapping's arrays as they are.
    An array of anything but real numbers (complex, strings, objects) or
    holding a NaN or infinity raises a ``ValueError`` naming the parameter,
    and leaves every parameter as it was."""
    params = dict(model.parameters())
    missing = set(params) - set(tensors)
    if missing:
        raise ValueError(f"checkpoint missing tensors: {sorted(missing)[:3]}...")
    unknown = set(tensors) - set(params)
    if unknown:
        raise ValueError(f"checkpoint has unknown tensors: {sorted(unknown)}")
    arrays = {}
    for name, tensor in params.items():
        try:
            arr = np.array(Tensor(tensors[name]).data)  # a real, finite float64 copy
        except ValueError as err:
            raise ValueError(f"parameter {name}: {err}") from None
        if arr.shape != tensor.shape and not (arr.size == 1 and tensor.size == 1):
            raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {tensor.shape}")
        arrays[name] = arr.reshape(tensor.shape)
    for name, tensor in params.items():  # only once every array has passed
        tensor.data = arrays[name]
    return model
