"""fftmix: gated long-convolution token mixers on a small numpy core.

The package provides FFT-based global convolution mixers (causal,
bidirectional, and 2D), implicit kernel parameterization with decay
windows, a hierarchical vision backbone, desk-scale training, and the
analysis tools used to study these models (effective receptive fields,
kernel coverage, truncation, runtime scaling).
"""

__version__ = "0.1.0"

from .numerics import (  # noqa: F401
    GradTape,
    Tensor,
    circular_convolve,
    grad_check,
)
from .filters import (  # noqa: F401
    FilterFFN,
    ImplicitFilter,
    PositionalBasis1D,
    PositionalBasis2D,
    WindowParams,
    build_basis_1d,
    build_basis_2d,
    eval_window,
    materialize_filter,
    resample_filter,
)
from .mixers import (  # noqa: F401
    GatedConvMixer,
    LocalConvMixer,
    MixerConfig,
    StarReLUParams,
    build_mixer,
    project_qkv,
    star_relu,
)
from .model import (  # noqa: F401
    Model,
    ModelConfig,
    build_model,
    count_params,
    layer_norm,
    micro_config,
    preset_config,
)
from .training import (  # noqa: F401
    DatasetSpec,
    TrainConfig,
    adamw_step,
    cosine_warmup_lr,
    cross_entropy_smoothed,
    train,
)
from .analysis import (  # noqa: F401
    BenchTable,
    CoverageReport,
    ERFMap,
    bench_runtime,
    coverage_report,
    erf_map,
    kernel_effective_diameter,
    truncate_kernels,
)
