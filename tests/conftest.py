import numpy as np
import pytest

from fftmix import model as mdl
from fftmix import training as tr

# Every transform in numpy.fft, for the tests that count the transforms a pass runs.
FFT_ENTRY_POINTS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft", "fft2", "ifft2",
                    "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# Shared across test modules and acceptance: one trained micro model on the
# quadrant task (used for the learning criterion and the truncation sweep).
TRAIN_SPEC = tr.DatasetSpec(train_size=2048, val_size=256, seed=1)
TRAIN_CONF = tr.TrainConfig(lr_peak=2e-3, seed=0)


@pytest.fixture(scope="session")
def trained_micro():
    model = mdl.build_model(mdl.micro_config("global2d"), seed=0)
    history = tr.train(model, TRAIN_SPEC, TRAIN_CONF)
    return model, history
