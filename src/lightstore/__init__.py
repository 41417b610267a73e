"""Light-storage spectroscopy: pulse-sequence simulation and beat analysis."""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    ConfigurationError,
    ExperimentConfig,
    FieldConfig,
    LevelScheme,
    LightShiftModel,
    MagneticEnvironment,
    PulseSequence,
    ShiftCoupling,
    rabi_from_intensity,
)
from .configfile import default_config, load_config, dump_config  # noqa: F401
