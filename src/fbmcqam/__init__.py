"""FBMC/QAM link simulator with an inverse-filter receiver and OFDM baseline."""

from .config import RunConfig
from .core import PrototypeFilter, design_prototype

__version__ = "0.1.0"

__all__ = ["RunConfig", "PrototypeFilter", "design_prototype", "__version__"]
