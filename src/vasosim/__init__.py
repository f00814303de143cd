"""Desk-scale arterial flow, echo sensing, inversion and episode-risk toolkit."""

# cli is imported on demand, so that runpy can run it as __main__
from . import acoustics, errors, hemogrid, inversion, risk, synthdata

__all__ = ["acoustics", "cli", "errors", "hemogrid", "inversion", "risk",
           "synthdata"]
__version__ = "0.1.0"
