"""Trace and timeline analyses: footprints, inter-TB reuse, occupancy."""

from repro.analysis.footprint import FootprintResult, analyze_footprint
from repro.analysis.locality import (
    InterTBReuse,
    inter_tb_reuse,
)
from repro.analysis.timeline import OccupancyTimeline

__all__ = [
    "FootprintResult",
    "InterTBReuse",
    "OccupancyTimeline",
    "analyze_footprint",
    "inter_tb_reuse",
]
