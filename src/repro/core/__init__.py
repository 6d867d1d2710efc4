"""Core framework: the paper's contribution made operational.

Multimedia applications (Figure 1/2 codecs, content analysis, DRM, support
functions) become annotated SDF graphs; consumer devices become
:data:`DEVICES` entries (application mix + platform + runtime contract);
the mapper binds graphs to silicon and reports the
cost/performance/power point.
"""

from .application import ApplicationModel, merge_applications
from .metrics import CostPerfPowerPoint, render_table
from .scenarios import (
    DEVICES,
    Device,
    analysis_application,
    drm_application,
    filesystem_application,
    network_application,
    servo_application,
    ui_application,
)
from .rng import coerce_rng
from .system import ApplicationReport, MultimediaSystem, SystemReport

__all__ = [
    "DEVICES",
    "ApplicationModel",
    "ApplicationReport",
    "CostPerfPowerPoint",
    "Device",
    "MultimediaSystem",
    "SystemReport",
    "analysis_application",
    "coerce_rng",
    "drm_application",
    "filesystem_application",
    "merge_applications",
    "network_application",
    "render_table",
    "servo_application",
    "ui_application",
]
