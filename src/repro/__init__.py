"""repro: multimedia applications of multiprocessor systems-on-chips.

Reproduction of Wolf, DATE 2005.  Subpackages:

- :mod:`repro.video`, :mod:`repro.audio`, :mod:`repro.image` — the codecs
  of the paper's Figures 1 and 2 plus the wavelet comparison;
- :mod:`repro.dataflow` — the SDF model of computation;
- :mod:`repro.mpsoc`, :mod:`repro.mapping` — platforms and mapping;
- :mod:`repro.core` — applications, systems, and the five device scenarios;
- :mod:`repro.analysis`, :mod:`repro.drm`, :mod:`repro.support` — the
  surrounding duties of Sections 5-7;
- :mod:`repro.workloads` — synthetic content generators;
- :mod:`repro.runtime` — the streaming engine: many concurrent media
  sessions, a shared segment cache, and the scenario registry behind
  ``python -m repro.runtime.run``;
- :mod:`repro.obs` — observability: virtual-time span tracing,
  Perfetto-compatible trace export, and the injectable clock that is
  the codebase's single wall-clock boundary.
"""

__version__ = "1.1.0"

__all__ = [
    "analysis",
    "audio",
    "core",
    "dataflow",
    "drm",
    "image",
    "mapping",
    "mpsoc",
    "obs",
    "runtime",
    "support",
    "video",
    "workloads",
]
