"""Quench dynamics and entanglement analytics for the bosonic Kitaev chain.

Gaussian-state simulation of the open-boundary chain with hopping g + iw
and pairing iDelta, plus the closed-form long-time entanglement
predictions it is meant to be checked against: the single-site entropy
S1 and the block law l S1, the exact dephased site correlators, scaling
collapse, and the four-point consistency diagnostics.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    BkcError,
    ConfigError,
    CriticalFrameUndefined,
    DomainError,
    MissingReference,
    NonConvergence,
    NumericalFailure,
    OverflowGuard,
)
from .gaussian import (
    LocalDecomposition,
    entropy_from_factor,
    entropy_from_gram,
    entropy_kernel,
    local_decompose,
    site_correlators,
    subsystem_entropy_from_rows,
    symplectic_eigenvalues_from_rows,
    symplectic_form,
)
from .model import (
    ModelParams,
    PhaseRegime,
    SqueezingFrame,
    TightBindingSpectrum,
    bdg_matrices,
    classify_phase,
    squeezing_frame,
    tight_binding_spectrum,
)
from .dynamics import (
    AveragingProtocol,
    PageCurve,
    PropagationMode,
    Propagator,
    SiteProfiles,
    TimeAverageResult,
    build_propagator,
    page_curve,
    profiles,
    series_fluctuation_ratio,
    time_averaged_entropy,
    time_series,
)
from .analytics import (
    CollapseResult,
    avg_site_correlators,
    nu_bar_squared,
    s1_prediction,
    scaling_collapse,
)
from .fourpoint import (
    FourPointReport,
    InitialMomentumCorrelators,
    a_kernel,
    epsilon4,
    fourpoint_report,
    log_correction,
    momentum_correlators,
)

__all__ = [
    "__version__",
    "BkcError", "ConfigError", "CriticalFrameUndefined", "DomainError",
    "MissingReference", "NonConvergence", "NumericalFailure", "OverflowGuard",
    "LocalDecomposition", "entropy_from_factor", "entropy_from_gram", "entropy_kernel",
    "local_decompose", "site_correlators", "subsystem_entropy_from_rows",
    "symplectic_eigenvalues_from_rows", "symplectic_form",
    "ModelParams", "PhaseRegime", "SqueezingFrame", "TightBindingSpectrum",
    "bdg_matrices", "classify_phase", "squeezing_frame", "tight_binding_spectrum",
    "AveragingProtocol", "PageCurve", "PropagationMode", "Propagator",
    "SiteProfiles", "TimeAverageResult", "build_propagator", "page_curve", "profiles",
    "series_fluctuation_ratio", "time_averaged_entropy", "time_series",
    "CollapseResult", "avg_site_correlators", "nu_bar_squared", "s1_prediction",
    "scaling_collapse",
    "FourPointReport", "InitialMomentumCorrelators", "a_kernel", "epsilon4",
    "fourpoint_report", "log_correction", "momentum_correlators",
]
