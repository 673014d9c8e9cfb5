"""Quench dynamics and entanglement analytics for the bosonic Kitaev chain.

Gaussian-state simulation of the open-boundary chain with hopping g + iw
and pairing iDelta, plus the closed-form long-time entanglement
predictions it is meant to be checked against: single-site and block
entropies, dephased-ensemble spectra, scaling collapse, and the
four-point consistency diagnostics.
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
    single_site_nu,
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
    evolve,
    page_curve,
    profiles,
    series_fluctuation_ratio,
    time_averaged_entropy,
    time_series,
)
from .analytics import (
    CollapseResult,
    GgeSpectrum,
    avg_site_correlators,
    conserved_correlators,
    continuum_mode_nu,
    gge_entropy,
    gge_spectrum,
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
    "local_decompose", "single_site_nu", "site_correlators", "subsystem_entropy_from_rows",
    "symplectic_eigenvalues_from_rows", "symplectic_form",
    "ModelParams", "PhaseRegime", "SqueezingFrame", "TightBindingSpectrum",
    "bdg_matrices", "classify_phase", "squeezing_frame", "tight_binding_spectrum",
    "AveragingProtocol", "PageCurve", "PropagationMode", "Propagator",
    "SiteProfiles", "TimeAverageResult", "build_propagator", "evolve",
    "page_curve", "profiles", "series_fluctuation_ratio", "time_averaged_entropy",
    "time_series",
    "CollapseResult", "GgeSpectrum", "avg_site_correlators",
    "conserved_correlators", "continuum_mode_nu",
    "gge_entropy", "gge_spectrum", "nu_bar_squared", "s1_prediction",
    "scaling_collapse",
    "FourPointReport", "InitialMomentumCorrelators", "a_kernel", "epsilon4",
    "fourpoint_report", "log_correction", "momentum_correlators",
]
