"""Distortion-rate functions of cyclostationary Gaussian processes.

Spectral descriptions go in; distortion-rate curves come out via eigenvalue
reverse waterfilling over polyphase spectral matrices, with closed forms for
pulse-amplitude and amplitude-modulated structures and a covariance-kernel
oracle for validation.
"""

from .drf import (ContinuousDrfConfig, ContinuousDrfResult, ContinuousDrfSolver,
                  NonConvergedError, discrete_waterfiller, lower_bound_continuous,
                  lower_bound_discrete, pam_waterfiller, sampled_coding)
from .oracle import (BlockCovariance, KernelGrid, WeylGap, build_kernel,
                     kl_drf, step_approximation, weyl_gap)
from .polyphase import (PsdPcMatrix, folded_alias_matrix, polyphase_component_psd,
                        psd_pc_matrix_continuous, psd_pc_matrix_discrete)
from .quadrature import Grid, fold_breakpoints, phi_grid, segmented_midpoint
from .spectra import (AliasCountError, CyclicSpectrum, DiscreteCsProcess, PamCyclicSpectrum,
                      PulseShape, StationaryPsd, TruncationError, am_cpsd,
                      am_gaussian_psd, average_power, flat_psd,
                      ideal_interp_pulse, modulated_ma, pam_cpsd,
                      raised_cosine_psd, raised_cosine_pulse, rect_pulse,
                      stationary_cyclic, tabulated_psd, triangle_pulse,
                      triangular_psd, white_cs, wiener_pulse)
from .waterfilling import (EigenField, NotPositiveSemidefinite,
                           RateDistortionPoint, ScalarWaterfiller,
                           WaterLevelUnderflow, discrete_stationary_drf,
                           hermitian_eigenvalues, stationary_waterfiller)

__version__ = "0.1.0"
