"""Numerical laboratory for curve shortening flow and the binormal flow.

Planar curves move by their curvature vector, space curves by the
binormal velocity; the package generates every self-similar solution
family of both flows and checks the evolutions against them.
"""

# every module imports scipy inside the functions that call it, so importing
# the package or its CLI loads no scipy subpackage and a command loads only
# what it calls (tests/test_cli.py checks this in a fresh interpreter)
from .errors import ConfigError, CurveFlowError
from .flow import FlowTrajectory, ScalarSeries, StepOptions, frame_measures
from .geometry import (FrenetData, SampledCurve, curve_diameter, enclosed_area,
                       frenet, hausdorff_distance, integrate_along,
                       isoperimetric_ratio, resample_arclength, segment_lengths,
                       total_length)
from .hasimoto import (FilamentFunction, FrameState, HasimotoSolitonSpec,
                       dilating_filament, hasimoto_soliton,
                       hasimoto_soliton_filament, hasimoto_transform,
                       nlcse_evolve, nlcse_residual, nlcse_step,
                       reconstruct_frame, standard_seed)
from .vfe import BiotSavartOptions, biot_savart_velocity, binormal_velocity
from .csf_solitons import (ClosureData, CsfSolitonSpec, abresch_langer_partner,
                           apply_similarity, classify, detect_closure,
                           grim_reaper, integrate_profile, reconstruct_curve,
                           scaling_functions, soliton_residual)
from .vfe_solitons import (VfeRotatingSpec, apply_rotation,
                           planar_rotation_profile, rotation_residual,
                           transverse_rotation_profile, xaxis_rotation_law,
                           xaxis_rotation_profile, z_bounds)

__version__ = "0.1.0"
