"""mvlab: numerical verification of mean value identities on model
geometries and flows.

The package builds closed-form rotationally symmetric models (flat space,
hyperbolic space, the round shrinking sphere and a mean-curvature-flow
track), constructs kernel level-set regions (Green balls and heat balls),
evaluates the classical and space-time mean value identities by quadrature
and sweeps the associated monotone quantities: I/J over Green spheres, the
Li-Yau surface and volume averages of the reduced-distance kernel, the
reduced volume, and the Gaussian density of the shrinking track.
"""

from .errors import (CutLocusWarning, DomainError, NoRegionError,
                     PreconditionError, ShootingError, UnsupportedError)
from .fields import TestField, angular_quadrature_mean, classification_check, make_field
from .geometry import (FlowGeometry, SpaceTimePoint, curvature, flow_residual,
                       spacetime_christoffels, spacetime_christoffels_fd,
                       spacetime_divergence, spacetime_divergence_fd,
                       sphere_area, unit_ball_volume, unit_sphere_area)
from .kernels import (GreenKernel, HeatKernel, McfShrinkingSphereTrack,
                      SubGreenKernel, SubHeatKernel, SupGreenKernel,
                      liyau_expression, mcf_sup_heat_kernel)
from .reduced import LGeodesic, ReducedDistanceField, l_length, shoot_l_geodesic
from .regions import (GreenBallRegion, HeatBallRegion, ball_integrate,
                      cap_integral, green_ball, heatball_profile,
                      level_radius, sphere_integrate)
from .sweeps import SweepReport

__version__ = "0.1.0"
