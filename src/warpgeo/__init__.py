"""Numerical differential geometry of warped half-plane metrics.

A warp function h > 0 on an open radial interval turns the right half plane
{(r, t) : r > 0} into a surface with line element dr^2 + dt^2/h(r)^2.  This
package computes the resulting geometry end to end: metric, rotation
operator and area form, connection and Gauss curvature (with an independent
finite-difference oracle), prescribed-curvature solving via the associated
Riccati equation, geodesics (closed form and integrated), two-point
connectivity and distance, finite-length inextendible rays, and the
classification of affine holomorphic isometries.
"""

from . import connect, geodesics, geometry, isometry, riccati, warp
from .warp import *
from .geometry import *
from .riccati import *
from .geodesics import *
from .connect import *
from .isometry import *

__version__ = "0.1.0"

__all__ = [
    *warp.__all__,
    *geometry.__all__,
    *riccati.__all__,
    *geodesics.__all__,
    *connect.__all__,
    *isometry.__all__,
]
