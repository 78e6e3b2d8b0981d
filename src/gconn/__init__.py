"""Connection forms for non-free Lie group actions.

Dual connection forms, inertia factors and the gamma map; curvature through
the docility range condition and taming; adaptors, adapted forms and slices
near singular points; and partial moving frames with slip maps.  Everything
is verified numerically on a small zoo of concrete actions (rotations of
R^3, the sphere and its unit tangent bundle, and two-sided torus actions on
SO(3) and SU(3)); the ``gconn`` command runs the packaged scenarios.
"""

from .connections import (DualForm, DegeneracyError,
                          simple_mechanical_mu, mu_q, inertia_factor,
                          gamma_apply, projection_P_mu)
from .curvature import (covariant_derivative, docile, tame,
                        curvature_leftright_closed)
from .actions import get_action
from .report import VerificationReport

__version__ = "0.1.0"

__all__ = [
    "DualForm", "DegeneracyError", "simple_mechanical_mu",
    "mu_q", "inertia_factor", "gamma_apply", "projection_P_mu",
    "covariant_derivative", "docile", "tame",
    "curvature_leftright_closed", "get_action", "VerificationReport",
    "__version__",
]
