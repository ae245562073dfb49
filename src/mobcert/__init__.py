"""Certified discreteness for two-generator Mobius groups.

A marked pair (p, q, rho) describes the group generated by

    A = [[alpha, 1], [0, 1/alpha]],   alpha = exp(i*pi/p),
    B = [[beta, 0], [rho, 1/beta]],   beta  = exp(i*pi/q).

The package provides sufficient conditions certifying that the group is
discrete and isomorphic to the free product Z_p * Z_q (disk tests, line
families, lambda-coordinate inequalities, an imaginary-part bound), the
polygonal exclusion region Omega_{p,q} that those certificates cover,
Farey-polynomial cusp location on its boundary, and the faithfulness
certificate for specialized Burau representations of the braid group B_3.
"""

from .mobius import (
    EPS_ALG,
    GroupSpec,
    InvalidInputError,
    PreconditionError,
    UnsupportedError,
    gamma_of,
    pi_over,
    sigma_pq,
    sin_sin,
    symmetry_image,
)
from .lambda_region import (
    lambda_from_rho,
    lambda_slack,
    rho_from_lambda,
)
from .omega import (
    OmegaRegion,
    OrientedLine,
    boundary_cusps,
    build_omega,
    im_bound,
    omega_margin,
    rho_star,
    x_pq,
    xi,
)
from .certificates import (
    CODE_DISKS_ELLIPTIC,
    CODE_DISKS_GENERAL,
    CODE_IM_BOUND,
    CODE_LAMBDA,
    CODE_LINE_FAMILY,
    CODE_NONE,
    Certificate,
    VERDICT_FAITHFUL,
    VERDICT_FREE,
    VERDICT_NONE,
    anchor_search,
    cert_combined,
    cert_disks_elliptic,
    cert_im_bound,
    cert_lambda,
    cert_line_family,
    combined_codes_array,
    disk_centers_elliptic,
    disk_slack,
    disk_slack_array,
    line_distance,
)
from .farey import FAREY_WORDS, SLOPES, cusp_residue, farey_poly, solve_cusp
from .burau import (
    ANNULUS_CONJECTURED,
    ANNULUS_PROVED,
    faithful_certificate,
    faithful_mask,
)

__version__ = "0.1.0"
