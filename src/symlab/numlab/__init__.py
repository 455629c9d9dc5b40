"""Floating-point spectral laboratory on periodic boxes.

Every spectral step evaluates the symbol on the grid through
``grid.symbol_on_grid``: ``apply_symbol``, ``image_magnitude`` (and
``derivative_magnitude`` through it), the blowup direction solve and the
planar curl field of the duality experiment.  ``apply_symbol`` builds the
image field; ``image_magnitude`` streams it row by row into its pointwise
magnitude, for every image the experiments only measure (the right-hand
sides of the inequality families, the duality residual and the blowup
image A(D)u).
"""

from .blowup import (
    BlowupError,
    build_blowup_field,
    plateau_cutoff,
    smoothstep,
    smoothstep_deriv,
    solve_symbol_directions,
)
from .experiments import (
    INEQUALITY_FAMILIES,
    blowup_experiment,
    duality_experiment,
    inequality_experiment,
    necessity_experiment,
    sobolev_exponent,
)
from .fields import (
    curl_potential_field,
    dx_bump,
    gaussian_bump,
    mollified_disc,
    newton_gradient_field,
    radial_cutoff_test_function,
)
from .grid import (
    GridField,
    GridSpec,
    apply_symbol,
    derivative_magnitude,
    image_magnitude,
    symbol_on_grid,
)
from .norms import (
    l2_norm_spectral,
    lp_norm,
    pairing,
)

__all__ = [
    "BlowupError",
    "build_blowup_field",
    "plateau_cutoff",
    "smoothstep",
    "smoothstep_deriv",
    "solve_symbol_directions",
    "INEQUALITY_FAMILIES",
    "blowup_experiment",
    "duality_experiment",
    "inequality_experiment",
    "necessity_experiment",
    "sobolev_exponent",
    "curl_potential_field",
    "dx_bump",
    "gaussian_bump",
    "mollified_disc",
    "newton_gradient_field",
    "radial_cutoff_test_function",
    "GridField",
    "GridSpec",
    "apply_symbol",
    "derivative_magnitude",
    "image_magnitude",
    "symbol_on_grid",
    "l2_norm_spectral",
    "lp_norm",
    "pairing",
]
