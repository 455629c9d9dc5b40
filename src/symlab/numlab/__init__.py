"""Floating-point spectral laboratory on periodic boxes.

Every spectral step evaluates the symbol on the grid through
``grid.symbol_on_grid``: ``apply_symbol``, ``image_squares``,
``image_magnitude`` (and ``derivative_magnitude`` through it), ``image_l1``
and the blowup field, which divides by its witness's p(xi).
``apply_symbol`` makes an operator-made field that records the operator
and its source and transforms nothing; applied to an operator-made field
B(D)v it records the exact composite symbol (``SymbolOperator.compose``)
on v: the blowup field is u(D) phi, and its image A(D)u is measured as
(A u)(D) phi = p(D) e phi.  Every image the experiments only
measure is reduced from its rows by one loop (``grid._reduce``), which
inverts each row as it is built and adds its square to the first row's
values: ``image_l1`` sums the root of that, or a single row's absolute
value (the right-hand sides of the inequality families, the duality
residual and the blowup image A(D)u), and ``image_squares`` returns the
sum (the one partial derivative of the newton potential).  An image of B(D)v is
measured through the composite: the curl of the newton gradient field and
the divergence of the planar curl field are the zero symbol, measured as
exact zeros with no transform and, for their L1 norms, no grid
allocated.  A field built from a spectrum (the newton potential, the
blowup field's phi, the planar curl field's potential, transformed from
its samples) holds it exactly as given, Nyquist bins and all, and only
the images and ``spectrum()`` are Nyquist-projected.  Such a field, or
one built by an operator, synthesizes its values only when they are read;
its magnitude reduces its components as the rows of an image, through the
same loop, without them.  The plateau experiments, necessity and
duality, take the even part of every component of their field on the
octant of grid points by one call (``grid.even_components``) and pair it
with the plateaus in one loop (``experiments._plateau_rows``): octant
values as held, grid values folded once, and any other field through
that loop, one inversion per row giving the row's even part, which the
pairings read, and its square, which the L1 norm sums.  Every norm and
L1 norm is the one Riemann sum
``grid.grid_sum``, over a grid or, with mirror weights, an octant, as the
summed array's shape says; ``image_l1``, like ``lp_norm``, includes the
cell volume h^n.  Grids have dimension 2, 3 or 4.

The compactly supported closed forms (the blowup window and cutoff, the
plateau test functions) are evaluated on the box of indices that holds
their support and are exact zeros elsewhere; every coordinate grid of a
test field is sparse, one broadcast axis each.  The blowup field's scalar
phi and the cutoff are held to their band, and every transform, image and
symbol evaluation of them runs there.

Fields even or odd in every axis are held, transformed and measured on one
octant of non-negative frequencies (``grid.GridField.from_octant``): the
newton potential, the cutoff, and the blowup field's scalar phi when every
exponent of its witness's p is even, as those of |x|^(2m) are.  The
centred radial fields sampled in space (the Gaussian bump, the
mollified disc and the plateau test functions) are even about the box
centre, so even about index 0 of the periodic grid: each is sampled on the
octant of grid points only and held by those values
(``grid.GridField.from_octant_values``), its spectrum being their cosine
transform, taken by the same real passes scaled by T^n.  Only the closed
form or the symbol's exponents select the octant.  Each image of such a
field through rows of one parity stays on the octant and is inverted by
one real pass per axis; its magnitude is an octant array, whose norms
weight each point by its mirror count and whose boundary tail reads it as
it is, and a field held by octant values pairs by one mirror-weighted
sum, with another such field or with the even part of a field on the grid
(``grid.even_part``), folded onto the octant.  A row of mixed parity, and
every other field, takes the half spectrum, where the real pass of a
band-held spectrum zero-pads it.  The newton potential, the radial
fields of gns_disc and solonnikov, and the blowup field of a witness whose
p and u are unchanged by every swap of two axes are symmetric under
permutations of the axes, so each gradient magnitude takes one inverse
transform per component, of the derivative along the last axis, and the
sum of its square over the swaps of each axis with the last
(``grid.axis_swap_magnitude``).  A blowup row that keeps the Nyquist
margin reads its half-resolution reference from its own magnitudes at
every other grid point, where the halved grid's field takes the same
values.
"""

from .blowup import (
    BlowupError,
    build_blowup_field,
    plateau_cutoff,
    smoothstep,
    smoothstep_deriv,
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
