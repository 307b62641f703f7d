"""Character variety of the generalized four-holed sphere.

Explicit parabolic representations in cross-ratio coordinates (a, b, c),
the level function kappa = tr CBA, mapping-class involution dynamics with
fundamental-domain reduction, collar-type inequality certificates,
Weil-Petersson volumes, simple-loop growth censuses, and the hyperbolic
cone-metric certificate.
"""

__version__ = "0.1.0"
