"""Exact and numeric workbench for orbifold quotients of SU(3).

Exact integer/rational layers decide orbifold validity, orbifold groups,
singular loci, and positive-curvature properties of circle and torus
quotients; a floating-point su(3) layer verifies the curvature claims
for the 5-dimensional quotient by the twisted SU(2) action.

Names are imported from their modules (lattice, eschenburg7, eschenburg6,
curvature, special, su3, o5, cli).  Only su3 and o5 load numpy, and only
o5.distance_to_torus loads scipy, on its first call.
"""

__version__ = "0.1.0"
