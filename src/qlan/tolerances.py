"""Numeric tolerances: what the package accepts as valid, exact or negligible.

Each constant is read by another module of the package.  The algorithms' own
parameters live with them: ``GRID_*``, ``DELTA_ADM`` and ``TRACE_NORM_*`` in
lan_channels, ``PROPOSAL_BLOCK`` in fock_gaussian, ``XI_BOUND_C`` in qsde and
``AXIS_CUT`` in risk_bench.
"""

# Density-matrix validation: Hermiticity / unit trace / eigenvalue floor.
VALIDATION_TOL = 1e-10

# Slack allowed when asserting algebraic identities that hold exactly in
# real arithmetic (triangle inequalities, closed-form cross-checks, ...).
PROPERTY_SLACK = 1e-9

# Block mass the pmf window may leave out, at most half of it on each side.
# It is the one block cut of both LAN images: each takes every window block,
# and the mass left out is summed and reported (no sampler uses it).
WINDOW_TAIL_MASS = 1e-12

# Mass a Fock corner, or the exact sampler's ladder vector, may leave
# outside it, per state.  Gentle measurement bounds the trace-norm cost of
# the cut, and so the total-variation cost to a heterodyne draw, by
# 2 sqrt(eps) + eps per unit mass.
CORNER_TAIL_MASS = 1e-24

# Margin the model keeps inside its boundary: the estimator declares a trial
# outside the model when its rotated state's eigenvalue is within this of
# 1/2, and the closed-form xi error bound assumes it.
MODEL_MARGIN = 0.05

# Allowed deviation of a classical grid density from unit mass.
GRID_MASS_TOL = 1e-6
