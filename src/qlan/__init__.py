"""qlan: optimal qubit state estimation through its Gaussian limit.

Simulation library for the two-stage estimation scheme on n identically
prepared qubits: block (total-spin) decomposition of the n-qubit state,
channels to and from a classical x quantum Gaussian limit, the spin-field
dynamics realising that limit, heterodyne/energy measurement sampling, and
a Monte Carlo benchmark of the asymptotic minimax risk.

The API is reached through the modules, as in ``from qlan.estimator import
full_estimate``; ``import qlan`` alone loads none of them.
"""

__version__ = "0.1.0"
