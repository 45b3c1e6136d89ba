#!/usr/bin/env python3
"""Walk through the total-spin block picture of n identical qubits.

The joint state of n copies splits into blocks labelled by total spin j,
each appearing with a computable probability and carrying a (2j+1)-
dimensional rotated thermal-like state.  This script prints the block
weights for a small register, checks they sum to one, locates the
typical-j window for a larger n, and finally reassembles the full 2^n
density matrix from its blocks to machine precision (n = 6).
"""

import math
import os
import sys

import numpy as np

# the brute-force oracle lives next to the tests
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
from fullspace import assemble_from_blocks, isotypic_isometries, tensor_power

from qlan.spin_blocks import (
    ModelParams,
    block_pmf_window,
    block_state,
    local_qubit_state,
    typical_set,
    valid_j_values,
)


def main() -> None:
    mu, n = 0.8, 6
    params = ModelParams(mu, n)
    u = (0.4, -0.2, 0.3)

    # isometry onto the n_j copies of each (2j+1)-dimensional block
    iso = isotypic_isometries(n)

    print(f"n = {n} qubits, eigenvalue mu = {mu}, local parameter u = {u}")
    print()
    # at n = 6 the pmf window is the whole lattice: no block is dropped
    js, probs, dropped = block_pmf_window(params, u)
    weights = dict(zip(js, probs))
    print("  j    multiplicity   weight p_j")
    for j in valid_j_values(n):
        n_j = iso[j].shape[1] // int(2 * j + 1)
        print(f"  {j:.1f}  {n_j:10d}   {weights[j]:.6f}")
    print(f"  sum of weights: {probs.sum():.12f} (dropped: {dropped:g})")

    # typical window: for large n the weight concentrates on
    # j ~ n(mu - 1/2) +- n^(1/2 + eps)
    big = ModelParams(mu, 10_000)
    lo, hi = typical_set(big, 0.05)
    print()
    print(
        f"n = 10^4: typical window [{lo:.0f}, {hi:.0f}] around "
        f"j_n = {big.j_n:.0f}"
    )

    # exact reconstruction: blocks + weights rebuild the 2^n matrix
    blocks = {j: block_state(params, u, j) for j in iso}
    rebuilt = assemble_from_blocks(n, weights, blocks, iso)
    target = tensor_power(local_qubit_state(mu, np.array(u) / math.sqrt(n)), n)
    err = float(np.max(np.abs(rebuilt - target)))
    print()
    print(f"block reassembly vs explicit tensor power (64 x 64): max error {err:.2e}")


if __name__ == "__main__":
    main()
