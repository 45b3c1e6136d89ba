#!/usr/bin/env python3
"""Follow one total-spin block coupled to a monitored bosonic field.

A block prepared in level m leaks excitations into the field at rate
gamma = j / j_n.  The repeated-interaction (collision) integrator follows
the joint system-field pure state through transfer-matrix powers, so any
level m and any number of collisions K cost milliseconds; the closed-form
target describes the same state in the continuum limit.  The script
prints the m = 1 amplitude decay against exp(-gamma t / 2), the overlap
with the closed-form state after Richardson-extrapolating away the O(dt)
discretization error, and the n-scaling of the residual deficit at the
edge of the typical window.
"""

import math

from qlan.qsde import collision_integrate, xi_overlap, xi_state
from qlan.spin_blocks import ModelParams


def richardson_overlap(params: ModelParams, j: float, m: int, t: float, K: int) -> float:
    xi = xi_state(params, j, m, t)
    full = xi_overlap(collision_integrate(params, j, m, t, K), xi)
    half = xi_overlap(collision_integrate(params, j, m, t, K // 2), xi)
    return 2.0 * full - half


def main() -> None:
    n, t, K = 10_000, 5.0, 100_000
    params = ModelParams(0.75, n)
    jn = params.j_n
    print(f"n = {n}, block at the window center j_n = {jn:.0f}, t = {t}, K = {K}")
    print()

    # amplitude decay of the one-excitation sector
    wave = collision_integrate(params, jn, 1, t, K)
    amp = abs(wave.sectors[1][1])
    print(f"m = 1 system amplitude: {amp:.6f}  (exp(-t/2) = {math.exp(-t / 2):.6f})")

    # overlap with the closed-form system-field state
    for m in (1, 2, 4, 8):
        ov = richardson_overlap(params, jn, m, t, K)
        print(f"m = {m} overlap with closed form (dt-extrapolated): {ov:.7f}")

    print()
    print("window edge j = j_n + n^(3/4): deficit sqrt(2(1 - overlap)) "
          "should shrink ~ n^(-1/4)")
    for m in (1, 2):
        deficits = []
        for nn in (10_000, 40_000):
            p = ModelParams(0.75, nn)
            edge = p.j_n + round(nn**0.75)
            ov = richardson_overlap(p, edge, m, t, K)
            deficits.append(math.sqrt(max(2.0 * (1.0 - ov), 0.0)))
        print(
            f"m = {m}: deficit {deficits[0]:.5f} (n=1e4) -> {deficits[1]:.5f} "
            f"(n=4e4), ratio {deficits[0] / deficits[1]:.3f} "
            f"(sqrt(2) = {math.sqrt(2):.3f})"
        )


if __name__ == "__main__":
    main()
