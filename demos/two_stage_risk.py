#!/usr/bin/env python3
"""Estimate one state with the two-stage scheme, then benchmark its risk.

Stage 1 spends a vanishing fraction of the copies on Pauli tomography to
fix a rotation frame; stage 2 measures the remaining copies in the
rotated picture and reads off the local parameter.  For a single run the
script prints both stages' outputs.  It then sweeps the benchmark grid
at n = 10^6 and compares the rescaled supremum risk to the asymptotic
references: 8 mu - 4 mu^2 (trace-squared / local loss) and mu + 1/4
(infidelity loss).
"""

import math

import numpy as np

from qlan.estimator import EstimatorConfig, full_estimate
from qlan.risk_bench import RiskConfig, local_sup_risk
from qlan.spin_blocks import local_qubit_state


def main() -> None:
    mu0, n = 0.75, 100_000
    u_true = (0.7, -0.4, 0.5)
    rho = local_qubit_state(mu0, np.asarray(u_true) / math.sqrt(n))
    res = full_estimate(rho, n, EstimatorConfig(), np.random.default_rng(42))
    u_hat, u_loc = res.u_hat[:, 0], res.u_true_local[:, 0]
    print(f"single run: mu0 = {mu0}, n = {n}, true local u = {u_true}")
    print(f"  stage 1: n_tilde = {res.stage1.n_tilde}, mu_tilde = {res.stage1.mu_tilde[0]:.5f}")
    print(f"  stage 2: u_hat = ({u_hat[0]:+.3f}, {u_hat[1]:+.3f}, {u_hat[2]:+.3f})"
          f"   [true, in the rotated frame: ({u_loc[0]:+.3f}, {u_loc[1]:+.3f}, {u_loc[2]:+.3f})]")
    print()

    for loss in ("local", "fidelity"):
        cfg = RiskConfig(
            mu0=mu0,
            loss=loss,
            n_list=(10**6,),
            trials=10_000,
            seed=20260801,
            estimator=EstimatorConfig(),
        )
        rep = local_sup_risk(cfg)
        print(f"benchmark, {loss} loss: sup risk {rep.sup:.4f} over the grid "
              f"(reference {rep.reference:.4f}, worst point {rep.argmax['label']})")


if __name__ == "__main__":
    main()
