"""Tour of the exact uniform-ball family.

One dimensionless number k = phi'(0) sorts the family: k = 0 is static,
0 < |k| < 1 breathes with period 2 pi (1-k^2)^(-3/2), |k| >= 1 expands
for ever with the density vanishing in every L^q, q > 1.  The variance
grows like t^(4/3) exactly at the threshold and like t^2 above it.
"""

import numpy as np

from vpshell.classify import TimeSeries, growth_exponent
from vpshell.kurth import (
    classify_k,
    first_integral,
    kurth_energy,
    kurth_lq_norm,
    kurth_period,
    phi_closed_form,
)


def main():
    print(" k     regime      first integral   period")
    for k in (0.0, 0.3, 0.5, 0.9, 1.0, 1.5):
        regime = classify_k(k)
        period = f"{kurth_period(k):8.3f}" if regime == "periodic" else "       -"
        print(f"{k:4.1f}  {regime:10s}  {kurth_energy(k):+.4f}          {period}")

    print("\nvariance growth exponents over t in [100, 10000]:")
    for k in (1.0, 1.5):
        t = np.linspace(100.0, 10_000.0, 400)
        phi, _ = phi_closed_form(t, k)
        fit = growth_exponent(TimeSeries(t, 0.6 * phi**2))
        print(f"  k = {k}: {fit.exponent:.4f}")

    print("\ndensity-norm decay for k = 1.5 (q = 5/3):")
    for t in (0.0, 10.0, 100.0, 1000.0):
        phi, _ = phi_closed_form(np.array([t]), 1.5)
        print(f"  t = {t:6.0f}: phi = {phi[0]:9.2f}   |rho|_q = {kurth_lq_norm(phi[0], 5/3):.2e}")

    print("\nmarginal member k = 1 in closed form:")
    t = np.linspace(0.0, 50.0, 501)
    phi, phi_dot = phi_closed_form(t, 1.0)
    print(f"  max |first integral| over [0, 50]: {np.max(np.abs(first_integral(phi, phi_dot))):.2e}")

    T = kurth_period(0.5)
    phi, phi_dot = phi_closed_form(T, 0.5)
    print(f"\nperiodic member k = 0.5: after one period T = {T:.5f}")
    print(f"  phi returns to {phi[0]:.8f}, rate to {phi_dot[0]:.8f}")

if __name__ == "__main__":
    main()
