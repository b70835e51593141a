"""A circular-orbit ball as a discrete steady state.

Every particle carries exactly the tangential momentum that balances
the enclosed-mass pull, so the configuration does not evolve apart from
sampling-noise jiggle.  The measured energies land on the closed forms
E_kin = 3/(40 pi), E_pot = 3/(20 pi) and the virial relation E = -E_kin
holds to sampling accuracy.
"""

import math

import vpshell as vp
from vpshell.dynamics import IntegratorConfig, run


def main():
    ensemble = vp.build_circular_core(vp.CoreSpec(mass=1.0, radius=1.0, n=30_000, seed=7))
    ekin = vp.kinetic_energy(ensemble)
    epot = vp.potential_energy(ensemble)
    print(f"E_kin = {ekin:.8f}   closed form 3/(40 pi) = {3 / (40 * math.pi):.8f}")
    print(f"E_pot = {epot:.8f}   closed form 3/(20 pi) = {3 / (20 * math.pi):.8f}")
    print(f"virial |E + E_kin| / E_kin = {abs(ekin - epot + ekin) / ekin:.2e}\n")

    t_dyn = vp.dynamical_time(1.0, 1.0)
    print(f"dynamical time 1/omega = {t_dyn:.4f} (one orbit = 2 pi of these)")
    sink = run(
        ensemble,
        IntegratorConfig(t_end=30 * t_dyn, output_cadence=2 * t_dyn),
        r_grid=(0.5, 1.0),
        q_list=(5.0 / 3.0,),
    )
    table = sink.records
    var = table.variance
    print(f"variance drift over 30 dynamical times: {(var.max() - var.min()) / var[0]:.2e}")
    print("\n t        <r^2>       E_kin       best-centred mass in ball R=0.5")
    for k in range(0, len(table.times), 3):
        print(
            f"{table.times[k]:7.2f}  {var[k]:.8f}  {table.energy_kinetic[k]:.8f}"
            f"  {table.conc[0.5][k]:.6f}"
        )


if __name__ == "__main__":
    main()
