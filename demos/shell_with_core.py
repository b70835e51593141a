"""Partial dispersal at negative total energy.

A static ball of mass 1 sits inside a shell of mass m starting at
R1 = 2.  If m stays below (1/2)[-M0 + sqrt(M0^2 - 16 pi E0 R1)] the
shell momenta can clear the combined escape threshold while the total
energy remains negative: the shell leaves, the ball survives untouched,
and the concentration limit recovers exactly the ball's mass.
"""

import vpshell as vp
from vpshell.classify import TimeSeries, classify, growth_exponent
from vpshell.csvio import read_diagnostics, write_diagnostics
from vpshell.dynamics import IntegratorConfig, run


def main():
    core = vp.CoreSpec(mass=1.0, radius=1.0, n=8000, seed=11)
    shell = vp.ShellSpec(
        mass=0.2, r_inner=2.0, r_outer=2.5, w_min=0.42, w_max=0.48,
        n=2000, seed=12,
    )
    ensemble, report = vp.build_shell_plus_core(core, shell)
    lo, hi = report.momentum_window
    print(f"core energy E0          = {report.core_energy:.6f}")
    print(f"largest admissible m    = {report.shell_mass_max:.4f} (chosen m = 0.2)")
    print(f"momentum window for w^2 = ({lo:.4f}, {hi:.4f})"
          f"  -> w in ({lo**0.5:.3f}, {hi**0.5:.3f})")
    print(f"window satisfied        = {report.double_inequality_ok}")
    print(f"total energy            = {report.total_energy:.6f} (negative)\n")

    r_grid = (1.0, 4.0, 8.0)
    sink = run(
        ensemble,
        IntegratorConfig(t_end=400.0, output_cadence=2.0, dt_safety=0.05),
        r_grid=r_grid,
        q_list=(5.0 / 3.0,),
        snapshot_times=[50.0 * j for j in range(9)],
    )

    # every 25th record time carries a snapshot; group_stats reduces it
    print(" t      R1_shell   core E_kin   core <r^2>   mass in ball R=8")
    table = sink.records
    for k, snap in zip(range(0, len(table.times), 25), sink.snapshots):
        gs = vp.group_stats(snap)
        print(
            f"{table.times[k]:6.1f}  {gs['shell']['min_r']:9.2f}  {gs['core']['kinetic']:.8f}"
            f"  {gs['core']['variance']:.8f}   {table.conc[8.0][k]:.6f}"
        )

    write_diagnostics("/tmp/shell_with_core.csv", table, r_grid, (5.0 / 3.0,))
    parsed = read_diagnostics("/tmp/shell_with_core.csv")
    label = classify(parsed, float(table.energy[0]), 0.0, float(table.mass[0]))
    fit = growth_exponent(TimeSeries(table.times, table.variance))
    print(f"\nlabel: {label.label}")
    print(f"retained mass M_inf = {label.m_infinity:.4f} (ball mass 1.0)")
    print(f"variance exponent = {fit.exponent:.3f} (t^2 growth despite E < 0)")


if __name__ == "__main__":
    main()
