"""An outward-moving shell that escapes to infinity.

Builds a shell of unit mass on [1, 1.25] with radial momenta above the
escape threshold sqrt(M / (2 pi R1)) ~ 0.399, evolves it, and shows the
guaranteed behaviour: the inner radius outruns R1(0) + W t, the field
energy decays below M^2 / (8 pi R1(t)), and the classifier calls the
run dispersive.
"""

import numpy as np

import vpshell as vp
from vpshell.classify import TimeSeries, classify, growth_exponent
from vpshell.csvio import read_diagnostics, write_diagnostics
from vpshell.dynamics import IntegratorConfig, energy_drift, run


def main():
    spec = vp.ShellSpec(
        mass=1.0, r_inner=1.0, r_outer=1.25, w_min=0.5, w_max=0.6,
        n=4000, seed=42,
    )
    ensemble, report = vp.build_shell(spec)
    print(f"escape threshold sqrt(M/(2 pi R1)) = {report.escape_threshold:.4f}")
    print(f"lowest radial momentum            = {spec.w_min:.4f}")
    print(f"escape margin W                   = {report.margin:.4f}\n")

    r_grid = (1.0, 2.0, 4.0)
    q_list = (5.0 / 3.0,)
    sink = run(
        ensemble,
        IntegratorConfig(t_end=80.0, output_cadence=0.5, dt_safety=0.05),
        r_grid=r_grid,
        q_list=q_list,
    )

    print(" t      R1_shell   R1(0)+W t   E_pot      M^2/(8 pi R1)  |rho|_5/3")
    table = sink.records
    r1_shell = table.inner_radius_shell
    for k in range(0, len(table.times), len(table.times) // 8):
        bound = 1.0 + report.margin * table.times[k]
        envelope = 1.0 / (8 * np.pi * r1_shell[k])
        print(
            f"{table.times[k]:6.1f}  {r1_shell[k]:9.3f}  {bound:9.3f}"
            f"  {table.energy_potential[k]:9.5f}  {envelope:12.5f}"
            f"  {table.lq[q_list[0]][k]:9.5f}"
        )

    print(f"\nenergy drift over the run: {energy_drift(sink):.2e}")

    write_diagnostics("/tmp/escaping_shell.csv", table, r_grid, q_list)
    parsed = read_diagnostics("/tmp/escaping_shell.csv")
    energy = float(table.energy[0])
    label = classify(parsed, energy, 0.0, float(table.mass[0]))
    fit = growth_exponent(TimeSeries(table.times, table.variance))
    print(f"label: {label.label}   variance exponent: {fit.exponent:.3f}")
    print(f"E = {energy:.4f} >= Q^2/2M = 0 as required for total dispersal")


if __name__ == "__main__":
    main()
