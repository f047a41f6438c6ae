"""Hyperfine relaxation in the dipole trap.

Runs the two-arm relaxation experiment (atoms prepared in F=3 or F=4,
held in the dark, state read out after a variable delay), fits both
arms jointly for the relaxation time and the equilibrium F=4
occupation, and compares against the analytic rate model derived from
the trap parameters. Saves relaxation.png if matplotlib is importable.
"""

import numpy as np

import atomtrap as at

cfg = at.parse_config("""
[experiment]
kind = relaxation
master_seed = 41
repetitions = 60
atoms_per_run = 3
""")
rates = cfg.hyperfine_rates()
print(f"model rates: lambda = {rates.total:.4f} /s (tau = {1 / rates.total:.2f} s), "
      f"P4_eq = {rates.p4_equilibrium:.4f}")

ds = at.run_experiment(cfg)
print(f"\n  {'t_s':>5} {'F_init':>6} {'p4':>7} {'n':>4}")
for p in ds.points:
    print(f"  {p['t_s']:5.1f} {p['f_initial']:>6} {p['p4']:7.3f} {p['n']:4d}")

fit = ds.fits["relaxation_joint"]
print("\njoint fit of both preparation arms:")
print(f"  tau   = {fit.parameters['tau']:.2f} "
      f"+/- {fit.standard_errors['tau']:.2f} s")
print(f"  P4_eq = {fit.parameters['p4_eq']:.3f} "
      f"+/- {fit.standard_errors['p4_eq']:.3f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the figure")
else:
    fig, ax = plt.subplots(figsize=(6, 4))
    t = np.linspace(0, 13, 200)
    for f_init, color in ((3, "C0"), (4, "C1")):
        pts = [p for p in ds.points if p["f_initial"] == f_init]
        x = [p["t_s"] for p in pts]
        y = [p["p4"] for p in pts]
        err = [np.sqrt(max(p["p4"] * (1 - p["p4"]), 1e-3) / p["n"])
               for p in pts]
        ax.errorbar(x, y, yerr=err, fmt="o", color=color,
                    label=f"prepared F={f_init}")
        ax.plot(t, [at.analytic_occupation(f_init, rates, ti) for ti in t],
                "--", color=color, lw=1)
    tau_f = fit.parameters["tau"]
    peq_f = fit.parameters["p4_eq"]
    ax.axhline(peq_f, color="0.5", lw=0.8)
    ax.set_xlabel("hold time (s)")
    ax.set_ylabel("F=4 occupation")
    ax.set_ylim(0, 1)
    ax.legend()
    fig.tight_layout()
    fig.savefig("relaxation.png", dpi=120)
    print("wrote relaxation.png")
