"""Hyperfine-state detection from photon bursts.

Synthesizes the short fluorescence bursts recorded during the 2 ms
detection window for atoms prepared in F=4 (bright) and F=3 (dark),
shows the Bayesian classifier's posterior, and measures the empirical
true/false positive rates of the simple counts >= 2 threshold against
the Poisson tails of burst_count_logpmf.
"""

import numpy as np

import atomtrap as at

model = at.BurstModel()  # 3 photons/atom signal, 0.5 background
rng = at.run_stream(master_seed=31, run_index=0)

print("posterior over the bright-atom number, one atom in the trap:")
print(f"  {'counts':>6} {'P(F=3)':>8} {'P(F=4)':>8}  MAP")
for counts in range(6):
    cl = at.classify_burst(counts, n_atoms=1, model=model)
    print(f"  {counts:6d} {cl.posterior[0]:8.4f} {cl.posterior[1]:8.4f}  "
          f"F={cl.map_state}")

n = 20000
bright = np.array([at.synthesize_detection_burst(1, model, rng).counts.sum()
                   for _ in range(n)])
dark = np.array([at.synthesize_detection_burst(0, model, rng).counts.sum()
                 for _ in range(n)])
tpr, fpr = (bright >= 2).mean(), (dark >= 2).mean()
# P(counts >= 2) = 1 - P(0) - P(1) under the window's count law, for k = 1 and k = 0
tpr_th, fpr_th = 1 - np.exp(at.burst_count_logpmf([[0], [1]], [1, 0], model)).sum(axis=0)
print(f"\nthreshold counts >= 2 over {n} windows per state:")
print(f"  TPR = {tpr:.4f}  (Poisson tail {tpr_th:.4f})")
print(f"  FPR = {fpr:.4f}  (Poisson tail {fpr_th:.4f})")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the figure")
else:
    fig, ax = plt.subplots(figsize=(6, 4))
    bins = np.arange(-0.5, 14.5)
    ax.hist(dark, bins=bins, alpha=0.6, density=True, label="prepared F=3")
    ax.hist(bright, bins=bins, alpha=0.6, density=True, label="prepared F=4")
    ax.axvline(1.5, color="k", ls="--", label="threshold")
    ax.set_xlabel("photon counts in the 2 ms window")
    ax.set_ylabel("probability")
    ax.legend()
    fig.tight_layout()
    fig.savefig("state_detection.png", dpi=120)
    print("wrote state_detection.png")
