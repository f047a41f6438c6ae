"""Few-atom MOT fluorescence staircase and its segmentation.

Simulates the atom number in a weakly loaded MOT with the Gillespie
algorithm, synthesizes the photon-count trace a counting detector would
record, and then runs the change-point analysis that recovers the
integer atom number per plateau. Saves mot_staircase.png if matplotlib
is importable.
"""

import numpy as np

import atomtrap as at

rng = at.run_stream(master_seed=11, run_index=0)
rates = at.MotRates(loading_rate_r=0.1, one_body_loss=0.02)
det = at.DetectorModel()

traj = at.gillespie_mot(rates, n0=0, t_max=120.0, rng=rng)
trace = at.synthesize_mot_trace(traj, det, rng)
seg = at.infer_atom_numbers(at.detect_steps(trace), det)

print(f"simulated {traj.final_value()} atoms after {120.0:.0f} s "
      f"(time-averaged {traj.time_average():.2f})")
print(f"{len(seg.change_points)} change points detected")
print("plateaus (start_s, end_s, level_per_s, inferred_n):")
edges = [0, *seg.change_points, seg.n_bins]
for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
    flag = " (ambiguous)" if seg.ambiguous[i] else ""
    print(f"  {a * det.bin_width:7.1f}  {b * det.bin_width:7.1f}  "
          f"{seg.levels[i]:9.1f}  n = {seg.inferred_n[i]}{flag}")

mids = trace.t0 + (np.arange(seg.n_bins) + 0.5) * det.bin_width
truth = np.array([traj.value_at(t) for t in mids])
inferred = np.repeat(seg.inferred_n, np.diff(edges))
print(f"per-bin accuracy vs ground truth: {(inferred == truth).mean():.4f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the figure")
else:
    fig, ax = plt.subplots(figsize=(8, 4))
    ax.step(mids, trace.counts, where="mid", lw=0.6, color="0.6",
            label="photon counts per 100 ms bin")
    level_counts = np.repeat(np.asarray(seg.levels) * det.bin_width,
                             np.diff(edges))
    ax.plot(mids, level_counts, "r-", lw=1.5, label="fitted plateaus")
    ax.set_xlabel("time (s)")
    ax.set_ylabel("counts per bin")
    ax.legend(loc="upper left")
    fig.tight_layout()
    fig.savefig("mot_staircase.png", dpi=120)
    print("wrote mot_staircase.png")
