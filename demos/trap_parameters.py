"""Deterministic trap physics: depth, scattering, fluorescence, loading.

Walks through the closed-form layer of the package for the reference
configuration (2.5 W Nd:YAG beam focused to a 5 µm waist, cesium atoms):
trap depth, peak off-resonant scattering rate, the fluorescence photon
budget of a single trapped atom, the geometric MOT-to-trap loading
efficiency, and the motional intensity-averaging factor that suppresses
the effective hyperfine relaxation rate.
"""

import numpy as np

import atomtrap as at
from atomtrap.physics import k_B

atom = at.AtomParams()
beam = at.GaussianBeam(power=2.5, waist=5e-6, wavelength=1.064e-6)

u0 = at.trap_depth(beam, atom)
rate = at.peak_scattering_rate(beam, atom)
print(f"trap depth            U/k_B = {u0 / k_B * 1e3:8.3f} mK")
print(f"peak scattering rate        = {rate:8.2f} photons/s")

budget = at.fluorescence_budget(atom, overall_efficiency=1e-3)
print(f"emitted power (resonant)    = {budget.emitted_power * 1e12:8.2f} pW")
print(f"detected count rate         = {budget.detected_rate:8.0f} photons/s")

p = at.geometric_loading_efficiency(
    e_kin=k_B * 125e-6, u0=k_B * 16e-3, w0=5e-6, r0=10e-6)
print(f"geometric loading efficiency = {p:7.4f}")

trap = at.TrapModel(depth_u0=u0, waist=5e-6, peak_scattering_rate=190.0,
                    raman_suppression=90.0, intensity_averaging_factor=0.125)
print("\noscillation amplitude vs time-averaged relative intensity:")
for amp_w0 in (0.5, 1.0, 1.5, 2.0):
    f = at.intensity_averaging_factor(amp_w0 * trap.waist, trap)
    print(f"  A = {amp_w0:3.1f} w0  ->  <I>/I0 = {f:.4f}")
amp = at.amplitude_for_factor(1.0 / 8.0, trap)
print(f"factor 1/8 is reached at A = {amp / trap.waist:.3f} w0")

rates = at.effective_relaxation_rates(trap)
print(f"\neffective relaxation rate   lambda = {rates.total:.4f} /s "
      f"(tau = {1 / rates.total:.2f} s)")
print(f"equilibrium F=4 occupation  P4_eq  = {rates.p4_equilibrium:.4f}")
print(f"peak-rate / lambda ratio           = "
      f"{190.0 / rates.total:.0f}")
