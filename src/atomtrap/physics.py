"""Deterministic calculators for the dipole trap and MOT fluorescence budget.

Everything here is a pure function of its inputs, in SI units. Trap depths
are energies (joules); report them as temperature equivalents by dividing
by k_B at the interface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .kinetics import HyperfineRates

__all__ = [
    "AtomParams",
    "GaussianBeam",
    "TrapModel",
    "MotCloud",
    "FluorescenceBudget",
    "trap_depth",
    "peak_scattering_rate",
    "fluorescence_budget",
    "geometric_loading_efficiency",
    "intensity_averaging_factor",
    "amplitude_for_factor",
    "effective_relaxation_rates",
]

c = 299792458.0  # m/s, exact in the SI
k_B = 1.380649e-23  # J/K, exact in the SI
hbar = 6.62607015e-34 / (2 * np.pi)  # J s, h / (2 pi) with h exact


@dataclass(frozen=True)
class AtomParams:
    """Atomic constants of an alkali D-line system (defaults: cesium)."""

    linewidth_gamma: float = 2 * np.pi * 5.2e6  # rad/s
    wavelength_d2: float = 852e-9  # m
    wavelength_d1: float = 894.6e-9  # m

    def __post_init__(self):
        if not self.linewidth_gamma > 0:
            raise ValueError("linewidth_gamma must be positive")
        if not (self.wavelength_d1 > self.wavelength_d2 > 0):
            raise ValueError("require wavelength_d1 > wavelength_d2 > 0")

    @property
    def omega_d2(self) -> float:
        return 2 * np.pi * c / self.wavelength_d2

    @property
    def omega_d1(self) -> float:
        return 2 * np.pi * c / self.wavelength_d1

    @property
    def doppler_temperature(self) -> float:
        """T_D = hbar*Gamma / (2 k_B)."""
        return hbar * self.linewidth_gamma / (2 * k_B)


@dataclass(frozen=True)
class GaussianBeam:
    """Focused Gaussian beam: power (W), 1/e^2 intensity waist w0 (m), wavelength (m).

    The defaults are the paper's trap: a 2.5 W Nd:YAG beam at 1064 nm
    focused to a 5 um waist.
    """

    power: float = 2.5
    waist: float = 5e-6
    wavelength: float = 1.064e-6

    def __post_init__(self):
        if not self.power >= 0:
            raise ValueError("power must be non-negative")
        if not (self.waist > 0 and self.wavelength > 0):
            raise ValueError("waist and wavelength must be positive")

    @property
    def peak_intensity(self) -> float:
        """I0 = 2 P / (pi w0^2)."""
        return 2 * self.power / (np.pi * self.waist**2)


@dataclass(frozen=True)
class TrapModel:
    """Dipole-trap summary used by the relaxation and kinetics chain.

    depth_u0 is an energy (J); peak_scattering_rate the total photon
    scattering rate at the trap center (1/s). The suppression factor is
    the ratio of Rayleigh to Raman scattering far off resonance; the
    intensity averaging factor accounts for the oscillating atom sampling
    less than the peak intensity.
    """

    depth_u0: float
    waist: float
    peak_scattering_rate: float
    raman_suppression: float = 90.0
    intensity_averaging_factor: float = 0.125

    def __post_init__(self):
        if not self.depth_u0 > 0:
            raise ValueError("depth_u0 must be positive")
        if not self.waist > 0:
            raise ValueError("waist must be positive")
        if not self.peak_scattering_rate >= 0:
            raise ValueError("peak_scattering_rate must be non-negative")
        if not self.raman_suppression >= 1:
            raise ValueError("raman_suppression must be >= 1")
        if not (0 < self.intensity_averaging_factor <= 1):
            raise ValueError("intensity_averaging_factor must be in (0, 1]")

    @classmethod
    def from_beam(cls, beam: GaussianBeam, atom: AtomParams, **factors) -> "TrapModel":
        """The trap of beam for atom; factors: raman_suppression, intensity_averaging_factor."""
        return cls(
            depth_u0=trap_depth(beam, atom),
            waist=beam.waist,
            peak_scattering_rate=peak_scattering_rate(beam, atom),
            **factors,
        )


@dataclass(frozen=True)
class MotCloud:
    """Gaussian MOT cloud: 1/e fluorescence radius and temperature."""

    radius_r0: float = 10e-6
    temperature: float = AtomParams().doppler_temperature

    def __post_init__(self):
        if not (1e-6 <= self.radius_r0 <= 100e-6):
            raise ValueError("radius_r0 outside the supported 1-100 um range")
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")

    @property
    def kinetic_energy(self) -> float:
        return k_B * self.temperature


@dataclass(frozen=True)
class FluorescenceBudget:
    emitted_power: float  # W
    detected_rate: float  # counts/s per atom


def check_red_detuned(wavelength: float, atom: AtomParams) -> None:
    """Raise ValueError unless a trap wavelength (m) is red of both D lines."""
    if not wavelength > atom.wavelength_d1:
        raise ValueError(
            "two-line model requires the trap wavelength red of both D lines "
            f"(got {wavelength * 1e9:.1f} nm, D1 at {atom.wavelength_d1 * 1e9:.1f} nm)"
        )


# Line-strength weights of the D2 / D1 doublet for the ground state.
_D2_WEIGHT = 2.0 / 3.0
_D1_WEIGHT = 1.0 / 3.0


def _two_lines(beam: GaussianBeam, atom: AtomParams):
    """Peak intensity, and (omega_res, weight, co- plus counter-rotating amplitude) per line."""
    check_red_detuned(beam.wavelength, atom)
    omega = 2 * np.pi * c / beam.wavelength
    return beam.peak_intensity, [
        (omega_res, weight, 1 / (omega_res - omega) + 1 / (omega_res + omega))
        for omega_res, weight in ((atom.omega_d2, _D2_WEIGHT), (atom.omega_d1, _D1_WEIGHT))]


def trap_depth(beam: GaussianBeam, atom: AtomParams) -> float:
    """Ground-state light shift at the beam focus (positive depth, J).

    Two-line model: sum over the D1 and D2 transitions with weights 1/3
    and 2/3, keeping both the co- and counter-rotating denominators.
    """
    i0, lines = _two_lines(beam, atom)
    return sum(weight * (3 * np.pi * c**2 / (2 * omega_res**3)) * atom.linewidth_gamma * amp * i0
               for omega_res, weight, amp in lines)


def peak_scattering_rate(beam: GaussianBeam, atom: AtomParams) -> float:
    """Total photon scattering rate at the trap center (1/s).

    Same two-line model as trap_depth, with the squared amplitude of each
    line summed.
    """
    i0, lines = _two_lines(beam, atom)
    return sum(weight * (3 * np.pi * c**2 / (2 * hbar * omega_res**3))
               * (atom.linewidth_gamma * amp) ** 2 * i0 for omega_res, weight, amp in lines)


def fluorescence_budget(atom: AtomParams, overall_efficiency: float) -> FluorescenceBudget:
    """Strong-drive fluorescence power and detected count rate per atom."""
    if not (0 <= overall_efficiency <= 1):
        raise ValueError("overall_efficiency must be in [0, 1]")
    omega = atom.omega_d2
    emitted = hbar * omega * atom.linewidth_gamma / 2
    detected = atom.linewidth_gamma / 2 * overall_efficiency
    return FluorescenceBudget(emitted_power=emitted, detected_rate=detected)


def geometric_loading_efficiency(e_kin: float, u0: float, w0: float, r0: float) -> float:
    """Probability that a cloud atom sits where the trap depth exceeds E_kin.

    P = 1 - (E_kin/U)^(w0^2/r0^2) for E_kin < U, else 0. w0 and r0 are the
    1/e radii of the dipole trap and the MOT cloud.
    """
    if not (u0 > 0 and w0 > 0 and r0 > 0):
        raise ValueError("u0, w0 and r0 must be positive")
    if not e_kin >= 0:
        raise ValueError("e_kin must be non-negative")
    if e_kin >= u0:
        return 0.0
    return 1.0 - (e_kin / u0) ** (w0**2 / r0**2)


def intensity_averaging_factor(amplitude: float, trap: TrapModel, order: int = 256) -> float:
    """Time-averaged normalized intensity <I>/I0 seen by an oscillating atom.

    Classical 1-D radial motion at z = 0 in the potential -U0 exp(-2r^2/w0^2)
    with turning point `amplitude`. The quadrature substitutes r = A sin(theta),
    which removes the inverse-square-root turning-point singularity, and then
    integrates with `order`-point Gauss-Legendre nodes.
    """
    if not amplitude >= 0:
        raise ValueError("amplitude must be non-negative")
    if amplitude == 0:
        return 1.0
    a = amplitude / trap.waist
    f_turn = np.exp(-2 * a**2)  # exp(-2 A^2 / w0^2)
    nodes, weights = leggauss(order)
    theta = (nodes + 1) * (np.pi / 4)  # map [-1, 1] -> [0, pi/2]
    r = a * np.sin(theta)
    f = np.exp(-2 * r**2)
    speed2 = f - f_turn
    if np.any(speed2 <= 0):
        raise ValueError("amplitude too large: velocity vanishes inside the orbit (numerical escape)")
    inv_speed = a * np.cos(theta) / np.sqrt(speed2)
    num = np.sum(weights * f * inv_speed)
    den = np.sum(weights * inv_speed)
    return float(num / den)


def amplitude_for_factor(target: float, trap: TrapModel, order: int = 256) -> float:
    """Oscillation amplitude (m) whose averaged intensity factor equals `target`."""
    if not (0 < target <= 1):
        raise ValueError("target must be in (0, 1]")
    if target == 1.0:
        return 0.0
    from scipy.optimize import brentq  # local: import atomtrap loads no scipy

    def f(a_m: float) -> float:
        return intensity_averaging_factor(a_m, trap, order=order) - target

    hi = trap.waist
    while f(hi) > 0:
        hi *= 1.5
        if hi > 50 * trap.waist:
            raise ValueError("target factor below the numerically achievable range")
    return float(brentq(f, 0.0, hi, rtol=1e-6))


def effective_relaxation_rates(trap: TrapModel) -> HyperfineRates:
    """Hyperfine relaxation rates from suppressed, motion-averaged scattering.

    Branching weights follow the 2F'+1 rule for the F' = 3, 4 destinations:
    r(4->3) = 7/16 of the total rate lambda, r(3->4) = 9/16, so the
    equilibrium F=4 occupation is 9/16.
    """
    lam = trap.peak_scattering_rate * trap.intensity_averaging_factor / trap.raman_suppression
    return HyperfineRates(r_4to3=7.0 / 16.0 * lam, r_3to4=9.0 / 16.0 * lam)
