import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import constants as const

from atomtrap import (
    AtomParams,
    GaussianBeam,
    HyperfineRates,
    MotCloud,
    PhotonTrace,
    StateTrajectory,
    TrapModel,
    amplitude_for_factor,
    analytic_occupation,
    effective_relaxation_rates,
    fluorescence_budget,
    geometric_loading_efficiency,
    intensity_averaging_factor,
    peak_scattering_rate,
    trap_depth,
)
from atomtrap import physics

CS = AtomParams()
BEAM = GaussianBeam(power=2.5, waist=5e-6, wavelength=1.064e-6)


def default_trap():
    return TrapModel.from_beam(BEAM, CS)


class TestConstants:
    def test_exact_si_values_equal_scipy(self):
        assert (physics.c, physics.hbar, physics.k_B) == (const.c, const.hbar, const.k)

    def test_derived_defaults_unchanged(self):
        # the values the defaults had when the constants came from scipy.constants, as repr
        assert MotCloud.temperature == 0.00012478031990752176
        assert default_trap().depth_u0 == 2.389738433893725e-25
        assert effective_relaxation_rates(default_trap()).total == 0.2908413482412


class TestAtomParams:
    def test_doppler_temperature(self):
        # T_D = hbar*Gamma/(2 k_B), about 125 uK for the default linewidth
        assert CS.doppler_temperature == pytest.approx(
            const.hbar * CS.linewidth_gamma / (2 * const.k), rel=1e-12
        )
        assert CS.doppler_temperature == pytest.approx(125e-6, rel=0.01)

    def test_defaults(self):
        assert CS.linewidth_gamma == pytest.approx(2 * np.pi * 5.2e6)
        assert CS.wavelength_d2 == 852e-9
        assert CS.wavelength_d1 == 894.6e-9

    def test_line_ordering_enforced(self):
        with pytest.raises(ValueError):
            AtomParams(wavelength_d2=900e-9, wavelength_d1=852e-9)


class TestGaussianBeam:
    def test_peak_intensity(self):
        # I0 = 2P/(pi w0^2) = 6.37e10 W/m^2 at the default parameters
        assert BEAM.peak_intensity == pytest.approx(6.366e10, rel=1e-3)

    def test_invalid(self):
        with pytest.raises(ValueError):
            GaussianBeam(power=-1, waist=5e-6, wavelength=1e-6)
        with pytest.raises(ValueError):
            GaussianBeam(power=1, waist=0, wavelength=1e-6)

    def test_defaults_are_the_paper_beam(self):
        assert GaussianBeam() == BEAM


NAN = float("nan")


@pytest.mark.parametrize("build", [
    lambda: GaussianBeam(power=NAN, waist=5e-6, wavelength=1.064e-6),
    lambda: GaussianBeam(power=2.5, waist=NAN, wavelength=1.064e-6),
    lambda: GaussianBeam(power=2.5, waist=5e-6, wavelength=NAN),
    lambda: TrapModel(depth_u0=NAN, waist=5e-6, peak_scattering_rate=1.0),
    lambda: TrapModel(depth_u0=1e-25, waist=NAN, peak_scattering_rate=1.0),
    lambda: TrapModel(depth_u0=1e-25, waist=5e-6, peak_scattering_rate=NAN),
    lambda: TrapModel(depth_u0=1e-25, waist=5e-6, peak_scattering_rate=1.0,
                      raman_suppression=NAN),
    lambda: AtomParams(linewidth_gamma=NAN),
    lambda: MotCloud(temperature=NAN),
    lambda: PhotonTrace(0.0, NAN, [1, 2]),
    lambda: StateTrajectory([0.0, 1.0], [0, 1], t_end=NAN),
], ids=["beam.power", "beam.waist", "beam.wavelength", "trap.depth_u0", "trap.waist",
        "trap.peak_scattering_rate", "trap.raman_suppression", "atom.linewidth_gamma",
        "cloud.temperature", "trace.bin_width", "trajectory.t_end"])
def test_nan_model_parameter_rejected(build):
    # a NaN fails every comparison, so each check must be written "not x > 0"
    with pytest.raises(ValueError):
        build()


class TestTrapDepth:
    def test_reference_band(self):
        u = trap_depth(BEAM, CS) / const.k
        assert 12.8e-3 <= u <= 19.2e-3

    def test_frozen_value(self):
        # independently derived from the two-line formula, then frozen
        assert trap_depth(BEAM, CS) / const.k == pytest.approx(17.3088e-3, rel=1e-4)

    def test_zero_power(self):
        assert trap_depth(GaussianBeam(0.0, 5e-6, 1.064e-6), CS) == 0.0

    def test_linearity_in_power(self):
        u1 = trap_depth(BEAM, CS)
        u2 = trap_depth(GaussianBeam(5.0, 5e-6, 1.064e-6), CS)
        assert u2 == pytest.approx(2 * u1, rel=1e-12)

    @given(scale=st.floats(0.5, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_homogeneity(self, scale):
        # degree 1 in power, degree -2 in waist
        u0 = trap_depth(BEAM, CS)
        up = trap_depth(GaussianBeam(2.5 * scale, 5e-6, 1.064e-6), CS)
        uw = trap_depth(GaussianBeam(2.5, 5e-6 * scale, 1.064e-6), CS)
        assert up == pytest.approx(scale * u0, rel=1e-9)
        assert uw == pytest.approx(u0 / scale**2, rel=1e-9)

    def test_rejects_blue_wavelength(self):
        with pytest.raises(ValueError):
            trap_depth(GaussianBeam(2.5, 5e-6, 870e-9), CS)


class TestScatteringRate:
    def test_reference_band(self):
        rate = peak_scattering_rate(BEAM, CS)
        assert 142 <= rate <= 238

    def test_frozen_value(self):
        assert peak_scattering_rate(BEAM, CS) == pytest.approx(209.406, rel=1e-4)

    def test_linearity(self):
        r1 = peak_scattering_rate(BEAM, CS)
        r2 = peak_scattering_rate(GaussianBeam(1.25, 5e-6, 1.064e-6), CS)
        assert r1 == pytest.approx(2 * r2, rel=1e-12)

    def test_zero_power(self):
        assert peak_scattering_rate(GaussianBeam(0.0, 5e-6, 1.064e-6), CS) == 0.0


class TestFluorescenceBudget:
    def test_emitted_power(self):
        budget = fluorescence_budget(CS, 1e-3)
        # hbar*omega*Gamma/2 evaluates to ~3.8 pW; 3 pW +- 30%
        assert budget.emitted_power == pytest.approx(3.8e-12, rel=0.05)
        assert abs(budget.emitted_power - 3e-12) <= 0.3 * 3e-12

    def test_detected_rate(self):
        budget = fluorescence_budget(CS, 1e-3)
        assert budget.detected_rate == pytest.approx(CS.linewidth_gamma / 2 * 1e-3)
        assert 3e3 <= budget.detected_rate <= 2e4

    def test_zero_efficiency(self):
        assert fluorescence_budget(CS, 0.0).detected_rate == 0.0

    def test_efficiency_range(self):
        with pytest.raises(ValueError):
            fluorescence_budget(CS, 1.5)


class TestLoadingEfficiency:
    def test_reference_value(self):
        p = geometric_loading_efficiency(const.k * 125e-6, const.k * 16e-3, 5e-6, 10e-6)
        assert p == pytest.approx(0.702, abs=1e-3)

    def test_boundary(self):
        assert geometric_loading_efficiency(1.0, 1.0, 5e-6, 10e-6) == 0.0
        assert geometric_loading_efficiency(2.0, 1.0, 5e-6, 10e-6) == 0.0

    def test_exponent_one(self):
        p = geometric_loading_efficiency(np.exp(-1), 1.0, 5e-6, 5e-6)
        assert p == pytest.approx(1 - np.exp(-1), rel=1e-12)

    @given(
        u=st.floats(1e-25, 1e-23),
        frac=st.floats(1e-3, 0.999),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotonic(self, u, frac):
        e = frac * u
        p = geometric_loading_efficiency(e, u, 5e-6, 10e-6)
        assert 0 <= p < 1
        assert geometric_loading_efficiency(e, 1.1 * u, 5e-6, 10e-6) > p
        assert geometric_loading_efficiency(min(1.1 * e, u), u, 5e-6, 10e-6) <= p

    def test_continuous_at_boundary(self):
        p = geometric_loading_efficiency(1.0 - 1e-12, 1.0, 5e-6, 10e-6)
        assert p == pytest.approx(0.0, abs=1e-9)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            geometric_loading_efficiency(1.0, 0.0, 5e-6, 10e-6)
        with pytest.raises(ValueError):
            geometric_loading_efficiency(-1.0, 1.0, 5e-6, 10e-6)


class TestMotCloud:
    def test_kinetic_energy(self):
        cloud = MotCloud()
        assert cloud.kinetic_energy == pytest.approx(const.k * cloud.temperature)

    def test_radius_range(self):
        with pytest.raises(ValueError):
            MotCloud(radius_r0=0.5e-6)
        with pytest.raises(ValueError):
            MotCloud(radius_r0=200e-6)


class TestAveragingFactor:
    def test_zero_amplitude(self):
        assert intensity_averaging_factor(0.0, default_trap()) == 1.0

    def test_reference_band(self):
        trap = default_trap()
        f = intensity_averaging_factor(1.5 * trap.waist, trap)
        assert 0.065 <= f <= 0.185

    def test_frozen_value(self):
        trap = default_trap()
        f = intensity_averaging_factor(1.5 * trap.waist, trap)
        assert f == pytest.approx(0.15079, rel=1e-3)

    def test_monotonic(self):
        trap = default_trap()
        amps = np.linspace(0.1, 2.0, 12) * trap.waist
        vals = [intensity_averaging_factor(a, trap) for a in amps]
        assert all(a >= b for a, b in zip(vals[:-1], vals[1:]))

    def test_quadrature_stability(self):
        trap = default_trap()
        f1 = intensity_averaging_factor(1.5 * trap.waist, trap, order=128)
        f2 = intensity_averaging_factor(1.5 * trap.waist, trap, order=256)
        assert abs(f1 - f2) < 1e-3

    def test_inverse_round_trip(self):
        trap = default_trap()
        a = 1.2 * trap.waist
        f = intensity_averaging_factor(a, trap)
        assert amplitude_for_factor(f, trap) == pytest.approx(a, rel=1e-4)

    def test_amplitude_for_one_eighth(self):
        trap = default_trap()
        a = amplitude_for_factor(0.125, trap)
        assert 1.2 <= a / trap.waist <= 1.8

    def test_target_one(self):
        assert amplitude_for_factor(1.0, default_trap()) == 0.0

    def test_bad_target(self):
        with pytest.raises(ValueError):
            amplitude_for_factor(0.0, default_trap())


class TestRelaxationRates:
    def reference_trap(self):
        # rates quoted with the rounded reference peak rate of 190 1/s
        return TrapModel(
            depth_u0=const.k * 16e-3,
            waist=5e-6,
            peak_scattering_rate=190.0,
            raman_suppression=90.0,
            intensity_averaging_factor=0.125,
        )

    def test_lambda_value(self):
        rr = effective_relaxation_rates(self.reference_trap())
        assert rr.total == pytest.approx(0.264, abs=1e-3)
        tau = 1 / rr.total
        # inside the union of the 4.2 +- 0.7 and 3.3 +- 0.6 bands
        assert (3.5 <= tau <= 4.9) or (2.7 <= tau <= 3.9)

    def test_branching(self):
        rr = effective_relaxation_rates(self.reference_trap())
        assert rr.r_3to4 / rr.r_4to3 == pytest.approx(9 / 7, abs=1e-9)
        assert rr.p4_equilibrium == 0.5625

    def test_no_suppression_identity(self):
        trap = TrapModel(
            depth_u0=1e-25, waist=5e-6, peak_scattering_rate=190.0,
            raman_suppression=1.0, intensity_averaging_factor=1.0,
        )
        rr = effective_relaxation_rates(trap)
        assert rr.total == pytest.approx(190.0)

    def test_suppression_ratio(self):
        trap = self.reference_trap()
        rr = effective_relaxation_rates(trap)
        assert trap.peak_scattering_rate / rr.total == pytest.approx(720, rel=1e-9)


NAN = float("nan")
_NAN_CALLS = {
    "loading_e_kin": lambda: geometric_loading_efficiency(NAN, 1e-25, 5e-6, 1e-5),
    "loading_u0": lambda: geometric_loading_efficiency(1e-27, NAN, 5e-6, 1e-5),
    "loading_w0": lambda: geometric_loading_efficiency(1e-27, 1e-25, NAN, 1e-5),
    "loading_r0": lambda: geometric_loading_efficiency(1e-27, 1e-25, 5e-6, NAN),
    "averaging_amplitude": lambda: intensity_averaging_factor(NAN, default_trap()),
    "occupation_t": lambda: analytic_occupation(4, HyperfineRates(0.1, 0.1), NAN),
    "red_detuned": lambda: physics.check_red_detuned(NAN, CS),
}


@pytest.mark.parametrize("call", _NAN_CALLS.values(), ids=list(_NAN_CALLS))
def test_nan_argument_rejected(call):
    # nan fails no "x < 0" test, so each check must be one that nan fails
    with pytest.raises(ValueError):
        call()
