"""photonmodes: the three one-photon mode bases of free Maxwell theory
(plane-wave, Bessel-beam, multipole) as evaluable vector potentials, with
their observables, helicity duality and conserved-current inner product,
plus the verification suites that check every claimed property numerically.
"""

__version__ = "0.1.0"

from .charts import dyads, dyad_derivatives, LEVI_CIVITA
from .harmonics import (bessel_j, CylHarmonicLabel, SphHarmonicLabel,
                        eth_analytic, ethbar_analytic, eth_numeric,
                        ethbar_numeric, sample_harmonic)
from .modes import (PlaneWaveLabel, CylindricalLabel, SphericalLabel,
                    plane_wave, cylindrical_mode, spherical_mode,
                    field_strength, sample_grid, GridSpec, FieldGrid,
                    sph_radial_profiles)
from .operators import (KillingField, P_lower, P_upper, M_lower, L1, L2, L3,
                        L_plus, L_minus, lie_derivative,
                        angular_momentum_squared, helicity_dual,
                        dalembertian_residual, divergence_residual,
                        check_all_brackets,
                        pauli_lubanski_residual)
from .inner_product import (SliceSpec, TailSpec, WavePacket, Superposition, inner,
                            inner_field_strength_form, current, gauge_shift,
                            GaussianBumpScalar, discrete_orthonormality,
                            bessel_overlap, bessel_overlap_closed_form,
                            smeared_radial_delta)
from .validation import (CheckSpec, CheckReport, run_suite, run_all,
                         claims_manifest, CLAIM_LIST, SUITES)
