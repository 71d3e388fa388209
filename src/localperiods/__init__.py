"""Numerical verification of unramified local period identities for unitary
groups: Satake-data L-factors, hyperoctahedral Weyl averages, open-orbit
pairing values, spherical averages S(1), and the end-to-end identity
zeta * S(1) = Delta * L(1/2) / (Ad * Ad), plus the theta-lift parameter
identities."""

from types import ModuleType as _ModuleType

from .numfield import (CharValue, ConventionError, FieldData, LFactor, PlaceKind,
                       PoleError, euler_factor, factor_product, inert_place,
                       motive_delta, motive_delta_exact, split_place)
from .satake import (BCParams, SatakeDatum, adjoint_factors, adjoint_lfactor,
                     bc_params, make_datum, std_tensor_factors, std_tensor_lfactor,
                     std_tensor_lfactor_det)
from .weylsum import (Case, SizeError, case_for, case_ranks, iwahori_volume,
                      iwahori_volume_gl, motive_A_value, rho_big, s_value_inert,
                      s_value_split, weyl_sum_A)
from .zetarec import (zeta_base_split_closed, zeta_base_split_series,
                      zeta_closed_factors, zeta_recursive_factors)
from .identity import (FactorDiff, SamplerExhausted, VerificationReport,
                       rel_err, sample_datum, sample_pair, unramified_period,
                       verify_basecase, verify_localcalc, verify_recursion,
                       verify_weyl_constancy)
from .paramcalc import (Base, WDParam, bc_param, direct_sum, gamma_char, induce,
                        tensor_product, theta_param_1to2, theta_param_2to3, twist,
                        verify_appendix)

__version__ = "0.1.0"

# the public names, without the submodules that the imports above bind
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
