"""bernwave: certified weighted Fourier norms and Bernstein-type constants
for spline and Daubechies wavelet families."""

__version__ = "0.1.0"

from .constants import (
    favard,
    favard_table,
    predict_limit,
    predict_norm_leading,
    predict_rate,
    spline_bernstein_constant,
    spline_constants,
    spline_wavelet_lower_bound,
)
from .daubechies import daub_mask, daub_phi_hat_magnitude, daub_psi_hat_magnitude
from .norms import (
    asymptotic_sweep,
    bernstein_violation_scan,
    ckp,
    coefficient_bound_check,
    fejer_extremal_ratio,
    richardson_extrapolate,
    vanishing_moment_order,
    verify_bernstein_spline,
    weighted_lp_norm,
)
from .splines import (
    autocorrelation_symbol,
    bspline_ft_magnitude,
    bspline_value,
    euler_frobenius,
    spline_wavelet,
    spline_wavelet_magnitude,
)
from .tensor import tensor_ckp, tensor_limit, tensor_lower_bound

__all__ = [
    "__version__",
    "favard",
    "favard_table",
    "predict_limit",
    "predict_norm_leading",
    "predict_rate",
    "spline_bernstein_constant",
    "spline_constants",
    "spline_wavelet_lower_bound",
    "daub_mask",
    "daub_phi_hat_magnitude",
    "daub_psi_hat_magnitude",
    "asymptotic_sweep",
    "bernstein_violation_scan",
    "ckp",
    "coefficient_bound_check",
    "fejer_extremal_ratio",
    "richardson_extrapolate",
    "vanishing_moment_order",
    "verify_bernstein_spline",
    "weighted_lp_norm",
    "autocorrelation_symbol",
    "bspline_ft_magnitude",
    "bspline_value",
    "euler_frobenius",
    "spline_wavelet",
    "spline_wavelet_magnitude",
    "tensor_ckp",
    "tensor_limit",
    "tensor_lower_bound",
]
