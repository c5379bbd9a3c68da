"""Pricing library for Asian and European options under regime switching."""

from .errors import (
    InterpolationOutOfRange,
    InvalidEnvironment,
    LinearSolveFailure,
    NotApplicable,
    PricingError,
    QuadratureNotConverged,
    ValidationError,
)
from .european import (
    black_scholes_put,
    discounted_strike_vector,
    european_put_grid,
    price_european_put_rs,
)
from .fd import (
    FdConfig,
    FdSurfaces,
    default_y_max,
    fd_price,
    richardson_limit,
    richardson_order,
)
from .greens import (
    delta_property_error,
    greens_function,
    heat_residual,
    select_exponent_variant,
)
from .ham import (
    HamConfig,
    SeriesSurfaces,
    TermGrid,
    assemble_series,
    build_terms,
    ham_grid,
    ham_step,
    ham_vs_fd_report,
    initial_guess,
    price_floating_put_ham,
    recursion_residual,
    series_dollar_price,
    series_surfaces,
)
from .mc import McConfig, McEstimate, mc_price
from .model import (
    AsianOptionSpec,
    MarketState,
    OptionStyle,
    PriceResult,
    RegimeModel,
    payoff,
    rate_ratios,
    two_state_model,
)
from .symmetry import (
    symmetric_counterpart,
    symmetry_mc_check,
)

__version__ = "0.1.0"

__all__ = [
    "AsianOptionSpec",
    "FdConfig",
    "FdSurfaces",
    "HamConfig",
    "InterpolationOutOfRange",
    "InvalidEnvironment",
    "LinearSolveFailure",
    "MarketState",
    "McConfig",
    "McEstimate",
    "NotApplicable",
    "OptionStyle",
    "PriceResult",
    "PricingError",
    "QuadratureNotConverged",
    "RegimeModel",
    "SeriesSurfaces",
    "TermGrid",
    "ValidationError",
    "__version__",
    "assemble_series",
    "black_scholes_put",
    "build_terms",
    "default_y_max",
    "delta_property_error",
    "discounted_strike_vector",
    "european_put_grid",
    "fd_price",
    "greens_function",
    "ham_grid",
    "ham_step",
    "ham_vs_fd_report",
    "heat_residual",
    "initial_guess",
    "mc_price",
    "payoff",
    "price_european_put_rs",
    "price_floating_put_ham",
    "rate_ratios",
    "recursion_residual",
    "richardson_limit",
    "richardson_order",
    "select_exponent_variant",
    "series_dollar_price",
    "series_surfaces",
    "symmetric_counterpart",
    "symmetry_mc_check",
    "two_state_model",
]
