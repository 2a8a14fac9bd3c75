"""Probabilistic load forecasting for parcel pick-up points.

The engine models each parcel's life cycle as a non-stationary Markov jump
process over forward-only statuses, computes each parcel's probability of
occupying the pick-up point at a future slot, models not-yet-placed orders
with a Poisson intensity, and convolves everything into a full probability
mass function of the load.
"""

from .arrivals import (
    DailyVolumeModel,
    HourlyProfile,
    OrderIntensity,
    fit_daily_volume,
    fit_hourly_profile,
    forecast_daily_volume,
    poisson_truncation,
)
from .baselines import baseline_holt_winters, baseline_seasonal_naive
from .engine import (
    ForecastResult,
    bind_kernel,
    contribution_prob,
    future_orders_pmf,
    predict_load_pmf,
    predict_load_pmfs,
)
from .estimation import (
    OpeningHours,
    SelectionModel,
    estimate_pickup_kernel,
    estimate_selection,
    estimate_transit_kernel,
    fit_models,
)
from .evaluate import EvalReport, rolling_origin_evaluate
from .kernel import KernelLevel, StatusKernel, TransitionKernel
from .oracle import SimulatedTrace, enumerate_contribution_prob, mc_contribution_prob, mc_load_at, simulate
from .pmf import HoldingTimePmf, LoadPmf, convolve, tv_distance
from .records import EventLog, ParcelRecord
from .scenario import ScenarioConfig, Site, default_scenario
from .timebase import Timebase

__version__ = "0.1.0"
