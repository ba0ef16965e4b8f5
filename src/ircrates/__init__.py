"""Achievable rates for the two-user Gaussian interference relay channel.

Protocols: zero-delay scalar amplify-and-forward (with closed-form optimal
relay gain), decode-and-forward (cooperation-degree and power-split search),
and estimate-and-forward with single- or bi-level Wyner-Ziv compression.
Includes exact finite-alphabet bound evaluation and relay-placement
dominance maps.
"""

from .channel import (
    ChannelInstance,
    NodeLayout,
    RatePair,
    capacity,
    layout_to_channel,
    path_loss_gain,
)
from .af import (
    AfAnalysis,
    AfAuxiliaries,
    af_rate,
    af_sum_rate_gain,
    critical_points,
    optimal_gain,
    saturation_gain,
)
from .df import DfParams, df_rate, df_sum_rate_search
from .ef import (
    BiScenario,
    EfBiParams,
    EfDerived,
    ef_bi_eval,
    ef_bi_min_noise,
    ef_bi_rate,
    ef_bi_scenario,
    ef_bi_sum_rate_search,
    ef_derived,
    ef_sl_bottleneck,
    ef_sl_min_noise,
    ef_sl_rate,
)
from .discrete import (
    BiLevelFactorization,
    JointPmf,
    SingleLevelFactorization,
    bi_level_bounds,
    conditional_mutual_information,
    single_level_bounds,
)
from .errors import ConstraintViolationError, InfeasibleError
from .scenario import (
    MapCell,
    ScenarioConfig,
    default_config,
    dominance_map,
    sl_vs_bl_map,
    sum_rate_slice,
)

__version__ = "0.1.0"
