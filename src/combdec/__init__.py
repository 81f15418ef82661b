"""Bit-exact comb decimation filters and their word-length machinery."""

__version__ = "0.1.0"

from .analysis import (
    InternalError,
    ResponsePoint,
    SnrReport,
    magnitude_response,
    measure_snr,
    response_sweep,
    sigma_delta_source,
)
from .cic import CicFilter, cic_process, truncation_error_bound
from .fixedpoint import FixedSequence, wrap
from .mcla import Mcla, critical_path_gates, mcla_add_many
from .nonrec import NonRecFilter, nonrec_process
from .oracle import dropped_sample_coefficients, fir_coefficients, fir_decimate
from .params import (
    ConfigError,
    FilterConfig,
    WidthMismatchError,
    WordLengthPlan,
    cic_truncation_plan,
    config_from_text,
    config_to_text,
    full_precision_plan,
    max_register_growth,
    nonrec_width_schedule,
    total_width,
)
from .pipeline import (
    PipelinedFilter,
    TimingModel,
    calibrated_timing_model,
    clock_table,
    critical_depth,
    estimate_max_clock,
)
from .sampleio import DataFormatError, read_samples, write_samples

__all__ = [
    "CicFilter",
    "ConfigError",
    "DataFormatError",
    "FilterConfig",
    "FixedSequence",
    "InternalError",
    "Mcla",
    "NonRecFilter",
    "PipelinedFilter",
    "ResponsePoint",
    "SnrReport",
    "TimingModel",
    "WidthMismatchError",
    "WordLengthPlan",
    "calibrated_timing_model",
    "cic_process",
    "cic_truncation_plan",
    "clock_table",
    "config_from_text",
    "config_to_text",
    "critical_depth",
    "critical_path_gates",
    "dropped_sample_coefficients",
    "fir_coefficients",
    "fir_decimate",
    "full_precision_plan",
    "magnitude_response",
    "max_register_growth",
    "mcla_add_many",
    "measure_snr",
    "nonrec_process",
    "nonrec_width_schedule",
    "read_samples",
    "response_sweep",
    "sigma_delta_source",
    "total_width",
    "truncation_error_bound",
    "wrap",
    "write_samples",
]
