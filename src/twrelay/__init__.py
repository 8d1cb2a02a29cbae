"""Performance analysis of amplify-and-forward MIMO beamforming two-way
relay networks: Monte-Carlo link simulation, the sum-BER lower bound by
numerical integration (against which `validate` checks the paper's closed
form), high-SNR asymptotics, relay-weight optimization, and inter-protocol
gap tables."""

from .errors import ConfigurationError, NumericalError, UnsupportedConfigError
from .scenario import (AntennaConfig, CoefficientSet, DFactors, Modulation,
                       PowerProfile, Protocol, Scenario, WeightPair,
                       coefficient_set, load_scenario, modulation_constants,
                       parse_protocol, power_profile, protocol_modulation)
from .simulate import (BerEstimate, ChannelStream, LinkGains, SweepPoint, end_to_end_snrs,
                       estimate_d_factors, sample_end_to_end_snrs, semi_analytic_sweep)
from .analysis import e2e_cdf, sum_ber_quadrature
from .highsnr import (GapRow, GapTable, HighSnrProfile, beta_closed_form, beta_numeric,
                      eta_pair, gap_table, high_snr_gap, high_snr_profile, high_snr_sum_ber)

__version__ = "0.1.0"
