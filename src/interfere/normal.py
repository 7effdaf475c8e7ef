"""Standard normal CDF and quantile function.

The quantile is the standard library's ``statistics.NormalDist.inv_cdf``,
Wichura's AS 241 (*Applied Statistics* 37, 1988), whose relative error stays
below 1e-15 down to the smallest positive double. The CDF is kept on ``erfc``
because ``NormalDist.cdf`` underflows to 0.0 already at x = -8.7.
"""

import math
from statistics import NormalDist

from .errors import check_probability, read_number

_STANDARD = NormalDist()


def norm_ppf(q: float) -> float:
    """Quantile (inverse CDF) of the standard normal distribution."""
    return _STANDARD.inv_cdf(check_probability(q, "quantile level"))


def norm_cdf(x: float) -> float:
    """CDF of the standard normal distribution."""
    return 0.5 * math.erfc(-read_number(x, "x") / math.sqrt(2.0))
