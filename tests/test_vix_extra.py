"""Optional real-data checks beyond the acceptance gate.

These exercise the reported large-window phenomena; they need the real
volatility-index CSV (``WCLMMSE_VIX_CSV`` or ``data/vix.csv``) and skip
otherwise.
"""

import numpy as np
import pytest

from test_acceptance import _vix_path
from wclmmse import (
    DimensionError,
    estimate_covariance,
    jpc,
    load_csv,
    normalized_rms,
    run_condition_report,
    window_samples,
)


@pytest.fixture(scope="module")
def vix_series():
    path = _vix_path()
    if path is None or not path.exists():
        pytest.skip("real data not supplied (set WCLMMSE_VIX_CSV)")
    try:
        return load_csv(path, date_column="date", value_column="value")
    except DimensionError:
        return load_csv(path, date_column="date", value_column="close")


def test_condition_number_grows_two_orders(vix_series):
    rows = run_condition_report(vix_series, [400, 3200], 7, seed=0)
    assert rows[1][1] / rows[0][1] >= 100.0


def test_jpc_insensitive_to_truncation_level_at_m3200(vix_series):
    train, test_z, mean = window_samples(vix_series, 3200, 7, 0)
    model = estimate_covariance(train, 7)
    rms = [normalized_rms(jpc(model, l), test_z, mean)
           for l in (300, 400, 500)]
    spread = (max(rms) - min(rms)) / min(rms)
    assert spread <= 0.10, f"rms over l in 300..500: {np.round(rms, 4)}"
