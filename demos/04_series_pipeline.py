"""
Time-series prediction pipeline
===============================

End to end at desk scale: synthesize a daily series, window it into
overlapping (earlier m, later n) sample vectors, split train/test,
estimate the joint covariance from the training windows, and compare
filters on held-out windows. The same flow drives the ``wclmmse`` CLI.
"""

import tempfile
from pathlib import Path

import numpy as np

from wclmmse import (
    estimate_covariance,
    condition_number,
    jpc,
    lrw,
    normalized_rms,
    run_l_sweep,
    wiener,
    window_samples,
)
from wclmmse.dataio import write_results_csv

# --- synthesize a persistent daily series around a level of 20 ---------
rng = np.random.default_rng(11)
length, phi = 600, 0.9
noise = rng.standard_normal(length)
values = np.empty(length)
values[0] = 0.0
for i in range(1, length):
    values[i] = phi * values[i - 1] + noise[i]
series = values + 20.0

# --- window, split, estimate -------------------------------------------
m, n = 12, 3
train, test_z, mean = window_samples(series, m, n, seed=0)
print(f"{len(train) + len(test_z)} windows of length {m + n};"
      f" {len(train)} train / {len(test_z)} test;"
      f" subtracted mean {mean:.3f}")

model = estimate_covariance(train, n)
print(f"condition number of the input covariance: {condition_number(model.c_y):.2e}")

# --- score filters out of sample, all in one call ------------------------
names = ("wiener", "lrw l=6", "jpc l=6")
scores = normalized_rms([wiener(model), lrw(model, 6), jpc(model, 6)], test_z, mean)
for name, score in zip(names, scores):
    print(f"  {name:<10} normalized rms = {score:.4f}")

# --- the harness produces the same numbers as plot-ready rows -----------
rows = run_l_sweep(series, m, n, [3, 6, 9, 12], ["wiener", "jpc"], seed=0)
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "l_sweep.csv"
    write_results_csv(rows, out)
    print(f"\nwrote {out}")
for row in rows:
    level = "-" if row.l is None else row.l
    print(f"  {row.filter:<8} l={level:<3} rms={row.norm_rms:.4f}"
          f" largest inverse={row.max_inverse_dim}")
