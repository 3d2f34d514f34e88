"""The benchmark's workloads: how each one makes its inputs and which
``wclmmse`` command it times.

Inputs depend only on the seed. The program under test receives only
what set-up writes (a model file or a series CSV) and the command line.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from pathlib import Path

N = 7
SWEEP_L_M = 400
SWEEP_L_GRID = list(range(10, 401, 10))
SWEEP_M_GRID = [400, 800, 1200]
SERIES_LENGTH = 8000
SERIES_PHI = 0.98
SERIES_LEVEL = 20.0
SERIES_SIGMA = 1.0
SERIES_START = datetime.date(2000, 1, 3)

PAPER_FILTERS = ["wiener", "lrw", "jpc", "lsjpc"]
ALL_FILTERS = ["wiener", "lrw", "csw", "jpc", "lsjpc",
               "jpc_simplified", "lsjpc_simplified"]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "sweep-l" (synthetic model) or "sweep-m" (series CSV)
    filters: tuple[str, ...]
    spectrum: str = ""   # synth spectrum for "sweep-l"

    @property
    def input_name(self) -> str:
        return "model.bin" if self.kind == "sweep-l" else "series.csv"

    def synth_argv(self, seed: int, out: Path) -> list[str]:
        return ["synth", "--n", str(N), "--m", str(SWEEP_L_M),
                "--spectrum", self.spectrum, "--seed", str(seed), "--out", str(out)]

    def sweep_argv(self, seed: int, inputs: Path, out: Path) -> list[str]:
        filters = ",".join(self.filters)
        if self.kind == "sweep-l":
            return ["sweep-l", "--model", str(inputs), "--m", str(SWEEP_L_M),
                    "--n", str(N), "--l-min", str(SWEEP_L_GRID[0]),
                    "--l-max", str(SWEEP_L_GRID[-1]),
                    "--l-step", str(SWEEP_L_GRID[1] - SWEEP_L_GRID[0]),
                    "--filters", filters, "--seed", str(seed), "--out", str(out)]
        grid = f"{SWEEP_M_GRID[0]}:{SWEEP_M_GRID[-1]}:{SWEEP_M_GRID[1] - SWEEP_M_GRID[0]}"
        return ["sweep-m", "--data", str(inputs), "--m-grid", grid, "--n", str(N),
                "--l-policy", "best", "--filters", filters,
                "--seed", str(seed), "--out", str(out)]

    def expected_keys(self) -> set[tuple]:
        """Keys of the rows the command must produce: (filter, m, l) for
        ``sweep-l``; (filter, m) for ``sweep-m``, whose level the program picks."""
        if self.kind == "sweep-m":
            return {(f, m) for f in self.filters for m in SWEEP_M_GRID}
        return {(f, SWEEP_L_M, None) if f == "wiener" else (f, SWEEP_L_M, l)
                for f in self.filters for l in SWEEP_L_GRID}


WORKLOADS = {
    w.name: w for w in [
        Workload("sweep-l-m400", "sweep-l", tuple(PAPER_FILTERS), "geometric:1.0,0.97"),
        Workload("sweep-m-best", "sweep-m", tuple(PAPER_FILTERS)),
        Workload("sweep-l-illcond", "sweep-l", tuple(ALL_FILTERS), "geometric:1.0,0.9"),
    ]
}


def ar1_values(seed: int):
    """AR(1) series x[i] = phi x[i-1] + sigma e[i], x[0] = 0, plus a level."""
    import numpy as np

    noise = np.random.default_rng(seed).standard_normal(SERIES_LENGTH - 1)
    values = np.empty(SERIES_LENGTH)
    values[0] = 0.0
    for i in range(1, SERIES_LENGTH):
        values[i] = SERIES_PHI * values[i - 1] + SERIES_SIGMA * noise[i - 1]
    return values + SERIES_LEVEL


def write_series_csv(seed: int, path: Path) -> None:
    lines = ["date,value"]
    for i, value in enumerate(ar1_values(seed)):
        day = SERIES_START + datetime.timedelta(days=i)
        lines.append(f"{day.isoformat()},{float(value)!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_series_csv(path: Path):
    import numpy as np

    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    return np.array([float(r.split(",")[1]) for r in rows])
