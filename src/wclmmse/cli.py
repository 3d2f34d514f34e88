"""Command-line entry point for the experiment harness.

Subcommands: ``synth`` (generate a covariance model), ``sweep-l``,
``sweep-m``, ``cond``, and ``scaling``. Result CSVs follow the fixed
schema in :mod:`wclmmse.dataio`; ``sweep-l``, ``sweep-m`` and ``cond``
write an equivalent JSON array next to their CSV, ``scaling`` its CSV
alone. ``--seed`` defaults to 0, so a command line always prints the
same numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
import zipfile
from pathlib import Path

import numpy as np

from . import dataio, harness
from .diagnostics import scaling_study
from .errors import ModelError
from .filters import _LEVELED_KINDS
from .model import CovarianceModel, geometric_spectrum, synthetic_model

__all__ = ["main"]

_DEFAULT_FILTERS = "wiener,lrw,jpc,lsjpc"
_BLOCKS = ("c_x", "c_xy", "c_y")


def _parse_spectrum(text: str, size: int) -> np.ndarray:
    kind, _, params = text.partition(":")
    if kind != "geometric":
        raise ValueError(f"unsupported spectrum spec {text!r} (use geometric:a,r)")
    try:
        scale_s, ratio_s = params.split(",")
        scale, ratio = float(scale_s), float(ratio_s)
    except ValueError:
        raise ValueError(f"cannot parse {text!r}; expected geometric:a,r") from None
    return geometric_spectrum(size, scale=scale, ratio=ratio)


def _grid(start: int, stop: int, step: int) -> range:
    if step < 1:
        raise ValueError("grid step must be >= 1")
    return range(start, stop + 1, step)


def _parse_grid(text: str) -> list[int]:
    """``start:stop:step`` (inclusive stop) or a comma list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid {text!r} must be start:stop:step")
        return list(_grid(*(int(p) for p in parts)))
    return [int(p) for p in text.split(",") if p]


def save_model(model: CovarianceModel, path) -> None:
    """Write the model's three blocks, and nothing else, as an ``.npz`` archive."""
    with open(path, "wb") as handle:
        np.savez(handle, c_x=model.c_x, c_xy=model.c_xy, c_y=model.c_y)


def load_model(path) -> CovarianceModel:
    """The model of the archive's ``c_x``, ``c_xy`` and ``c_y``; other arrays
    are ignored. A file that is not a readable ``.npz`` archive, or lacks one
    of the three blocks, raises :class:`ModelError`."""
    blocks = None
    try:
        with open(path, "rb") as handle:
            data = np.load(handle)
            if isinstance(data, np.lib.npyio.NpzFile):
                with data:
                    blocks = {name: data[name] for name in _BLOCKS if name in data.files}
    except (EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise ModelError(f"{path} is not a model archive") from exc
    if blocks is None:
        raise ModelError(f"{path} is not a model archive")
    missing = [name for name in _BLOCKS if name not in blocks]
    if missing:
        raise ModelError(f"{path} has no {', '.join(missing)} block")
    return CovarianceModel(blocks["c_x"], blocks["c_y"], blocks["c_xy"])


def _load_source(args):
    if getattr(args, "model", None):
        return load_model(args.model)
    return dataio.load_csv(args.data, date_column=args.date_col,
                           value_column=args.value_col)


def _add_source_args(parser: argparse.ArgumentParser, model_ok: bool = True) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--data", help="CSV file with a daily series")
    if model_ok:
        group.add_argument("--model", help="saved covariance model (.bin)")
    parser.add_argument("--date-col", default="date", help="date column name")
    parser.add_argument("--value-col", default="value", help="value column name")


def _write_rows(rows, out: str) -> None:
    out_path = Path(out)
    dataio.write_results_csv(rows, out_path)
    dataio.write_results_json(rows, out_path.with_suffix(".json"))
    print(f"wrote {out_path} ({len(rows)} rows)")


def _cmd_synth(args) -> int:
    spectrum = _parse_spectrum(args.spectrum, args.n + args.m)
    model = synthetic_model(args.n, spectrum, seed=args.seed)
    save_model(model, args.out)
    print(f"wrote {args.out} (n={model.n}, m={model.m})")
    return 0


def _cmd_sweep_l(args) -> int:
    source = _load_source(args)
    grid = _grid(args.l_min, args.l_max, args.l_step)
    rows = harness.run_l_sweep(source, args.m, args.n, grid,
                               args.filters.split(","), seed=args.seed)
    _write_rows(rows, args.out)
    return 0


def _cmd_sweep_m(args) -> int:
    source = _load_source(args)
    policy = harness.parse_l_policy(args.l_policy)
    rows = harness.run_m_sweep(source, _parse_grid(args.m_grid), args.n,
                               args.filters.split(","), policy, seed=args.seed)
    _write_rows(rows, args.out)
    return 0


def _cmd_cond(args) -> int:
    source = _load_source(args)
    n = args.n
    if n is None:
        n = source.n if isinstance(source, CovarianceModel) else 7
    rows = harness.run_condition_report(source, _parse_grid(args.m_grid), n, seed=args.seed)
    out_path = Path(args.out)
    dataio.write_condition_csv(rows, out_path)
    records = [{"m": m, "cond_cy": c} for m, c in rows]
    out_path.with_suffix(".json").write_text(json.dumps(records, indent=2) + "\n",
                                             encoding="utf-8")
    print(f"wrote {out_path} ({len(rows)} rows)")
    return 0


def _cmd_scaling(args) -> int:
    model = load_model(args.model)
    if args.l_max is None:
        l_max = model.m
        l_min = args.l_min if args.l_min is not None else max(1, model.m // 8)
        step = args.l_step if args.l_step is not None else max(1, model.m // 8)
    else:
        l_max = args.l_max
        l_min = args.l_min if args.l_min is not None else 1
        step = args.l_step if args.l_step is not None else 1
    grid = _grid(l_min, l_max, step)
    study = scaling_study(model, args.filter, grid, norm=args.norm)
    dataio.write_scaling_csv(study, args.out)
    print(f"wrote {args.out} ({study.l.shape[0]} rows;"
          f" slope={study.slope:.6g}, max dist/loss ratio={study.max_ratio:.6g})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wclmmse",
        description="Well-conditioned linear MMSE filtering experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic covariance model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--spectrum", default="geometric:1.0,0.6",
                   help="spectrum spec, e.g. geometric:1.0,0.6")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("sweep-l", help="sweep the truncation level at fixed m")
    _add_source_args(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, default=7)
    p.add_argument("--l-min", type=int, required=True)
    p.add_argument("--l-max", type=int, required=True)
    p.add_argument("--l-step", type=int, default=1)
    p.add_argument("--filters", default=_DEFAULT_FILTERS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep_l)

    p = sub.add_parser("sweep-m", help="sweep the input window length")
    _add_source_args(p, model_ok=False)
    p.add_argument("--m-grid", required=True, help="start:stop:step or comma list")
    p.add_argument("--n", type=int, default=7)
    p.add_argument("--l-policy", default="best", help="'best' or 'fixed:L'")
    p.add_argument("--filters", default=_DEFAULT_FILTERS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep_m)

    p = sub.add_parser("cond", help="condition number of the input covariance vs m")
    _add_source_args(p)
    p.add_argument("--m-grid", required=True)
    p.add_argument("--n", type=int, default=None,
                   help="target size n (default: a model's own, else 7)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_cond)

    p = sub.add_parser("scaling", help="convergence-vs-truncation-loss study")
    p.add_argument("--model", required=True)
    p.add_argument("--filter", default="jpc", choices=[kind.value for kind in _LEVELED_KINDS])
    p.add_argument("--norm", default="nuclear", choices=["nuclear", "frobenius"])
    p.add_argument("--l-min", type=int, default=None)
    p.add_argument("--l-max", type=int, default=None)
    p.add_argument("--l-step", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_scaling)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
