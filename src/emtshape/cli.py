"""Command-line pipeline: forward EMT tables, analytic reconstruction,
round-trip experiments, and the disk oracle suite.

A run is configured by a single JSON document

    {
      "materials": {"background": {"lambda": 1.5, "mu": 1.2},
                    "inclusion":  {"lambda": 0.6, "mu": 0.4}},
      "shape":     {"kind": "starfish", "center": [0.0, 0.0],
                    "modeAmplitude": 0.125, "modeIndex": 5},
      "order": 6,
      "nodes": 256,
      "noise": {"sigma2": 0.05, "seed": 7},
      "outputDir": "out"
    }

with ``nodes`` (default NODES) and ``noise`` optional.  Every object of a
config or table document holds only its declared keys, each once
(``geometry.check_keys``); ``order`` must stay below ``nodes``/2 - 1,
since the traction operators lift mode ``nodes``/2 - 1 to the Nyquist
mode.  The flags ``--order``, ``--nodes``, ``--noise-var``, ``--seed`` and
``--out`` override the corresponding fields, which are still read and must
be valid.  ``--noise-var`` and ``--seed``
replace the fields of the noise block; ``--noise-var`` without a block draws
with seed 0, and ``--seed`` needs a variance.  ``reconstruct`` rejects
``--noise-var`` and ``--seed``, and its help does not list them, since its
table document records its own noise; it still accepts a config's ``noise``
block, because forward and reconstruct share config files.  It inverts at
the smaller of the config's ``order`` and the table's order, which is the
number of ``coeffs`` in ``shape_estimate.json``.  The recovered and the true
boundary are compared at THETA_SAMPLES parameters.  Exit codes: 0 success,
1 numerical failure (a table, exact or noisy, that is not finite is one), 2
configuration error (an output directory that cannot be created or an output
file that cannot be written is one).  Outputs carry no timestamps, so
identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .disk import disk_emt_table
from .emt import (
    EmtTable,
    NoiseModel,
    apply_noise,
    emt_table,
    noise_from_json,
    provenance_to_json,
    table_from_json,
    table_to_json,
)
from .geometry import (
    BoundaryCurve,
    CurveDescriptor,
    Disk,
    check_keys,
    descriptor_from_json,
    descriptor_to_json,
    json_number,
    sample,
)
from .materials import LameConstants, MaterialPair
from .reconstruct import (
    InversionError,
    ShapeEstimate,
    reconstruct,
    reconstruct_curve,
    shape_error,
    shape_estimate_to_json,
)
from .transmission import SolverError

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_config",
    "cmd_forward",
    "cmd_reconstruct",
    "cmd_roundtrip",
    "cmd_oracle",
    "main",
]


THETA_SAMPLES = 512
NODES = 256


class ConfigError(ValueError):
    """Configuration document or command line is invalid."""


@dataclass(frozen=True)
class RunConfig:
    materials: MaterialPair
    shape: CurveDescriptor
    order: int
    output_dir: Path
    nodes: int = NODES
    noise: NoiseModel | None = None

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ConfigError("order must be a positive integer")
        if self.nodes < 4 or self.nodes % 2:
            raise ConfigError("nodes must be an even integer >= 4")
        # as emt.emt_table: mode nodes/2 - 1 is lifted to the Nyquist mode
        if 2 * self.order + 4 > self.nodes:
            raise ConfigError(f"order {self.order} needs nodes >= {2 * self.order + 4}, "
                              f"got {self.nodes}")


def _lame_from_json(data: dict, label: str) -> LameConstants:
    try:
        check_keys(data, ("lambda", "mu"))
        return LameConstants(json_number(data["lambda"]), json_number(data["mu"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {label} material: {exc}") from exc


def _unique_keys(pairs: list) -> dict:
    if len(obj := dict(pairs)) < len(pairs):
        raise ValueError(f"repeated key {Counter(k for k, _ in pairs).most_common(1)[0][0]!r}")
    return obj


def _read_json(path: str | Path, what: str):
    """The one reader of the config and table documents; ``what`` names the
    document in the message of a file that cannot be read."""
    try:
        return json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # a decode error, of the JSON or of its bytes, or nesting too deep to parse
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc


def load_config(path: str | Path, *, order: int | None = None,
                nodes: int | None = None, noise_var: float | None = None,
                seed: int | None = None, out: str | None = None) -> RunConfig:
    """Parse a config file and apply the command-line overrides.

    Every field of the document is read, also where a flag replaces it.
    --noise-var and --seed replace the fields of the noise block; --noise-var
    alone, with no block, draws with seed 0.
    """
    raw = _read_json(path, "config")
    try:
        check_keys(raw, ("materials", "shape", "order", "nodes", "noise", "outputDir"))
        check_keys(raw["materials"], ("background", "inclusion"), "materials")
        materials = MaterialPair(*(_lame_from_json(raw["materials"][label], label)
                                   for label in ("background", "inclusion")))
        shape = descriptor_from_json(raw["shape"])
        cfg_order = json_number(raw["order"], integer=True)
        cfg_nodes = json_number(raw.get("nodes", NODES), integer=True)
        cfg_out = Path(raw["outputDir"])
        noise = None if raw.get("noise") is None else noise_from_json(raw["noise"], "noise")
        if noise_var is not None or seed is not None:
            if noise is None and noise_var is None:
                raise ConfigError("--seed given but no noise variance is configured")
            base = noise or NoiseModel(0.0, 0)
            noise = NoiseModel(base.sigma2 if noise_var is None else noise_var,
                               base.seed if seed is None else seed)
        return RunConfig(
            materials=materials,
            shape=shape,
            order=cfg_order if order is None else order,
            output_dir=cfg_out if out is None else Path(out),
            nodes=cfg_nodes if nodes is None else nodes,
            noise=noise,
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def _sample_shape(shape: CurveDescriptor, n: int) -> BoundaryCurve:
    try:
        return sample(shape, n)
    except ValueError as exc:
        raise ConfigError(f"shape cannot be sampled: {exc}") from exc


def _check_output_dir(config: RunConfig) -> None:
    """Fail before any work when the output directory cannot be made: the
    nearest existing path on its way up must be a directory.  Creates
    nothing, so a failed run leaves no output directory behind."""
    out = config.output_dir
    try:
        existing = next((path for path in (out, *out.parents) if path.exists()), None)
        if existing is None or existing.is_dir():
            return
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    raise ConfigError(f"cannot create output directory {out}: "
                      f"{existing} is not a directory")


def _write_text(path: Path, text: str) -> None:
    """The one writer of every output file; it makes the file's directory."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_json(path: Path, document: dict) -> None:
    _write_text(path, json.dumps(document, indent=2) + "\n")


def _write_boundary_csv(path: Path, samples: np.ndarray) -> None:
    count = samples.size
    lines = ["theta,x,y"]
    for j, z in enumerate(samples):
        theta = 2.0 * np.pi * j / count
        lines.append(f"{theta!r},{float(z.real)!r},{float(z.imag)!r}")
    _write_text(path, "\n".join(lines) + "\n")


def _svg_path(points: np.ndarray, digits: int) -> str:
    # SVG y axis points down; negate the imaginary part
    return " ".join(map(f"{{:.{digits}f}},{{:.{digits}f}}".format, points.real.tolist(),
                        (-points.imag).tolist()))


def _write_overlay_svg(path: Path, truth: np.ndarray, recon: np.ndarray) -> None:
    both = np.concatenate([truth, recon])
    x0, x1 = both.real.min(), both.real.max()
    y0, y1 = (-both.imag).min(), (-both.imag).max()
    span = max(x1 - x0, y1 - y0)
    margin = 0.05 * span
    view = (x0 - margin, y0 - margin, (x1 - x0) + 2 * margin, (y1 - y0) + 2 * margin)
    stroke = 0.008 * span
    # 4 significant digits of the span, and never fewer than 6 decimals
    d = max(6, 4 - math.floor(math.log10(span))) if 0.0 < span < math.inf else 6
    body = (
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{view[0]:.{d}f} {view[1]:.{d}f} {view[2]:.{d}f} {view[3]:.{d}f}">\n'
        f'  <polygon points="{_svg_path(truth, d)}" fill="none" '
        f'stroke="#999999" stroke-width="{stroke:.{d}f}"/>\n'
        f'  <polygon points="{_svg_path(recon, d)}" fill="none" '
        f'stroke="#000000" stroke-width="{stroke:.{d}f}"/>\n'
        f"</svg>\n"
    )
    _write_text(path, body)


def cmd_forward(config: RunConfig) -> EmtTable:
    """Solve the transmission problem; callers write the table once all their work is done."""
    curve = _sample_shape(config.shape, config.nodes)
    table = emt_table(curve, config.materials, config.order)
    if config.noise is not None:
        table = apply_noise(table, config.noise)
    return table


def cmd_reconstruct(config: RunConfig, table: EmtTable,
                    truth: BoundaryCurve) -> tuple[ShapeEstimate, np.ndarray]:
    """Invert a table; write estimate JSON, boundary CSV, and SVG overlay
    against the true boundary ``truth``, sampled at THETA_SAMPLES parameters.

    Returns the estimate and the recovered boundary samples.
    """
    order = min(config.order, table.order)
    estimate = reconstruct(table, config.materials, order)
    samples = reconstruct_curve(estimate, THETA_SAMPLES)
    out = config.output_dir
    _write_json(out / "shape_estimate.json", shape_estimate_to_json(estimate))
    _write_boundary_csv(out / "boundary.csv", samples)
    _write_overlay_svg(out / "overlay.svg", truth.z, samples)
    return estimate, samples


def cmd_roundtrip(config: RunConfig) -> dict:
    """forward -> optional noise -> reconstruct -> error report."""
    # a shape the comparison grid cannot resolve fails before any file is written
    truth = _sample_shape(config.shape, THETA_SAMPLES)
    table = cmd_forward(config)
    estimate, samples = cmd_reconstruct(config, table, truth)
    err = shape_error(samples, truth, center=estimate.disk.a0)
    report = {
        "shape": descriptor_to_json(config.shape),
        "order": min(config.order, table.order),
        "nodes": config.nodes,
        "noise": provenance_to_json(table.provenance),
        "estimate": shape_estimate_to_json(estimate),
        "error": {"hausdorff": err.hausdorff},
    }
    _write_json(config.output_dir / "emt_table.json", table_to_json(table))
    _write_json(config.output_dir / "report.json", report)
    return report


_ORACLE_CASES = [
    (0.0, 0.7), (0.0, 1.0), (0.0, 1.3),
    (-0.9 + 1.2j, 0.7), (-0.9 + 1.2j, 1.0), (-0.9 + 1.2j, 1.3),
]


def cmd_oracle() -> bool:
    """Compare Nystrom EMT tables against the disk closed forms; print a
    pass/fail matrix and return overall success."""
    background = LameConstants(1.5, 1.2)
    ok = True
    for label, inclusion in (("soft", LameConstants(0.6, 0.4)),
                             ("stiff", LameConstants(1.8, 1.5))):
        mat = MaterialPair(background, inclusion)
        for a0, gamma in _ORACLE_CASES:
            curve = sample(Disk(a0, gamma), 128)
            table = emt_table(curve, mat, 3)
            exact = disk_emt_table(mat, gamma, a0, 3)
            scale = np.abs(exact).max()
            gap = np.abs(table.values - exact).max() / scale
            passed = gap < 1e-8
            ok &= passed
            print(f"{'PASS' if passed else 'FAIL'}  {label:5s} disk a0={a0!s:12s} "
                  f"gamma={gamma:.1f}  max rel err {gap:.3e}")
    return ok


def _add_common_flags(parser: argparse.ArgumentParser, noise: bool = True) -> None:
    # without noise the noise flags still parse, so that main can reject them
    parser.add_argument("--order", type=int, help="override EMT order")
    parser.add_argument("--nodes", type=int, help="override quadrature node count")
    parser.add_argument("--noise-var", type=float, dest="noise_var",
                        help="override noise variance sigma^2" if noise else argparse.SUPPRESS)
    parser.add_argument("--seed", type=int,
                        help="override noise seed" if noise else argparse.SUPPRESS)
    parser.add_argument("--out", help="override output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emtshape",
        description="Contracted elastic moment tensors and analytic shape recovery",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_forward = sub.add_parser("forward", help="compute an EMT table from a shape")
    p_forward.add_argument("config")
    _add_common_flags(p_forward)
    p_rec = sub.add_parser("reconstruct", help="invert a stored EMT table")
    p_rec.add_argument("config")
    p_rec.add_argument("table")
    _add_common_flags(p_rec, noise=False)
    p_round = sub.add_parser("roundtrip", help="forward, invert, and report errors")
    p_round.add_argument("config")
    _add_common_flags(p_round)
    sub.add_parser("oracle", help="run the disk closed-form oracle suite")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "oracle":
            return 0 if cmd_oracle() else 1
        if args.command == "reconstruct":
            flags = [flag for flag, value in (("--noise-var", args.noise_var),
                                              ("--seed", args.seed)) if value is not None]
            if flags:
                raise ConfigError(f"reconstruct does not take {' or '.join(flags)}: "
                                  "the table document records its own noise")
        config = load_config(args.config, order=args.order, nodes=args.nodes,
                             noise_var=args.noise_var, seed=args.seed, out=args.out)
        if args.command != "forward" and config.order < 2:
            raise ConfigError("reconstruction needs order >= 2 (the disk fit uses "
                              "the order-2 entries)")
        _check_output_dir(config)
        if args.command == "forward":
            _write_json(config.output_dir / "emt_table.json", table_to_json(cmd_forward(config)))
        elif args.command == "reconstruct":
            document = _read_json(args.table, "table")
            try:
                table = table_from_json(document)
            except ValueError as exc:
                raise ConfigError(f"invalid table {args.table}: {exc}") from exc
            if table.order < 2:
                raise ConfigError(f"table {args.table} has order {table.order}; "
                                  "reconstruction needs order >= 2 (the disk fit uses "
                                  "the order-2 entries)")
            cmd_reconstruct(config, table, _sample_shape(config.shape, THETA_SAMPLES))
        else:
            cmd_roundtrip(config)
        return 0
    except (ConfigError, MemoryError) as exc:
        # a MemoryError here is an allocation the input sized beyond reach
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, InversionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
