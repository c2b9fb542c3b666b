"""The three closed-loop workloads, their seeded inputs and output checks.

Each workload has ``setup(api, work_dir)`` (generates inputs and any
precomputed table), ``op(i) -> (latency_s, output)`` that times only the
call into emtshape, ``check(i, output)`` that raises ``CheckFailed`` on a
wrong output, and ``quality()`` giving the accuracy metrics.  ``api`` holds
the emtshape modules; every call goes through a module attribute so the
tracer's wrappers see it.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np

BACKGROUND = (1.5, 1.2)
SOFT = (0.6, 0.4)
STIFF = (1.8, 1.5)
INVERSE_SIGMA2 = 1e-4    # inverse_noise: noise variance of each op's draw
THETA_SAMPLES = 512      # inverse_noise: points of recovered and true boundary
ROUNDTRIP_SIGMA2 = 0.05  # roundtrip_cli: noise variance in every config
SYMMETRY_TOL = 1e-8
ORACLE_TOL = 1e-8
ROUNDTRIP_FILES = ("emt_table.json", "shape_estimate.json", "boundary.csv",
                   "overlay.svg", "report.json")


class CheckFailed(Exception):
    """An operation returned a wrong output."""


SHAPE_KINDS = ("starfish", "kite", "ellipse", "perturbedDisk")


def random_shape(rng: np.random.Generator, kind: str, angle: float) -> dict:
    """A smooth shape of the given kind as a config ``shape`` document.

    The center lies 0.4 from the origin, within 0.1 rad of ``angle``; mode
    phases stay within 0.1 rad and the other parameters within 0.5% of
    fixed values.  The error of the exact-table inversion does not depend
    on the center, and the noise gain of the recentering depends mostly on
    where the center lies, so each seed gives other inputs of the same
    difficulty and the Hausdorff medians move little with the seed.
    """
    angle += rng.uniform(-0.1, 0.1)
    center = [0.4 * math.cos(angle), 0.4 * math.sin(angle)]

    def near(value: float) -> float:
        return value * rng.uniform(0.995, 1.005)

    if kind == "starfish":
        return {"kind": kind, "center": center, "modeAmplitude": near(0.05), "modeIndex": 5}
    if kind == "kite":
        return {"kind": kind, "center": center, "coefficient": near(0.3)}
    if kind == "ellipse":
        return {"kind": kind, "center": center, "semiAxisA": near(1.1), "semiAxisB": near(0.9)}
    modes = [[0.0, 0.0], [0.0, 0.0]]
    for k in range(2, 6):
        phase = k + rng.uniform(-0.1, 0.1)
        modes.append([0.02 / k * math.cos(phase), 0.02 / k * math.sin(phase)])
    return {"kind": kind, "center": center, "radius": near(1.0), "coefficients": modes}


def shape_pool(rng: np.random.Generator, count: int) -> list[dict]:
    """``count`` shapes cycling through SHAPE_KINDS, centers spread around
    the origin."""
    return [random_shape(rng, SHAPE_KINDS[k % len(SHAPE_KINDS)], 2.0 * math.pi * k / count)
            for k in range(count)]


def materials(api, inclusion):
    lame = api.materials.LameConstants
    return api.materials.MaterialPair(lame(*BACKGROUND), lame(*inclusion))


def transpose_gap(values: np.ndarray) -> float:
    """max |E^{(t,s)}_{nm} - E^{(s,t)}_{mn}| / max |E|."""
    values = np.asarray(values)
    return float(np.abs(values - values.transpose(1, 0, 3, 2)).max() / np.abs(values).max())


def median(values) -> float:
    """Median of ``values``; NaN when every op failed and there are none."""
    return float(np.median(values)) if len(values) else math.nan


def table_digits(gap: float) -> float:
    return -math.log10(max(gap, 1e-16))


def check_table(values: np.ndarray) -> float:
    """Finite and transpose-symmetric to SYMMETRY_TOL; returns the gap."""
    if not np.all(np.isfinite(values)):
        raise CheckFailed("table has non-finite entries")
    gap = transpose_gap(values)
    if not gap <= SYMMETRY_TOL:
        raise CheckFailed(f"table transpose gap {gap:.3e} > {SYMMETRY_TOL:g}")
    return gap


def check_estimate(est, samples: np.ndarray, hausdorff: float) -> None:
    parts = [est.disk.a0, est.disk.gamma, *est.coeffs, *samples, hausdorff]
    if not np.all(np.isfinite(np.asarray(parts, dtype=complex))):
        raise CheckFailed("inverse result has non-finite values")


def oracle_gap(api) -> float:
    """Worst relative gap of an off-center disk table (soft and stiff, N=128,
    order 3) against the closed form ``disk_emt_general``."""
    a0, gamma, order = -0.9 + 1.2j, 1.0, 3
    curve = api.geometry.sample(api.geometry.Disk(a0, gamma), 128)
    worst = 0.0
    for inclusion in (SOFT, STIFF):
        mat = materials(api, inclusion)
        table = api.emt.emt_table(curve, mat, order)
        exact = np.array([[[[api.disk.disk_emt_general(mat, gamma, a0, n, m, t, s)
                             for s in (1, 2)] for t in (1, 2)]
                           for m in range(1, order + 1)] for n in range(1, order + 1)])
        worst = max(worst, float(np.abs(table.values - exact).max() / np.abs(exact).max()))
    return worst


class ForwardContrast:
    """Fresh shape per op at N=512; order-12 tables for two contrasts."""

    name = "forward_contrast"

    def __init__(self, seed: int, nodes: int = 512, order: int = 12, pool: int = 64):
        self.seed, self.nodes, self.order, self.pool = seed, nodes, order, pool

    def setup(self, api, work_dir: Path) -> None:
        self.api = api
        rng = np.random.default_rng([self.seed, 1])
        self.inputs = shape_pool(rng, self.pool)
        self.shapes = [api.geometry.descriptor_from_json(doc) for doc in self.inputs]
        self.mats = [materials(api, SOFT), materials(api, STIFF)]
        self.digits: list[float] = []
        self.checked: list[tuple[int, object]] = []

    def op(self, i: int):
        shape = self.shapes[i % self.pool]
        t0 = perf_counter()
        curve = self.api.geometry.sample(shape, self.nodes)
        tables = [self.api.emt.emt_table(curve, mat, self.order) for mat in self.mats]
        return perf_counter() - t0, tables

    def check(self, i: int, tables) -> None:
        gap = max(check_table(table.values) for table in tables)
        self.digits.append(table_digits(gap))
        self.checked.append((i, tables))

    def quality(self) -> dict:
        """Median digits over ops; median Hausdorff error of the checked
        tables' order-``order`` reconstructions, computed after timing over
        whole cycles of the shape kinds so that each kind counts equally."""
        rec = self.api.reconstruct
        errors = []
        cycles = len(self.checked) // len(SHAPE_KINDS) * len(SHAPE_KINDS)
        for i, tables in self.checked[:cycles or None]:
            truth = self.api.geometry.sample(self.shapes[i % self.pool], 512)
            for mat, table in zip(self.mats, tables):
                est = rec.reconstruct(table, mat, self.order)
                samples = rec.reconstruct_curve(est, 512)
                errors.append(rec.shape_error(samples, truth, center=est.disk.a0).hausdorff)
        return {"table_digits": median(self.digits), "hausdorff_median": median(errors)}


class InverseNoise:
    """One exact order-24 table of an off-center starfish built at set-up;
    each op draws fresh noise and inverts at orders 6, 12 and 24.

    The starfish's center moves only within 0.1 rad of a fixed direction,
    since its orientation against the center changes the noise gain of the
    recentering; the seed mostly picks the noise draws."""

    name = "inverse_noise"

    def __init__(self, seed: int, nodes: int = 512, orders=(6, 12, 24)):
        self.seed, self.nodes, self.orders = seed, nodes, tuple(orders)

    def setup(self, api, work_dir: Path) -> None:
        self.api = api
        rng = np.random.default_rng([self.seed, 2])
        angle = 1.0 + rng.uniform(-0.1, 0.1)
        starfish = {"kind": "starfish", "center": [0.5 * math.cos(angle), 0.5 * math.sin(angle)],
                    "modeAmplitude": 0.08, "modeIndex": 5}
        self.noise_base = int(rng.integers(2**31))
        self.inputs = {"shape": starfish, "noiseSeedBase": self.noise_base}
        shape = api.geometry.descriptor_from_json(starfish)
        self.mat = materials(api, SOFT)
        self.truth = api.geometry.sample(shape, THETA_SAMPLES)
        curve = api.geometry.sample(shape, self.nodes)
        self.table = api.emt.emt_table(curve, self.mat, max(self.orders))
        self.errors: list[float] = []

    def op(self, i: int):
        api = self.api
        noise = api.emt.NoiseModel(INVERSE_SIGMA2, self.noise_base + i)
        t0 = perf_counter()
        noisy = api.emt.apply_noise(self.table, noise)
        out = []
        for order in self.orders:
            est = api.reconstruct.reconstruct(noisy, self.mat, order)
            samples = api.reconstruct.reconstruct_curve(est, THETA_SAMPLES)
            err = api.reconstruct.shape_error(samples, self.truth, center=est.disk.a0)
            out.append((est, samples, err.hausdorff))
        return perf_counter() - t0, out

    def check(self, i: int, out) -> None:
        for est, samples, hausdorff in out:
            check_estimate(est, samples, hausdorff)
        self.errors.extend(h for _, _, h in out)

    def quality(self) -> dict:
        return {"table_digits": table_digits(transpose_gap(self.table.values)),
                "hausdorff_median": median(self.errors)}


class RoundtripCli:
    """``emtshape roundtrip`` in-process at the README's default size."""

    name = "roundtrip_cli"

    def __init__(self, seed: int, nodes: int = 256, order: int = 6, pool: int = 8):
        self.seed, self.nodes, self.order, self.pool = seed, nodes, order, pool

    def setup(self, api, work_dir: Path) -> None:
        self.api, self.work_dir = api, work_dir
        rng = np.random.default_rng([self.seed, 3])
        self.inputs = [{
            "materials": {"background": {"lambda": BACKGROUND[0], "mu": BACKGROUND[1]},
                          "inclusion": {"lambda": SOFT[0], "mu": SOFT[1]}},
            "shape": shape,
            "order": self.order,
            "nodes": self.nodes,
            "noise": {"sigma2": ROUNDTRIP_SIGMA2, "seed": 0},
            "outputDir": "out",
        } for shape in shape_pool(rng, self.pool)]
        self.configs = []
        work_dir.mkdir(parents=True, exist_ok=True)
        for k, doc in enumerate(self.inputs):
            path = work_dir / f"config{k}.json"
            path.write_text(json.dumps(doc))
            self.configs.append(path)
        self.errors: list[float] = []
        self.output_bytes: list[int] = []

    def noise_seed(self, i: int) -> int:
        """Op i's noise seed: the same for every run seed, so that runs with
        different shapes share their noise draws and the Hausdorff median
        varies less between them.  Seeds whose draw flips the sign of the
        leading entry E^(1,1)_11, i.e. multiplies it by 1 + g <= 0
        (``apply_noise`` draws it first), are skipped: the CLI rightly
        rejects such a table with exit 1, and that is not the path measured
        here."""
        seed = 7919 * i
        while np.random.default_rng(seed).normal(0.0, math.sqrt(ROUNDTRIP_SIGMA2)) <= -1.0:
            seed += 1
        return seed

    def op(self, i: int):
        out = self.work_dir / f"op{i}"
        argv = ["roundtrip", str(self.configs[i % self.pool]),
                "--seed", str(self.noise_seed(i)), "--out", str(out)]
        t0 = perf_counter()
        code = self.api.cli.main(argv)
        return perf_counter() - t0, (code, out)

    def check(self, i: int, result) -> None:
        code, out = result
        try:
            if code != 0:
                raise CheckFailed(f"roundtrip exited with {code}")
            missing = [f for f in ROUNDTRIP_FILES if not (out / f).is_file()]
            if missing:
                raise CheckFailed(f"roundtrip did not write {missing}")
            try:
                report = json.loads((out / "report.json").read_text())
                hausdorff = float(report["error"]["hausdorff"])
            except (ValueError, KeyError, TypeError) as exc:
                raise CheckFailed(f"report.json does not parse: {exc}") from exc
            if not math.isfinite(hausdorff):
                raise CheckFailed("report.json has a non-finite Hausdorff error")
            self.errors.append(hausdorff)
            self.output_bytes.append(sum((out / f).stat().st_size for f in ROUNDTRIP_FILES))
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def quality(self) -> dict:
        """Hausdorff median over ops; transpose digits of the exact tables of
        the configs' shapes (the op's own table is noisy), built after timing."""
        api, gaps = self.api, []
        for doc in self.inputs:
            curve = api.geometry.sample(api.geometry.descriptor_from_json(doc["shape"]), self.nodes)
            gaps.append(transpose_gap(api.emt.emt_table(curve, materials(api, SOFT), self.order).values))
        return {"table_digits": median([table_digits(g) for g in gaps]),
                "hausdorff_median": median(self.errors)}


WORKLOADS = {w.name: w for w in (ForwardContrast, InverseNoise, RoundtripCli)}
