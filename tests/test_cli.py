import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from emtshape import cli, transmission
from emtshape.disk import disk_emt_table
from emtshape.emt import NoiseModel
from emtshape.materials import LameConstants, MaterialPair

BASE_CONFIG = {
    "materials": {"background": {"lambda": 1.5, "mu": 1.2},
                  "inclusion": {"lambda": 0.6, "mu": 0.4}},
    "shape": {"kind": "perturbedDisk", "center": [0.0, 0.0], "radius": 1.0,
              "coefficients": [[0.0, 0.0], [0.0, 0.0], [0.02, 0.0]]},
    "order": 4,
    "nodes": 64,
    "noise": None,
    "outputDir": "out",
}


SOFT = MaterialPair(LameConstants(1.5, 1.2), LameConstants(0.6, 0.4))

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args, cwd):
    # the child runs in cwd, so the package path must be absolute
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "emtshape", *args],
                          cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def write_config(path, **overrides):
    config = {**BASE_CONFIG, **overrides}
    path.write_text(json.dumps(config))
    return config


def table_doc(order, value):
    """Exact table document with value(n, m, t, s) as its entries."""
    idx = range(1, order + 1)
    return {"order": order, "provenance": {"kind": "exact"},
            "entries": [{"n": n, "m": m, "t": t, "s": s, "value": value(n, m, t, s)}
                        for n in idx for m in idx for t in (1, 2) for s in (1, 2)]}


def unit_diagonal(n, m, t, s):
    return float(t == s and n == m)


def test_roundtrip_outputs(tmp_path):
    write_config(tmp_path / "config.json")
    result = run_cli("roundtrip", "config.json", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    out = tmp_path / "out"
    for name in ("emt_table.json", "shape_estimate.json", "boundary.csv",
                 "overlay.svg", "report.json"):
        assert (out / name).exists()

    report = json.loads((out / "report.json").read_text())
    assert list(report["error"]) == ["hausdorff"]
    assert report["error"]["hausdorff"] < 0.01
    assert abs(complex(*report["estimate"]["a0"])) < 0.01
    assert report["estimate"]["gamma"] == pytest.approx(1.0, abs=0.01)

    csv_lines = (out / "boundary.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "theta,x,y"
    assert len(csv_lines) == 1 + 512
    theta, x, y = (float(v) for v in csv_lines[1].split(","))
    assert theta == 0.0
    assert np.isfinite(x) and np.isfinite(y)

    svg = (out / "overlay.svg").read_text()
    assert "#999999" in svg and "#000000" in svg
    assert svg.count("<polygon") == 2


def test_overlay_svg_bytes(tmp_path):
    # y is negated for SVG, so -0.0 prints with its sign
    truth = np.array([1.0, 1j, -1.0, -1j])
    recon = np.array([0.5 + 0.25j, -1 / 3 + 0.25j, -0.5 + 2j / 3, 0.5 - 0.25j])
    cli._write_overlay_svg(tmp_path / "overlay.svg", truth, recon)
    assert (tmp_path / "overlay.svg").read_bytes() == (
        b'<svg xmlns="http://www.w3.org/2000/svg" '
        b'viewBox="-1.100000 -1.100000 2.200000 2.200000">\n'
        b'  <polygon points="1.000000,-0.000000 0.000000,-1.000000 -1.000000,-0.000000 '
        b'-0.000000,1.000000" fill="none" stroke="#999999" stroke-width="0.016000"/>\n'
        b'  <polygon points="0.500000,-0.250000 -0.333333,-0.250000 -0.500000,-0.666667 '
        b'0.500000,0.250000" fill="none" stroke="#000000" stroke-width="0.016000"/>\n'
        b"</svg>\n")


def test_overlay_svg_keeps_small_shapes(tmp_path):
    # a shape of radius 1e-7 keeps every point apart and a visible stroke
    truth = 1e-7 * np.exp(2j * np.pi * np.arange(512) / 512)
    recon = 1.01 * truth + 2e-9
    cli._write_overlay_svg(tmp_path / "overlay.svg", truth, recon)
    svg = (tmp_path / "overlay.svg").read_text()
    polygons = re.findall(r'points="([^"]*)"', svg)
    assert [len(set(points.split())) for points in polygons] == [512, 512]
    widths = re.findall(r'stroke-width="([^"]*)"', svg)
    assert len(widths) == 2 and all(float(width) > 0.0 for width in widths)


def test_roundtrip_deterministic(tmp_path):
    write_config(tmp_path / "config.json", noise={"sigma2": 0.02, "seed": 11})
    assert run_cli("roundtrip", "config.json", cwd=tmp_path).returncode == 0
    assert run_cli("roundtrip", "config.json", "--out", "out2", cwd=tmp_path).returncode == 0
    for name in ("emt_table.json", "shape_estimate.json", "boundary.csv",
                 "overlay.svg", "report.json"):
        first = (tmp_path / "out" / name).read_bytes()
        second = (tmp_path / "out2" / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"


def test_forward_then_reconstruct(tmp_path):
    write_config(tmp_path / "config.json")
    result = run_cli("forward", "config.json", "--noise-var", "0.05", "--seed", "3",
                     "--out", "fwd", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    table_doc = json.loads((tmp_path / "fwd" / "emt_table.json").read_text())
    assert table_doc["provenance"] == {"kind": "noisy", "sigma2": 0.05, "seed": 3}

    result = run_cli("reconstruct", "config.json", "fwd/emt_table.json",
                     "--out", "rec", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "rec" / "shape_estimate.json").exists()
    assert not (tmp_path / "rec" / "report.json").exists()


def test_reconstruct_inverts_at_most_the_table_order(tmp_path):
    # the README config's order-6 table inverted at --order 12 gives the
    # order-6 estimate, whose coeffs list records the order inverted at
    write_config(tmp_path / "config.json", order=6, nodes=256,
                 shape={"kind": "starfish", "center": [0.0, 0.0],
                        "modeAmplitude": 0.125, "modeIndex": 5})
    config = str(tmp_path / "config.json")
    assert cli.main(["forward", config, "--out", str(tmp_path / "fwd")]) == 0
    table = str(tmp_path / "fwd" / "emt_table.json")
    for order in ("6", "12"):
        argv = ["reconstruct", config, table, "--order", order, "--out", str(tmp_path / order)]
        assert cli.main(argv) == 0
    estimate = json.loads((tmp_path / "12" / "shape_estimate.json").read_text())
    assert len(estimate["coeffs"]) == 6
    for name in ("shape_estimate.json", "boundary.csv", "overlay.svg"):
        assert (tmp_path / "12" / name).read_bytes() == (tmp_path / "6" / name).read_bytes()


def test_flag_overrides(tmp_path):
    write_config(tmp_path / "config.json")
    result = run_cli("forward", "config.json", "--order", "2", "--nodes", "32",
                     "--out", "small", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    doc = json.loads((tmp_path / "small" / "emt_table.json").read_text())
    assert doc["order"] == 2
    assert len(doc["entries"]) == 2 * 2 * 2 * 2


def test_malformed_config_exits_2(tmp_path):
    (tmp_path / "config.json").write_text("{not json")
    result = run_cli("forward", "config.json", cwd=tmp_path)
    assert result.returncode == 2
    assert "configuration error" in result.stderr


def test_missing_config_exits_2(tmp_path):
    result = run_cli("forward", "absent.json", cwd=tmp_path)
    assert result.returncode == 2


@pytest.mark.parametrize("text", [b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000,
                                  b'{"shape": {"kind": "disk", "kind": "kite"}}'],
                         ids=["not-utf8", "deeply-nested", "repeated-nested-key"])
@pytest.mark.parametrize("command", ["forward", "reconstruct"])
def test_undecodable_document_exits_2(tmp_path, command, text):
    # forward reads the broken config, reconstruct the broken table
    if command == "forward":
        (tmp_path / "config.json").write_bytes(text)
    else:
        write_config(tmp_path / "config.json")
        (tmp_path / "table.json").write_bytes(text)
    args = ("config.json", "table.json") if command == "reconstruct" else ("config.json",)
    result = run_cli(command, *args, cwd=tmp_path)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("configuration error: malformed JSON in ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("overrides,flags,expected", [
    pytest.param({"noise": {"sigma2": 0.02, "seed": 11}}, {"noise_var": 0.5},
                 (4, 64, NoiseModel(0.5, 11)), id="noise-var-keeps-config-seed"),
    pytest.param({"noise": {"sigma2": 0.02, "seed": 11}}, {"seed": 3},
                 (4, 64, NoiseModel(0.02, 3)), id="seed-keeps-config-variance"),
    pytest.param({}, {"noise_var": 0.5}, (4, 64, NoiseModel(0.5, 0)), id="noise-var-alone"),
    pytest.param({"order": 32, "nodes": 64}, {"nodes": 128}, (32, 128, None),
                 id="nodes-flag-resolves-order"),
    pytest.param({"order": 6, "nodes": 64}, {"order": 31}, None, id="order-flag-aliased"),
    pytest.param({"noise": {"sigma2": "x", "seed": 1}}, {"noise_var": 0.5}, None,
                 id="malformed-block-with-noise-var"),
    pytest.param({"noise": [0.02, 11]}, {"noise_var": 0.5}, None,
                 id="list-block-with-noise-var"),
    pytest.param({"order": "six"}, {"order": 4}, None, id="malformed-order-with-flag"),
    pytest.param({"nodes": "many"}, {"nodes": 64}, None, id="malformed-nodes-with-flag"),
    pytest.param({}, {"seed": 3}, None, id="seed-without-noise"),
    pytest.param({}, {"noise_var": 0.01, "seed": -1}, None, id="negative-seed"),
    pytest.param({}, {"noise_var": float("inf")}, None, id="infinite-noise-var"),
])
def test_load_config_overrides(tmp_path, overrides, flags, expected):
    # every config field is read even where a flag replaces it
    write_config(tmp_path / "config.json", **overrides)
    if expected is None:
        with pytest.raises(cli.ConfigError):
            cli.load_config(tmp_path / "config.json", **flags)
        return
    config = cli.load_config(tmp_path / "config.json", **flags)
    assert (config.order, config.nodes, config.noise) == expected


@pytest.mark.parametrize("break_config", [
    lambda c: c.update(order=0),
    lambda c: c.update(nodes=33),
    lambda c: c["materials"]["background"].pop("mu"),
    lambda c: c.update(shape={"kind": "mystery"}),
    lambda c: c.update(shape={"kind": "starfish", "center": [0.0, 0.0],
                              "modeAmplitude": 1.0, "modeIndex": 1}),
    lambda c: c.pop("outputDir"),
    lambda c: c["materials"]["inclusion"].update({"lambda": 1.8, "mu": 1e400}),
    lambda c: c["materials"]["inclusion"].update({"lambda": 1e400, "mu": 1.5}),
    lambda c: c.update(order=1e400),
    lambda c: c.update(nodes=1e400),
    lambda c: c.update(thetaSamples=512),
    lambda c: c.update(noise={"sigma2": 0.01, "seed": 1e400}),
    lambda c: c.update(noise={"sigma2": 0.01, "seed": -1}),
    lambda c: c.update(shape={"kind": "starfish", "center": [0.0, 0.0],
                              "modeAmplitude": 0.1, "modeIndex": 1e400}),
    lambda c: c.update(shape={"kind": "fourierCurve", "minIndex": 1e400,
                              "coefficients": [[1.0, 0.0]]}),
    lambda c: c.update(shape={"kind": "disk", "center": [1e400, 0.0], "radius": 1.0}),
    lambda c: c.update(order=2.7),
    lambda c: c.update(order=True),
    lambda c: c.update(nodes=64.9),
    lambda c: c["materials"]["background"].update({"lambda": "1.5"}),
    lambda c: c.update(shape={"kind": "disk", "center": "12", "radius": 1.0}),
    lambda c: c.update(noise={"sigma2": 0.01, "seed": 3.9}),
    lambda c: c.update(shape={"kind": "starfish", "center": [0.0, 0.0],
                              "modeAmplitude": 0.1, "modeIndex": 5.5}),
    lambda c: c.update(shape={"kind": "fourierCurve", "minIndex": 0.5,
                              "coefficients": [[0.0, 0.0], [1.0, 0.0]]}),
    lambda c: c.update(shape={"kind": "starfish", "center": [0.0, 0.0],
                              "modeAmplitude": 0.1, "modeIndex": 40}),
    lambda c: c.update(order=32, nodes=64),
    lambda c: c.update(shape={"kind": "disk", "center": [0.0, 0.0], "radius": 1.0,
                              "radiuss": 2.0}),
    lambda c: c.update(shape={"kind": "fourierCurve", "minindex": 1,
                              "coefficients": [[1.0, 0.0], [0.1, 0.0]]}),
    lambda c: c["materials"].update(matrix={"lambda": 1.5, "mu": 1.2}),
    lambda c: c["materials"]["background"].update(nu=3),
    lambda c: c.update(noise={"sigma2": 0.01, "seed": 1, "sigma": 0.1}),
    lambda c: c.update(order=31, nodes=64),
])
def test_invalid_config_exits_2(tmp_path, break_config):
    config = {**BASE_CONFIG}
    config["materials"] = {k: dict(v) for k, v in config["materials"].items()}
    break_config(config)
    (tmp_path / "config.json").write_text(json.dumps(config))
    result = run_cli("forward", "config.json", cwd=tmp_path)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command,overrides,code", [
    pytest.param("roundtrip", {"order": 1}, 2, id="roundtrip-order-1"),
    pytest.param("reconstruct", {"order": 1}, 2, id="reconstruct-order-1"),
    pytest.param("forward", {"order": 1}, 0, id="forward-order-1"),
    pytest.param("reconstruct", {
        "materials": {"background": {"lambda": 1.5, "mu": 1.2},
                      "inclusion": {"lambda": 1.8, "mu": 1.5}},
        "shape": {"kind": "starfish", "center": [0.0, 0.0],
                  "modeAmplitude": 1.0, "modeIndex": 1},
    }, 2, id="reconstruct-unsampleable-shape"),
    # far beyond any address space, so the allocation fails at once
    pytest.param("roundtrip", {"nodes": 10**16}, 2, id="roundtrip-unallocatable-nodes"),
    # mode 256 is resolved by the 514 solver nodes but not by the 512
    # comparison samples, so the run must fail before the forward table is written
    pytest.param("roundtrip", {
        "order": 2, "nodes": 514,
        "shape": {"kind": "starfish", "center": [0.0, 0.0],
                  "modeAmplitude": 0.0005, "modeIndex": 255},
    }, 2, id="roundtrip-unresolved-truth"),
    # the noise makes E^(1,1)_11 negative, so the inversion fails after the forward solve
    pytest.param("roundtrip", {"noise": {"sigma2": 0.05, "seed": 34481}}, 1,
                 id="roundtrip-failed-inversion"),
])
def test_config_contract(tmp_path, command, overrides, code):
    write_config(tmp_path / "config.json", **overrides)
    (tmp_path / "table.json").write_text(json.dumps(table_doc(2, unit_diagonal)))
    args = ("config.json", "table.json") if command == "reconstruct" else ("config.json",)
    result = run_cli(command, *args, cwd=tmp_path)
    assert result.returncode == code, result.stderr
    assert "Traceback" not in result.stderr
    if code:
        assert not (tmp_path / "out").exists()


def test_order_1_table_exits_2(tmp_path):
    # the disk fit needs the order-2 entries, whatever order the config asks for
    write_config(tmp_path / "config.json", order=6)
    (tmp_path / "table.json").write_text(json.dumps(table_doc(1, unit_diagonal)))
    result = run_cli("reconstruct", "config.json", "table.json", cwd=tmp_path)
    assert result.returncode == 2, result.stderr
    assert "configuration error: table table.json has order 1" in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out").exists()


def test_seed_without_variance_exits_2(tmp_path):
    write_config(tmp_path / "config.json")
    result = run_cli("forward", "config.json", "--seed", "4", cwd=tmp_path)
    assert result.returncode == 2
    assert "seed" in result.stderr


def test_negative_seed_flag_exits_2(tmp_path):
    write_config(tmp_path / "config.json")
    result = run_cli("forward", "config.json", "--noise-var", "0.01", "--seed", "-1",
                     cwd=tmp_path)
    assert result.returncode == 2, result.stderr
    assert "seed" in result.stderr


@pytest.mark.parametrize("flags,noise", [
    pytest.param(("--noise-var", "0.5"), None, id="noise-var"),
    pytest.param(("--noise-var", "0.5", "--seed", "3"), None, id="noise-var-and-seed"),
    pytest.param(("--seed", "3"), {"sigma2": 0.02, "seed": 11}, id="seed-with-noise-block"),
])
def test_reconstruct_rejects_noise_flags(tmp_path, flags, noise):
    # the table document carries its own provenance, so a noise flag would be ignored
    write_config(tmp_path / "config.json", noise=noise)
    (tmp_path / "table.json").write_text(json.dumps(table_doc(2, unit_diagonal)))
    result = run_cli("reconstruct", "config.json", "table.json", *flags, cwd=tmp_path)
    assert result.returncode == 2, result.stderr
    assert "configuration error" in result.stderr
    assert flags[0] in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["forward", "reconstruct", "roundtrip"])
def test_noise_flags_listed_where_accepted(capsys, command):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([command, "--help"])
    # reconstruct still parses them, to reject them (test_reconstruct_rejects_noise_flags)
    shown = capsys.readouterr().out
    assert [flag in shown for flag in ("--noise-var", "--seed")] == [command != "reconstruct"] * 2


def test_contradictory_table_exits_1(tmp_path):
    write_config(tmp_path / "config.json")
    (tmp_path / "table.json").write_text(json.dumps(table_doc(2, lambda *_: 1.0)))
    result = run_cli("reconstruct", "config.json", "table.json", cwd=tmp_path)
    assert result.returncode == 1
    assert "numerical failure" in result.stderr


def overflowing_table():
    # gamma ~ 1e100, so the centered disk moments gamma^(n+m) overflow
    return table_doc(2, lambda n, m, t, s: (-1e200 if n == 1 else -1.0)
                     if (n == m and t == s) else 0.0)


def far_centered_table():
    # E^(1,1)_12 = 1e60 puts a0 near -3e58; the recentered order-6 table is not finite
    values = disk_emt_table(SOFT, 1.0, 0.0, 6)
    return table_doc(6, lambda n, m, t, s: 1e60 if (t, s) == (1, 1) and {n, m} == {1, 2}
                     else float(values[n - 1, m - 1, t - 1, s - 1]))


def overflowing_gamma_table():
    # M0 ~ 1e-16 for the near-matched pair, so E^(1,1)_11 / M0 and gamma are infinite
    return table_doc(2, lambda n, m, t, s: 1e300 if (n, m, t, s) == (1, 1, 1, 1) else 0.0)


NEAR_MATCHED = {"background": {"lambda": 1.5, "mu": 1.2},
                "inclusion": {"lambda": 1.5, "mu": 1.2000000000000002}}


@pytest.mark.parametrize("make_table,materials", [
    pytest.param(overflowing_table, BASE_CONFIG["materials"], id="overflowing_table"),
    pytest.param(far_centered_table, BASE_CONFIG["materials"], id="far_centered_table"),
    pytest.param(overflowing_gamma_table, NEAR_MATCHED, id="overflowing_gamma_table"),
])
def test_non_finite_inversion_exits_1(tmp_path, make_table, materials):
    write_config(tmp_path / "config.json", order=6, materials=materials)
    (tmp_path / "table.json").write_text(json.dumps(make_table()))
    result = run_cli("reconstruct", "config.json", "table.json", cwd=tmp_path)
    assert result.returncode == 1, result.stderr
    assert "numerical failure" in result.stderr
    assert "Traceback" not in result.stderr
    assert "Warning" not in result.stderr
    assert not (tmp_path / "out" / "shape_estimate.json").exists()


def test_singular_system_exits_1(tmp_path, monkeypatch, capsys):
    def singular(psi, phi, *args):
        # every density column of the system is zero
        psi[...] = phi[...] = 0.0

    def no_svd(*args, **kwargs):
        raise AssertionError("a singular system is reported without its condition number")

    monkeypatch.setattr(transmission, "_write_panel", singular)
    monkeypatch.setattr(np.linalg, "cond", no_svd)
    argv = ["forward", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]
    # the default shape, whose real mode 2 gives it two mirror axes, solves
    # four blocks, the complex mode the full system; numpy's LAPACK in
    # place, then np.linalg.solve where no dgesv is found
    lapack = transmission._lapack_dgesv
    for mode in ([0.02, 0.0], [0.02, 0.01]):
        write_config(tmp_path / "config.json",
                     shape={**BASE_CONFIG["shape"], "coefficients": [[0.0, 0.0], [0.0, 0.0], mode]})
        for lookup in (lapack, lambda: None):
            monkeypatch.setattr(transmission, "_lapack_dgesv", lookup)
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("numerical failure: transmission system singular")
            assert "Traceback" not in err
            assert not (tmp_path / "out" / "emt_table.json").exists()


@pytest.mark.parametrize("command,radius,flags", [
    # z^12 on a disk of radius 1e14 overflows in the table's pairing
    pytest.param("forward", 1e14, (), id="forward"),
    pytest.param("roundtrip", 1e14, (), id="roundtrip"),
    # the exact table (entries up to 1e192) is finite; the noise factors
    # (about 1e150) make it overflow
    pytest.param("forward", 1e8, ("--noise-var", "1e300", "--seed", "1"), id="forward-noisy"),
    pytest.param("roundtrip", 1e8, ("--noise-var", "1e300", "--seed", "1"),
                 id="roundtrip-noisy"),
    # z times dz overflows, so sampling must orient the curve without forming it
    pytest.param("forward", 1e160, (), id="forward-huge-disk"),
])
def test_overflowing_table_exits_1(tmp_path, command, radius, flags):
    write_config(tmp_path / "config.json", order=12,
                 shape={"kind": "disk", "center": [0, 0], "radius": radius})
    result = run_cli(command, "config.json", *flags, cwd=tmp_path)
    assert result.returncode == 1, result.stderr
    assert result.stderr.startswith("numerical failure: ")
    assert "Traceback" not in result.stderr
    assert "Warning" not in result.stderr
    assert not (tmp_path / "out" / "emt_table.json").exists()


@pytest.mark.parametrize("command,out", [("forward", "afile"), ("roundtrip", "afile/sub")])
def test_uncreatable_output_dir_exits_2(tmp_path, command, out):
    write_config(tmp_path / "config.json")
    (tmp_path / "afile").touch()
    result = run_cli(command, "config.json", "--out", out, cwd=tmp_path)
    assert result.returncode == 2, result.stderr
    assert f"configuration error: cannot create output directory {out}" in result.stderr
    assert "Traceback" not in result.stderr
    assert (tmp_path / "afile").is_file()
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,out", [("forward", "afile"), ("roundtrip", "afile/sub")])
def test_unusable_output_dir_fails_before_the_solve(tmp_path, monkeypatch, command, out):
    write_config(tmp_path / "config.json")
    (tmp_path / "afile").touch()

    def no_solve(*args, **kwargs):
        raise AssertionError("the forward solve ran")

    monkeypatch.setattr(cli, "emt_table", no_solve)
    argv = [command, str(tmp_path / "config.json"), "--out", str(tmp_path / out)]
    assert cli.main(argv) == 2
    assert (tmp_path / "afile").is_file()


@pytest.mark.parametrize("command,blocked", [("forward", "emt_table.json"),
                                             ("reconstruct", "boundary.csv")])
def test_unwritable_output_file_exits_2(tmp_path, command, blocked):
    write_config(tmp_path / "config.json")
    values = disk_emt_table(SOFT, 1.0, 0.0, 2)
    doc = table_doc(2, lambda n, m, t, s: float(values[n - 1, m - 1, t - 1, s - 1]))
    (tmp_path / "table.json").write_text(json.dumps(doc))
    (tmp_path / "out" / blocked).mkdir(parents=True)
    args = ("config.json", "table.json") if command == "reconstruct" else ("config.json",)
    result = run_cli(command, *args, cwd=tmp_path)
    assert result.returncode == 2, result.stderr
    assert f"configuration error: cannot write {Path('out', blocked)}" in result.stderr
    assert "Traceback" not in result.stderr


def test_invalid_table_schema_exits_2(tmp_path):
    write_config(tmp_path / "config.json")
    (tmp_path / "table.json").write_text(json.dumps({"order": 2, "entries": []}))
    result = run_cli("reconstruct", "config.json", "table.json", cwd=tmp_path)
    assert result.returncode == 2


@pytest.mark.parametrize("break_table", [
    lambda doc: doc.update(order=1e400),
    lambda doc: doc["entries"][0].update(n=1e400),
    lambda doc: doc.update(provenance={"kind": "noisy", "sigma2": 0.01}),
    lambda doc: doc.update(provenance="exact"),
    lambda doc: doc.update(entries=5),
    lambda doc: doc.update(order=10**7, entries=[]),
    lambda doc: doc.update(order=2.5),
    lambda doc: doc["entries"][0].update(t=1.7),
    lambda doc: doc["entries"][0].update(value="1.0"),
    lambda doc: doc.update(provenance={"kind": "noisy", "sigma2": 0.01, "seed": 2.5}),
    lambda doc: doc.update(note="exact"),
])
def test_invalid_table_exits_2(tmp_path, break_table):
    write_config(tmp_path / "config.json")
    doc = table_doc(2, unit_diagonal)
    break_table(doc)
    (tmp_path / "table.json").write_text(json.dumps(doc))
    result = run_cli("reconstruct", "config.json", "table.json", cwd=tmp_path)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("config,table,message", [
    pytest.param({"noise": {"sigma2": 0.01, "seed": 1, "sigma": 0.1}}, {},
                 "invalid config: noise: unknown keys: sigma", id="config-noise"),
    pytest.param({"materials": {**BASE_CONFIG["materials"],
                                "matrix": {"lambda": 1.5, "mu": 1.2}}}, {},
                 "invalid config: materials: unknown keys: matrix", id="config-materials"),
    pytest.param({}, {"provenance": {"kind": "exact", "seed": 3}},
                 "malformed EMT table document: provenance: unknown keys: seed",
                 id="exact-provenance"),
    pytest.param({}, {"provenance": {"kind": "noisy", "sigma2": 0.01, "seed": 3,
                                     "sigma": 0.1}},
                 "malformed EMT table document: provenance: unknown keys: sigma",
                 id="noisy-provenance"),
])
def test_nested_unknown_key_names_its_object(tmp_path, config, table, message):
    write_config(tmp_path / "config.json", **config)
    (tmp_path / "table.json").write_text(json.dumps({**table_doc(2, unit_diagonal), **table}))
    result = run_cli("reconstruct", "config.json", "table.json", cwd=tmp_path)
    assert result.returncode == 2, result.stderr
    assert message in result.stderr


def test_oracle_suite_passes(tmp_path):
    result = run_cli("oracle", cwd=tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = [l for l in result.stdout.splitlines() if l.strip()]
    assert len(lines) == 12
    assert all(line.startswith("PASS") for line in lines)
