import json
import math
import warnings

import numpy as np
import pytest

from emtshape.geometry import (
    Disk,
    Ellipse,
    FourierCurve,
    Kite,
    PerturbedDisk,
    Starfish,
    descriptor_from_json,
    descriptor_to_json,
    fourier_series,
    json_number,
    sample,
)


def nodes(n):
    return 2.0 * math.pi * np.arange(n) / n


@pytest.mark.parametrize("n", [3, 5, 2, 0, -4])
def test_node_count_validation(n):
    with pytest.raises(ValueError, match="even"):
        sample(Disk(0.0, 1.0), n)


def test_disk_sampling_exact():
    curve = sample(Disk(1.0 - 2.0j, 0.7), 32)
    theta = nodes(32)
    assert np.allclose(curve.z, 1.0 - 2.0j + 0.7 * np.exp(1j * theta))
    assert np.allclose(curve.dz, 0.7j * np.exp(1j * theta))
    assert curve.weight.sum() == pytest.approx(2.0 * math.pi * 0.7, rel=1e-14)


def test_orientation_normalized():
    # e^{-i theta} runs clockwise; sampling must flip it
    cw = FourierCurve((1.0,), min_index=-1)
    curve = sample(cw, 16)
    area = 0.5 * (2.0 * math.pi / curve.n) * float(np.imag(np.conj(curve.z) @ curve.dz))
    assert area > 0.0
    assert np.allclose(np.abs(curve.z), 1.0)


def test_self_intersecting_curve_rejected():
    # limacon with an inner loop: r = 1 + 2 cos(theta)
    with pytest.raises(ValueError, match="not simple"):
        sample(Starfish(0.0, 1.0, 1), 64)


@pytest.mark.parametrize("scale", [1e-200, 1e160, 1e300])
def test_orientation_normalized_at_any_scale(scale):
    # sum conj(z) dz underflows or overflows at these scales; the sign of the
    # area must not, or a clockwise disk would fail the winding test
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = sample(FourierCurve((scale,), min_index=-1), 16)
    assert np.allclose(curve.z / scale, np.exp(1j * nodes(16)))


def test_huge_self_intersecting_curve_rejected_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not simple"):
            sample(PerturbedDisk(0.0, 1.0, (0.0, 1e200)), 64)


def test_degenerate_speed_rejected():
    # a constant curve, and a cusp whose speed vanishes at the node theta = pi
    for descriptor in (FourierCurve((1.0,), min_index=0), FourierCurve((0.0, 1.0, 0.5))):
        with pytest.raises(ValueError, match="speed"):
            sample(descriptor, 16)


def test_tiny_curve_sampled_like_unit_curve():
    # the speed test is relative, so a curve is accepted at any scale
    tiny, unit = sample(Disk(0.0, 1e-13), 64), sample(Disk(0.0, 1.0), 64)
    assert np.max(np.abs(tiny.z - 1e-13 * unit.z)) <= 1e-28


def test_ellipse_perimeter_spectral_convergence():
    # 4:1 aspect ratio; branch points of the speed cap the geometric rate, so
    # the doubling gap reaches 1e-12 one refinement later than for mild shapes
    ellipse = Ellipse(0.0, 4.0, 1.0)
    p64 = sample(ellipse, 64).weight.sum()
    p128 = sample(ellipse, 128).weight.sum()
    p256 = sample(ellipse, 256).weight.sum()
    assert abs(p128 - p64) < 1e-7
    assert abs(p256 - p128) < 1e-12


def test_kite_matches_formula():
    kite = Kite(0.6 + 0.8j, 0.65)
    curve = sample(kite, 16)
    theta = nodes(16)
    assert np.allclose(curve.z, 0.6 + 0.8j + np.exp(1j * theta) + 0.65 * np.cos(2 * theta))


def test_starfish_profile():
    star = Starfish(0.0, 0.125, 5)
    curve = sample(star, 64)
    radii = np.abs(curve.z)
    assert np.allclose(radii, 1.0 + 0.25 * np.cos(5 * nodes(64)))


def test_perturbed_disk_zero_modes_is_disk():
    plain = sample(Disk(0.2 - 0.1j, 1.1), 32)
    perturbed = sample(PerturbedDisk(0.2 - 0.1j, 1.1, (0.0, 0.0)), 32)
    assert np.allclose(plain.z, perturbed.z)
    assert np.allclose(plain.dz, perturbed.dz)


def test_perturbed_disk_single_mode():
    d = PerturbedDisk(0.0, 1.0, (0.0, 0.0, 0.0, 0.02))
    curve = sample(d, 64)
    assert np.allclose(np.abs(curve.z), 1.0 + 0.04 * np.cos(3 * nodes(64)))


DESCRIPTORS = [
    Disk(0.1 + 0.2j, 0.9),
    Ellipse(-0.3j, 1.3, 0.7),
    Kite(0.6 + 0.8j, 0.65),
    Starfish(-0.9 + 1.2j, 0.125, 5),
    PerturbedDisk(0.05j, 1.02, (0.01, 0.0, 0.003 - 0.001j)),
    FourierCurve((0.1, 0.0, 1.0, 0.05j), min_index=-1),
]


@pytest.mark.parametrize("descriptor", DESCRIPTORS)
def test_descriptor_json_round_trip(descriptor):
    assert descriptor_from_json(descriptor_to_json(descriptor)) == descriptor


@pytest.mark.parametrize("descriptor,text", zip(DESCRIPTORS, [
    '{"kind": "disk", "center": [0.1, 0.2], "radius": 0.9}',
    '{"kind": "ellipse", "center": [-0.0, -0.3], "semiAxisA": 1.3, "semiAxisB": 0.7}',
    '{"kind": "kite", "center": [0.6, 0.8], "coefficient": 0.65}',
    '{"kind": "starfish", "center": [-0.9, 1.2], "modeAmplitude": 0.125, "modeIndex": 5}',
    '{"kind": "perturbedDisk", "center": [0.0, 0.05], "radius": 1.02, '
    '"coefficients": [[0.01, 0.0], [0.0, 0.0], [0.003, -0.001]]}',
    '{"kind": "fourierCurve", "minIndex": -1, '
    '"coefficients": [[0.1, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.05]]}',
]))
def test_descriptor_json_bytes(descriptor, text):
    # report.json embeds the shape, so its key order is part of the output bytes
    assert json.dumps(descriptor_to_json(descriptor)) == text


def closed_form(d, theta):
    """z(theta) and z'(theta) of a descriptor, written out term by term."""
    e = np.exp(1j * theta)
    if isinstance(d, Disk):
        return d.center + d.radius * e, 1j * d.radius * e
    if isinstance(d, Ellipse):
        a, b = d.semi_axis_a, d.semi_axis_b
        return (d.center + a * np.cos(theta) + 1j * b * np.sin(theta),
                -a * np.sin(theta) + 1j * b * np.cos(theta))
    if isinstance(d, Kite):
        c = d.coefficient
        return (d.center + e + c * np.cos(2 * theta),
                1j * e - 2 * c * np.sin(2 * theta))
    if isinstance(d, Starfish):
        k, amp = d.mode_index, d.mode_amplitude
        r = 1 + 2 * amp * np.cos(k * theta)
        dr = -2 * amp * k * np.sin(k * theta)
        return d.center + r * e, (dr + 1j * r) * e
    if isinstance(d, PerturbedDisk):
        r = np.ones_like(theta)
        dr = np.zeros_like(theta)
        for k, c in enumerate(d.coefficients):
            r = r + 2 * (c * np.exp(1j * k * theta)).real
            dr = dr + 2 * (1j * k * c * np.exp(1j * k * theta)).real
        return d.center + d.radius * r * e, d.radius * (dr + 1j * r) * e
    ks = d.min_index + np.arange(len(d.coefficients))
    terms = np.array(d.coefficients)[:, None] * np.exp(1j * np.outer(ks, theta))
    return terms.sum(axis=0), (1j * ks[:, None] * terms).sum(axis=0)


@pytest.mark.parametrize("n", [16, 64, 512])
@pytest.mark.parametrize("descriptor", DESCRIPTORS)
def test_modes_match_closed_forms(descriptor, n):
    theta = 2.0 * math.pi * np.arange(n) / n
    z, dz = closed_form(descriptor, theta)
    k, c = descriptor.modes()
    got_z = fourier_series(k, c, n)
    got_dz = fourier_series(k, [1j * ki * ci for ki, ci in zip(k, c)], n)
    assert np.abs(got_z - z).max() <= 1e-13 * np.abs(z).max()
    assert np.abs(got_dz - dz).max() <= 1e-13 * np.abs(dz).max()


@pytest.mark.parametrize("descriptor,n", [
    (Starfish(0.0, 0.1, 40), 64),
    (FourierCurve((0.0, 1.0), min_index=10**30), 64),
    (Kite(0.0, 0.3), 4),
])
def test_sample_rejects_unresolved_modes(descriptor, n):
    with pytest.raises(ValueError, match="not resolved"):
        sample(descriptor, n)


def test_sample_ignores_zero_modes_beyond_the_grid():
    curve = sample(Starfish(0.0, 0.0, 40), 64)
    assert np.allclose(curve.z, np.exp(1j * nodes(64)))


@pytest.mark.parametrize("doc", [
    {"kind": "polygon"},
    {"kind": "disk", "center": [0.0, 0.0]},
    {"kind": "disk", "center": "origin", "radius": 1.0},
    {"kind": "starfish", "center": [0.0, 0.0], "modeAmplitude": 0.1},
    {"radius": 1.0},
    {"kind": "disk", "center": "12", "radius": 1.0},
    {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0, "radiuss": 2.0},
    {"kind": "fourierCurve", "minindex": 1, "coefficients": [[1.0, 0.0], [0.1, 0.0]]},
])
def test_descriptor_json_malformed(doc):
    with pytest.raises(ValueError):
        descriptor_from_json(doc)


def test_json_number():
    for value in (3, 3.0, -2, 0, 1.5):
        assert json_number(value) == value
        assert type(json_number(value)) is float
    assert json_number(3.0, integer=True) == 3
    assert type(json_number(3.0, integer=True)) is int
    for value in (True, False, "3", None, [1], math.nan, math.inf, 10**400):
        for integer in (False, True):
            with pytest.raises(ValueError):
                json_number(value, integer=integer)
    with pytest.raises(ValueError, match="integer"):
        json_number(2.5, integer=True)


@pytest.mark.parametrize("make", [
    lambda: Disk(0.0, -1.0),
    lambda: Ellipse(0.0, 1.0, 0.0),
    lambda: Starfish(0.0, 0.1, 0),
    lambda: PerturbedDisk(0.0, 0.0, ()),
    lambda: FourierCurve(()),
    lambda: sample(Disk(complex(math.inf, 0.0), 1.0), 16),
])
def test_descriptor_validation(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("descriptor", [
    Disk(complex(math.inf, 0.0), 1.0),
    Disk(0.0, math.inf),
    PerturbedDisk(0.0, 1.0, (0.0, math.inf)),
])
def test_sample_rejects_non_finite(descriptor):
    with pytest.raises(ValueError, match="not finite"):
        sample(descriptor, 16)
