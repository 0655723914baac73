"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.

All thresholds are fixed here; nothing is calibrated at run time.
"""

import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from conftest import oracle_nearest_dot_scan

from bluedots import (
    DataSet,
    DotLayout,
    MetricKind,
    MetricSpec,
    PlotDomain,
    SolverConfig,
    assign_sites,
    automatic_height,
    cost_estimate,
    estimate_density,
    high_band_mean,
    jitter_init,
    load_fixture,
    low_band_mean,
    mean_power,
    normalize,
    overlap_metric,
    power_spectrum,
    relax,
    relax_multiclass,
    relax_traced,
)
from bluedots.cli import main
from bluedots.datasets import FIXTURES, fixture_path

SEEDS = range(20)
RADIUS = 0.01
# Spectral and overlap comparisons run on the analysis domain [0,1]x[0,0.2].
ANALYSIS_HEIGHT = 0.2


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")


def fixture_inputs(name: str, height: float | None = None):
    data = load_fixture(name)
    xs, (lo, hi) = normalize(data)
    dens = estimate_density(xs)
    h = automatic_height(dens.d_max, len(data), RADIUS) if height is None else height
    return data, xs, PlotDomain(x_min=lo, x_max=hi, height=h, radius=RADIUS)


def iqr(values) -> float:
    q75, q25 = np.percentile(values, [75, 25])
    return float(q75 - q25)


def restrict(layout: DotLayout, keep) -> DotLayout:
    idx = [i for i, lab in enumerate(layout.labels) if lab == keep]
    return DotLayout(x=layout.x[idx], y=layout.y[idx], domain=layout.domain)


def test_c1_encoding_fidelity():
    t0 = time.perf_counter()
    checked = 0
    for name in FIXTURES:
        data, xs, dom = fixture_inputs(name)
        for seed in SEEDS:
            out = relax(data, dom, SolverConfig(seed=seed))
            assert np.array_equal(out.x, xs), f"{name} seed {seed}: x changed"
            checked += 1
            if data.labels is not None and data.n_classes >= 2:
                mc = relax_multiclass(data, dom, SolverConfig(seed=seed))
                assert np.array_equal(mc.x, xs), f"{name} seed {seed}: multiclass x changed"
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    report(1, "encoding fidelity", ok,
           f"{checked} runs bit-identical to normalized input, {elapsed:.1f}s (< 60s)")
    assert ok


def test_c2_performance():
    data, xs, dom = fixture_inputs("geyser")
    assert len(data) == 256
    # force the full 40 iterations: no early convergence exit
    config = SolverConfig(n_sites=8192, max_iterations=40, convergence_eps=0.0, seed=0)
    t0 = time.perf_counter()
    out = relax(data, dom, config)
    elapsed = time.perf_counter() - t0
    ok = elapsed <= 6.0 and out.iterations_run == 40
    report(2, "performance", ok,
           f"n=256, 40 iterations, 8192 sites in {elapsed:.2f}s (<= 6s)")
    assert out.iterations_run == 40
    assert elapsed <= 6.0


def test_c3_spectral_property():
    t0 = time.perf_counter()
    data, xs, dom = fixture_inputs("geyser", height=ANALYSIS_HEIGHT)
    realizations = 100
    jitters = [jitter_init(data, dom, SolverConfig(seed=seed)) for seed in range(realizations)]
    blues = [relax(data, dom, SolverConfig(seed=seed)) for seed in range(realizations)]
    gj = power_spectrum(jitters, 16)
    gb = power_spectrum(blues, 16)
    jitter_mean = mean_power(gj)
    low, high = low_band_mean(gb), high_band_mean(gb)
    elapsed = time.perf_counter() - t0
    ok = (0.85 <= jitter_mean <= 1.15) and (low < 0.5 * high) and elapsed <= 600.0
    report(3, "spectral property", ok,
           f"jitter mean={jitter_mean:.3f} in [0.85,1.15]; "
           f"blue low={low:.3f} < 0.5*high={0.5 * high:.3f}; {elapsed:.0f}s")
    assert 0.85 <= jitter_mean <= 1.15
    assert low < 0.5 * high
    assert elapsed <= 600.0


def test_c4_overlap_property():
    t0 = time.perf_counter()
    full = load_fixture("geyser")
    counts = (64, 128, 256)
    medians = {}
    ok_all = True
    details = []
    for count in counts:
        sub = DataSet(values=full.values[:count], name="geyser")
        _, (lo, hi) = normalize(sub)
        dom = PlotDomain(x_min=lo, x_max=hi, height=ANALYSIS_HEIGHT, radius=RADIUS)
        blue = [overlap_metric(relax(sub, dom, SolverConfig(seed=s))) for s in SEEDS]
        jit = [overlap_metric(jitter_init(sub, dom, SolverConfig(seed=s))) for s in SEEDS]
        mb, mj = float(np.median(blue)), float(np.median(jit))
        ib, ij = iqr(blue), iqr(jit)
        medians[count] = (mb, mj)
        ok_all &= mb < mj and ib < ij
        details.append(f"n={count}: med {mb:.3f}<{mj:.3f}, iqr {ib:.3f}<{ij:.3f}")
    gaps = [medians[c][1] - medians[c][0] for c in counts]
    widening = gaps[0] < gaps[1] < gaps[2]
    elapsed = time.perf_counter() - t0
    ok = ok_all and widening and elapsed <= 300.0
    report(4, "overlap property", ok,
           "; ".join(details) + f"; gaps {gaps[0]:.3f}<{gaps[1]:.3f}<{gaps[2]:.3f}; {elapsed:.0f}s")
    assert ok_all
    assert widening
    assert elapsed <= 300.0


def test_c5_progress_property():
    spec = MetricSpec()
    lines = []
    ok = True
    for name in FIXTURES:
        data, xs, dom = fixture_inputs(name)
        wins = 0
        for seed in SEEDS:
            final, trace = relax_traced(data, dom, SolverConfig(seed=seed))
            before = cost_estimate(trace.initial, trace.sites, spec)
            after = cost_estimate(final, trace.sites, spec)
            wins += after < before
        lines.append(f"{name}: {wins}/20")
        ok &= wins >= 18
    report(5, "progress property", ok, ", ".join(lines) + " (need >= 18)")
    assert ok


def test_c6_oracle_equivalence():
    rng = np.random.default_rng(2024)
    warped_density = estimate_density(rng.random(128))
    mismatches = 0
    for trial in range(100):
        n = int(rng.integers(2, 65))
        m = int(rng.integers(8, 1025))
        h = float(rng.uniform(0.05, 0.5))
        dom = PlotDomain(x_min=0.0, x_max=1.0, height=h, radius=RADIUS)
        lay = DotLayout(x=rng.random(n), y=rng.random(n) * h, domain=dom)
        sites = np.column_stack([rng.random(m), rng.random(m) * h])
        if trial % 2 == 0:
            spec = MetricSpec()
        else:
            spec = MetricSpec(kind=MetricKind.DENSITY_WARPED, density=warped_density)
        got = assign_sites(lay, sites, spec).owner
        want = oracle_nearest_dot_scan(lay, sites, spec)
        if not np.array_equal(got, want):
            mismatches += 1
    ok = mismatches == 0
    report(6, "oracle equivalence", ok,
           f"100 instances (n<=64 dots, <=1024 sites, both metrics), {mismatches} mismatches")
    assert ok


def test_c7_automatic_height():
    rng = np.random.default_rng(99)
    bad = 0
    for _ in range(1000):
        d_max = float(rng.uniform(0.05, 10.0))
        n = int(rng.integers(1, 100_000))
        r = float(rng.uniform(1e-5, 0.5))
        raw = r * r * d_max * n
        expected = raw if raw >= 2.0 * r else 2.0 * r
        if automatic_height(d_max, n, r) != expected:
            bad += 1
    ok = bad == 0
    report(7, "automatic height", ok, f"1000 random triples exact, {bad} failures")
    assert ok


def test_c8_multiclass_property():
    data, xs, dom = fixture_inputs("tips")
    classes = sorted(set(data.labels))
    blue = {c: [] for c in classes}
    jit = {c: [] for c in classes}
    blue_union, jit_union = [], []
    for seed in SEEDS:
        mc = relax_multiclass(data, dom, SolverConfig(seed=seed))
        jl = jitter_init(data, dom, SolverConfig(seed=seed))
        blue_union.append(overlap_metric(mc))
        jit_union.append(overlap_metric(jl))
        for c in classes:
            blue[c].append(overlap_metric(restrict(mc, c)))
            jit[c].append(overlap_metric(restrict(jl, c)))
    parts = [("union", blue_union, jit_union)] + [(c, blue[c], jit[c]) for c in classes]
    ok = True
    details = []
    for label, b, j in parts:
        mb, mj = float(np.median(b)), float(np.median(j))
        ok &= mb < mj
        details.append(f"{label}: {mb:.3f} < {mj:.3f}")
    report(8, "multiclass property", ok, "; ".join(details))
    assert ok


def test_c9_determinism_and_roundtrip(tmp_path):
    geyser = str(fixture_path("geyser"))
    args = ["plot", "--input", geyser, "--column", "waiting", "--seed", "2"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    same_json = (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    same_svg = (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

    from bluedots.cli import load_layout

    layout, _ = load_layout(tmp_path / "a.json")
    ns = "{http://www.w3.org/2000/svg}"
    root = ET.fromstring((tmp_path / "a.svg").read_text())
    w = float(root.get("width"))
    canvas_h = float(root.get("height"))
    xs, ys = [], []
    for c in root.iter(f"{ns}circle"):
        xs.append(float(c.get("cx")) / w)
        ys.append((canvas_h - float(c.get("cy"))) / w)
    err = max(
        float(np.max(np.abs(np.array(xs) - layout.x))),
        float(np.max(np.abs(np.array(ys) - layout.y))),
    )
    ok = same_json and same_svg and err < 1e-6
    report(9, "determinism & round-trip", ok,
           f"bytes identical (json={same_json}, svg={same_svg}), svg recovery err={err:.2e}")
    assert same_json and same_svg
    assert err < 1e-6
