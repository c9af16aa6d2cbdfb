"""Acceptance gate: one test per shipping criterion, each printing a
single PASS/FAIL line.  Criteria 3 and 4 share one desk-scale training
run through a session fixture."""

import shutil
import time

import numpy as np
import pytest

from gradcheck import gradient_check
from written_dataset import written_dataset
from pgclab.attack import (
    SPLIT_TEST,
    SPLIT_TRAIN,
    SPLIT_VAL,
    calibrate_pixel_threshold,
    calibrate_threshold,
    estimate_grey,
    split_arrays,
    stream_seed,
    train_attack,
)
from pgclab.channel import ChannelParams, preset
from pgclab.cli import DEFAULT_SPLIT, main
from pgclab.codegen import (
    UNIT_INTERVAL,
    PixelImage,
    assemble_blocks,
    binarize,
    generate_module_matrix,
    ink_intensity,
    modules_from_pixels,
    render,
    split_blocks,
)
from pgclab.detector import (
    MEASURES,
    auc,
    hamming_norm,
    pearson,
    pearson_reference,
    reprint_scores,
    roc,
)
from pgclab.nn import (
    TrainConfig,
    build_bn,
    build_fc,
    forward,
    load_model,
    save_model,
)


def _thr_estimates(ds, printer):
    """The Thr baseline's test estimates, as cmd_attack computes them."""
    t = calibrate_pixel_threshold(ds, printer)
    return [
        modules_from_pixels(binarize(ink_intensity(ds.scans[printer][i]), t),
                            ds.geometry.module_px)
        for i in ds.indices(SPLIT_TEST)
    ]


def _report(n: int, desc: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {n}] {tag}: {desc}{suffix}")
    assert ok, f"criterion {n}: {desc}{suffix}"


# ------------------------------------------------------------ shared run

@pytest.fixture(scope="session")
def sa_run(tmp_path_factory):
    """Desk-scale SA experiment: 40/10/20 codes, BN for 150 epochs."""
    ds = written_dataset(tmp_path_factory.mktemp("sa_run"), (40, 10, 20), {"SA": preset("SA")}, 7)
    cfg = TrainConfig(epochs=150, batch_size=128, learning_rate=1e-3, seed=11)
    t0 = time.monotonic()
    val = split_arrays(ds, "SA", SPLIT_VAL)
    model, history, _ = train_attack(split_arrays(ds, "SA", SPLIT_TRAIN), val, "bn", cfg)
    threshold = calibrate_threshold(model, val)
    thr_estimates = _thr_estimates(ds, "SA")
    test_idx = ds.indices(SPLIT_TEST)

    bn_estimates, rows = [], []
    for pos, i in enumerate(test_idx):
        scan = ds.scans["SA"][i]
        ref = pearson_reference(ds.rendered_original(i).pixels)
        grey = estimate_grey(model, scan, ds.geometry.block_px)
        xhat = modules_from_pixels(binarize(grey, threshold), ds.geometry.module_px)
        bn_estimates.append(xhat)
        rows.append((
            pearson(ref, grey.pixels),
            hamming_norm(ds.originals[i].bits, xhat.bits),
            pearson(ref, ink_intensity(scan).pixels),
            hamming_norm(ds.originals[i].bits, thr_estimates[pos].bits),
        ))
    seconds = time.monotonic() - t0
    metrics = np.array(rows).mean(axis=0)
    return {
        "ds": ds,
        "history": history,
        "seconds": seconds,
        "pearson_bn": metrics[0],
        "hamming_bn": metrics[1],
        "pearson_thr": metrics[2],
        "hamming_thr": metrics[3],
        "bn_estimates": bn_estimates,
        "thr_estimates": thr_estimates,
        "test_idx": test_idx,
    }


# ------------------------------------------------------------ criteria

def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(0)
    x = rng.random((8, 576), dtype=np.float32)
    t = rng.integers(0, 2, (8, 576)).astype(np.float32)
    t0 = time.monotonic()
    err_fc = gradient_check(build_fc(2, 576, seed=1), x, t, n_coords=2000, step=1e-3, seed=0)
    err_bn = gradient_check(build_bn(576, seed=2), x, t, n_coords=2000, step=1e-3, seed=0)
    seconds = time.monotonic() - t0
    _report(
        1,
        "backprop matches finite differences on FC-2 and BN",
        err_fc <= 1e-3 and err_bn <= 1e-3 and seconds < 60.0,
        f"rel err fc2 {err_fc:.2e}, bn {err_bn:.2e}, {seconds:.1f}s",
    )


def test_criterion_2_identity_channel_exactness(tmp_path):
    ds = written_dataset(tmp_path, (10, 2, 2), {"ID": ChannelParams()}, 3)
    thr_estimates = _thr_estimates(ds, "ID")
    test_idx = ds.indices(SPLIT_TEST)
    thr_errs = [
        hamming_norm(ds.originals[i].bits, est.bits)
        for i, est in zip(test_idx, thr_estimates)
    ]

    cfg = TrainConfig(epochs=50, batch_size=128, learning_rate=1e-3, seed=4)
    val = split_arrays(ds, "ID", SPLIT_VAL)
    model, _, _ = train_attack(split_arrays(ds, "ID", SPLIT_TRAIN), val, "bn", cfg)
    threshold = calibrate_threshold(model, val)
    bn_errs = []
    for i in test_idx:
        grey = estimate_grey(model, ds.scans["ID"][i], ds.geometry.block_px)
        xhat = modules_from_pixels(binarize(grey, threshold), ds.geometry.module_px)
        bn_errs.append(hamming_norm(ds.originals[i].bits, xhat.bits))
    _report(
        2,
        "identity channel: Thr exact, trained BN within 0.01",
        all(e == 0.0 for e in thr_errs) and float(np.mean(bn_errs)) <= 0.01,
        f"thr errs {thr_errs}, bn mean {float(np.mean(bn_errs)):.4f}",
    )


def test_criterion_3_attack_superiority(sa_run):
    r = sa_run
    ok = (
        r["pearson_bn"] >= r["pearson_thr"] + 0.05
        and r["hamming_bn"] <= r["hamming_thr"]
        and r["seconds"] < 1800.0
    )
    _report(
        3,
        "desk-scale SA: BN beats Thr on Pearson by 0.05 and on Hamming",
        ok,
        f"pearson {r['pearson_bn']:.4f} vs {r['pearson_thr']:.4f}, "
        f"hamming {r['hamming_bn']:.4f} vs {r['hamming_thr']:.4f}, "
        f"{r['seconds']:.0f}s",
    )


def test_criterion_4_detection_difficulty(sa_run):
    ds = sa_run["ds"]
    originals = [ds.originals[i] for i in sa_run["test_idx"]]
    defender_t = calibrate_pixel_threshold(ds, "SA")
    auth_seeds = [stream_seed(ds.seed, "reprint-authentic", "SA", i) for i in sa_run["test_idx"]]
    fake_seeds = [stream_seed(ds.seed, "reprint-fake", "SA", i) for i in sa_run["test_idx"]]
    params, mpx = ds.channel_params["SA"], ds.geometry.module_px
    labels = ("bn", "thr")
    (authentic, *fakes), _ = reprint_scores(
        originals, [sa_run[f"{label}_estimates"] for label in labels], auth_seeds, fake_seeds,
        params, mpx, defender_t,
    )
    aucs = {}
    for label, fake in zip(labels, fakes):
        aucs[label] = {m: auc(roc(authentic[m], fake[m], m)) for m in MEASURES}
    ok = all(aucs["bn"][m] < aucs["thr"][m] for m in MEASURES)
    detail = ", ".join(
        f"{m} AUC bn {aucs['bn'][m]:.3f} < thr {aucs['thr'][m]:.3f}" for m in MEASURES
    )
    _report(4, "defender AUC strictly lower against BN fakes", ok, detail)


def test_criterion_5_roc_correctness():
    rng = np.random.default_rng(5)

    def brute(authentic, fake, alpha):
        sa = [alpha * s for s in authentic]
        sf = [alpha * s for s in fake]
        gs = sorted(set(sa) | set(sf) | {float("inf"), float("-inf")}, reverse=True)
        return [
            (g, sum(s >= g for s in sa) / len(sa), sum(s > g for s in sf) / len(sf))
            for g in gs
        ]

    enum_ok = True
    mono_ok = True
    for _ in range(100):
        for measure in MEASURES:
            na, nf = rng.integers(1, 21, 2)
            a = rng.integers(0, 10, na) / 9.0
            f = rng.integers(0, 10, nf) / 9.0
            pts = roc(a, f, measure)
            enum_ok &= pts == brute(list(a), list(f), MEASURES[measure])
            pds = [pd for _, pd, _ in pts]
            pfas = [pfa for _, _, pfa in pts]
            mono_ok &= pds == sorted(pds) and pfas == sorted(pfas)

    same = rng.normal(0, 1, 200)
    other = rng.normal(0, 1, 200)
    auc_same = auc(roc(same, other, "pearson"))
    sep = auc(roc(np.array([0.9, 0.8]), np.array([0.2, 0.1]), "pearson"))
    ok = enum_ok and mono_ok and abs(auc_same - 0.5) <= 0.05 and sep == 1.0
    _report(
        5,
        "roc equals exhaustive enumeration; monotone; AUC anchors hold",
        ok,
        f"identical-dist AUC {auc_same:.3f}, separable AUC {sep}",
    )


def test_criterion_6_round_trips():
    rng = np.random.default_rng(6)
    split_ok = True
    for _ in range(3):
        img = PixelImage(rng.random((384, 384), dtype=np.float32), UNIT_INTERVAL)
        back = assemble_blocks(split_blocks(img, 24), img.pixels.shape, 24, img.domain)
        split_ok &= bool(np.array_equal(back.pixels, img.pixels))

    render_ok = True
    for seed in (0, 1, 2):
        m = generate_module_matrix(seed, 64, 64)
        render_ok &= bool(
            np.array_equal(modules_from_pixels(render(m, 6), 6).bits, m.bits)
        )

    model = build_bn(576, seed=7)
    x = rng.random((100, 576), dtype=np.float32)
    import tempfile, pathlib
    with tempfile.TemporaryDirectory() as d:
        path = pathlib.Path(d) / "m.pgcm"
        save_model(model, 0.5, path)
        loaded, thr = load_model(path)
    save_ok = bool(np.array_equal(forward(model, x), forward(loaded, x))) and thr == 0.5

    _report(
        6,
        "split/assemble, render/modules, save/load round trips",
        split_ok and render_ok and save_ok,
    )


def test_criterion_7_pipeline_determinism(tmp_path):
    import json

    cfg = {
        "out_dir": "placeholder",
        "dataset": {"n_images": 6, "split": [4, 1, 1], "seed": 5},
        "printers": ["SA"],
        "training": {"arch": "bn", "epochs": 3, "batch_size": 128,
                     "learning_rate": 1e-3, "seed": 1},
        "evaluation": {"measures": ["pearson", "hamming"],
                       "target_pfa": [0.0, 0.1], "plots": True},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    def run_all(out):
        for verb in ("gen", "train", "attack", "roc"):
            args = [verb, "--config", str(cfg_path), "--out", str(out)]
            if verb != "gen":
                args += ["--printer", "SA"]
            assert main(args) == 0

    run_all(tmp_path / "a")
    run_all(tmp_path / "b")

    a_files = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file())
    b_files = sorted(p for p in (tmp_path / "b").rglob("*") if p.is_file())
    rel_a = [p.relative_to(tmp_path / "a") for p in a_files]
    rel_b = [p.relative_to(tmp_path / "b") for p in b_files]
    same_tree = rel_a == rel_b
    diffs = [
        str(ra) for ra, pa, pb in zip(rel_a, a_files, b_files)
        if pa.read_bytes() != pb.read_bytes()
    ] if same_tree else ["tree mismatch"]
    _report(
        7,
        "rerun with identical config is byte-identical",
        same_tree and not diffs,
        f"{len(a_files)} files compared" + (f"; differ: {diffs[:3]}" if diffs else ""),
    )


def test_criterion_8_dataset_counts_at_full_scale(tmp_path):
    # The counts depend on the split and the geometry, not on the printers,
    # so one printer's scans are enough.
    try:
        ds = written_dataset(tmp_path, DEFAULT_SPLIT, {"SA": preset("SA")}, 0)
        counts = ds.block_counts()
    finally:
        # The counts need none of the 57 MB of images written to get them.
        for path in tmp_path.iterdir():
            shutil.rmtree(path)
    ok = counts == {"train": 25600, "val": 12800, "test": 59904}
    _report(
        8,
        "384-code build yields 25600/12800/59904 train/val/test blocks",
        ok,
        f"got {counts['train']}/{counts['val']}/{counts['test']}, "
        f"printers {', '.join(ds.printers)}",
    )
