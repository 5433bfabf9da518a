"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines on success. Criterion 7 needs licensed datasets converted to the
manifest format and is skipped unless the environment points at them.
"""

import os
import time

import numpy as np
import pytest

from codemotion import (
    ActionMatrix,
    FeatureSet,
    FilterSpec,
    Metric,
    MetricSpec,
    SplitPlan,
    SyntheticConfig,
    butterworth_filter,
    compute_descriptor,
    csm,
    evaluate,
    generate_synthetic,
    joint_variances,
    load_dataset,
    noise_sweep,
    pairwise_correlation,
    stack_descriptor,
)
from oracles import csm_score, pearson, population_variance

from conftest import random_action

CSM_SPEC = MetricSpec(Metric.CSM)


def check(criterion, ok, detail):
    line = f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def close(a, b, tol=1e-12):
    """Stated tolerance, scaled by magnitude once values leave the unit range."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_criterion_1_descriptor_size_law(rng):
    action = random_action(rng, joints=32, frames=50)
    sizes = {}
    for jm in (1, 2, 5, 10, 20, 30):
        sizes[jm] = stack_descriptor(compute_descriptor(action, jm)).size
    ok = all(sizes[jm] == jm * (jm + 7) // 2 for jm in sizes)
    ok = ok and sizes[20] == 270 and sizes[30] == 555
    check("criterion 1", ok, f"stacked sizes {sizes}, jm=20 -> 270, jm=30 -> 555")


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(92001)
    worst = 0.0
    for _ in range(100):
        joints = int(rng.integers(2, 7))
        frames = int(rng.integers(4, 31))
        jm = int(rng.integers(1, joints + 1))
        a = random_action(rng, joints=joints, frames=frames, scale=10.0)
        b = random_action(rng, joints=joints, frames=frames, scale=10.0)

        variances = joint_variances(a)
        for j in range(joints):
            expected = population_variance(list(a.samples[:, j]))
            assert close(variances[j], expected), f"variance joint {j}"
            worst = max(worst, abs(variances[j] - expected))

        da = compute_descriptor(a, jm)
        corr = pairwise_correlation(a, da.mij)
        k = 0
        for p in range(jm):
            for q in range(p + 1, jm):
                expected = pearson(
                    list(a.samples[:, da.mij[p]]), list(a.samples[:, da.mij[q]])
                )
                assert close(corr[k], expected), f"corr pair ({p},{q})"
                worst = max(worst, abs(corr[k] - expected))
                k += 1

        db = compute_descriptor(b, jm)
        expected = csm_score(da, db)
        assert close(csm(da, db), expected), "csm"
        worst = max(worst, abs(csm(da, db) - expected))
    check("criterion 2", True, f"100 instances, worst oracle deviation {worst:.2e} (tol 1e-12 scaled)")


def _action_with_margins(rng, joints, frames, rel=1e-5, tries=20):
    for _ in range(tries):
        action = random_action(rng, joints=joints, frames=frames)
        v = np.sort(joint_variances(action))
        if np.all(np.diff(v) / max(v[-1], 1e-12) > rel):
            return action
    raise AssertionError("could not generate an action with distinct variances")


def test_criterion_3_invariant_suite():
    rng = np.random.default_rng(92003)
    cases = 0
    rounds = 180
    for _ in range(rounds):
        joints = int(rng.integers(3, 9))
        frames = int(rng.integers(5, 41))
        jm = int(rng.integers(1, joints + 1))

        # variance normalization and correlation bounds
        action = random_action(rng, joints=joints, frames=frames)
        d = compute_descriptor(action, jm)
        assert abs(d.var_norm.sum() - 1.0) <= 1e-9
        cases += 1
        assert np.all(np.abs(d.corr) <= 1.0)
        cases += 1

        # exact CSM symmetry
        other = compute_descriptor(random_action(rng, joints=joints, frames=frames), jm)
        assert csm(d, other) == csm(other, d)
        cases += 1

        # disjoint-MIJ zero law: fresh action moving only in new joint slots
        shifted = np.zeros((frames, joints + jm))
        shifted[:, joints:] = np.linspace(0.0, 1.0, frames)[:, None] * np.arange(1, jm + 1)
        disjoint = compute_descriptor(ActionMatrix(shifted, action.frame_rate), jm)
        assert set(disjoint.mij.tolist()).isdisjoint(set(d.mij.tolist()))
        assert csm(d, disjoint) == 0.0
        cases += 1

        # per-joint offsets plus one positive global scale leave the descriptor alone
        stable = _action_with_margins(rng, joints, max(frames, 6))
        base = compute_descriptor(stable, jm)
        scale = float(rng.uniform(0.1, 10.0))
        offsets = rng.uniform(-200.0, 200.0, joints)
        moved = compute_descriptor(
            ActionMatrix(stable.samples * scale + offsets, stable.frame_rate), jm
        )
        assert np.array_equal(base.mij, moved.mij)
        assert np.allclose(moved.var_norm, base.var_norm, atol=1e-9)
        assert np.allclose(moved.vmax_norm, base.vmax_norm, atol=1e-9)
        assert np.allclose(moved.vmin_norm, base.vmin_norm, atol=1e-9)
        assert np.allclose(moved.corr, base.corr, atol=1e-9)
        cases += 1

        # permutation equivariance
        perm = rng.permutation(joints)
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(joints)
        swapped = compute_descriptor(
            ActionMatrix(stable.samples[:, perm], stable.frame_rate), jm
        )
        assert np.array_equal(swapped.mij, inverse[base.mij])
        assert np.allclose(swapped.var_norm, base.var_norm, atol=1e-9)
        assert np.allclose(swapped.corr, base.corr, atol=1e-9)
        cases += 1

    check("criterion 3", cases >= 1000, f"{cases} generated invariant cases across {rounds} rounds")


def test_criterion_4_complexity_contract(rng):
    joints, jm = 24, 20
    short = random_action(rng, joints=joints, frames=4000)
    long = random_action(rng, joints=joints, frames=8000)

    bytes_short = stack_descriptor(compute_descriptor(short, jm)).nbytes
    bytes_long = stack_descriptor(compute_descriptor(long, jm)).nbytes
    size_ok = bytes_short == bytes_long

    def timed(action):
        t0 = time.perf_counter()
        compute_descriptor(action, jm)
        return time.perf_counter() - t0

    compute_descriptor(short, jm)  # warm up caches before timing
    compute_descriptor(long, jm)
    times_short, times_long = [], []
    for _ in range(25):  # interleaved so machine drift hits both sizes equally
        times_short.append(timed(short))
        times_long.append(timed(long))
    ratio = float(np.median(times_long) / np.median(times_short))
    check(
        "criterion 4",
        size_ok and ratio <= 2.5,
        f"descriptor bytes {bytes_short} == {bytes_long}; 2T/T median time ratio {ratio:.2f} <= 2.5",
    )


ACCEPTANCE_CONFIG = SyntheticConfig(
    classes=8, per_class=10, subjects=4, joints=20, frames=240,
    frame_rate=30.0, seed=20240601,
)


@pytest.fixture(scope="module")
def synthetic_dataset():
    actions, _ = generate_synthetic(ACCEPTANCE_CONFIG)
    labels = [a.class_label for a in actions]
    plan = SplitPlan.stratified_kfold(labels, k=10, seed=7)
    return actions, plan


def test_criterion_5_synthetic_classification(synthetic_dataset):
    actions, plan = synthetic_dataset
    report = evaluate(actions, jm=10, spec=CSM_SPEC, plan=plan)

    two_class = SyntheticConfig(
        classes=2, per_class=10, subjects=2, joints=20, frames=120,
        frame_rate=30.0, seed=20240602, active_per_class=5, disjoint_classes=True,
    )
    duo, _ = generate_synthetic(two_class)
    duo_plan = SplitPlan.stratified_kfold([a.class_label for a in duo], k=10, seed=7)
    duo_report = evaluate(duo, jm=5, spec=CSM_SPEC, plan=duo_plan)

    ok = report.accuracy >= 0.95 and duo_report.accuracy == 1.0
    check(
        "criterion 5",
        ok,
        f"8-class 10-fold CSM accuracy {report.accuracy:.4f} >= 0.95; "
        f"disjoint 2-class accuracy {duo_report.accuracy} == 1.0",
    )


def test_criterion_6_ablation_direction(synthetic_dataset):
    actions, plan = synthetic_dataset
    results = {}
    for jm in (5, 10):
        full = evaluate(actions, jm=jm, spec=CSM_SPEC, plan=plan).accuracy
        var_only = evaluate(
            actions, jm=jm, spec=MetricSpec(Metric.EUCLIDEAN, FeatureSet.VARIANCE), plan=plan
        ).accuracy
        results[jm] = (full, var_only)
    ok = all(full >= var_only - 0.02 for full, var_only in results.values())
    detail = "; ".join(
        f"jm={jm}: csm {full:.4f} vs var+euclid {var_only:.4f}"
        for jm, (full, var_only) in results.items()
    )
    check("criterion 6", ok, detail + " (2-point slack)")


HDM05_MANIFEST = os.environ.get("CODEMOTION_HDM05_MANIFEST")
RHDM05_MANIFEST = os.environ.get("CODEMOTION_RHDM05_MANIFEST")
RHDM05_TRAIN = os.environ.get("CODEMOTION_RHDM05_TRAIN_SUBJECTS")
MHAD_MANIFEST = os.environ.get("CODEMOTION_MHAD_MANIFEST")
MHAD_TRAIN = os.environ.get("CODEMOTION_MHAD_TRAIN_SUBJECTS")


def _filtered(actions):
    return butterworth_filter(actions, FilterSpec(cutoff_hz=10.0))


@pytest.mark.skipif(not HDM05_MANIFEST, reason="set CODEMOTION_HDM05_MANIFEST to run")
def test_criterion_7_hdm05_crossval():
    actions = _filtered(load_dataset(HDM05_MANIFEST))
    plan = SplitPlan.stratified_kfold([a.class_label for a in actions], k=10, seed=7)
    report = evaluate(actions, jm=20, spec=CSM_SPEC, plan=plan)
    ok = abs(report.accuracy_mean - 0.800) <= 0.05
    check("criterion 7 (HDM05)", ok, f"10-fold accuracy {report.accuracy_mean:.4f} within 0.800 +/- 0.05")


@pytest.mark.skipif(
    not (MHAD_MANIFEST and MHAD_TRAIN), reason="set CODEMOTION_MHAD_MANIFEST and _TRAIN_SUBJECTS"
)
def test_criterion_7_mhad_cross_subject():
    actions = _filtered(load_dataset(MHAD_MANIFEST))
    plan = SplitPlan.cross_subject([a.subject_id for a in actions], MHAD_TRAIN.split(","))
    report = evaluate(actions, jm=20, spec=CSM_SPEC, plan=plan)
    ok = abs(report.accuracy - 0.985) <= 0.03
    check("criterion 7 (MHAD)", ok, f"cross-subject accuracy {report.accuracy:.4f} within 0.985 +/- 0.03")


@pytest.mark.skipif(
    not (RHDM05_MANIFEST and RHDM05_TRAIN),
    reason="set CODEMOTION_RHDM05_MANIFEST and _TRAIN_SUBJECTS",
)
def test_criterion_7_rhdm05_cross_subject():
    actions = _filtered(load_dataset(RHDM05_MANIFEST))
    plan = SplitPlan.cross_subject([a.subject_id for a in actions], RHDM05_TRAIN.split(","))
    report = evaluate(actions, jm=20, spec=CSM_SPEC, plan=plan)
    ok = abs(report.accuracy - 0.984) <= 0.03
    check("criterion 7 (R-HDM05)", ok, f"cross-subject accuracy {report.accuracy:.4f} within 0.984 +/- 0.03")


def test_criterion_8_noise_robustness(synthetic_dataset):
    actions, plan = synthetic_dataset
    sigmas = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    reports = noise_sweep(
        actions,
        sigmas,
        jm=10,
        spec=CSM_SPEC,
        plan=plan,
        seed=99,
        filter_spec=FilterSpec(cutoff_hz=10.0),
    )
    acc = {sigma: report.accuracy_mean for sigma, report in zip(sigmas, reports, strict=True)}
    drop_ok = acc[5.0] >= acc[0.0] - 0.10
    monotone_ok = all(
        reports[i + 1].accuracy_mean <= reports[i].accuracy_mean + 0.02 for i in range(len(reports) - 1)
    )
    pretty = ", ".join(f"{s:.0f}:{a:.4f}" for s, a in acc.items())
    check(
        "criterion 8",
        drop_ok and monotone_ok,
        f"accuracy by sigma {{{pretty}}}; drop {acc[0.0] - acc[5.0]:+.4f} <= 0.10, "
        "non-increase within 0.02",
    )
