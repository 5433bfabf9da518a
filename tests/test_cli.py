import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import weakref
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from codemotion import (
    FeatureSet, FilterSpec, Metric, MetricSpec, SplitPlan, SyntheticConfig, butterworth_filter, evaluate,
    generate_synthetic, ingest, load_dataset, noise_sweep, save_dataset,
)
from codemotion import cli, evaluation
from codemotion.cli import _load_actions, build_parser, main
from conftest import live_at_first_call, pool_held_once, traced_peak


SRC = Path(__file__).resolve().parent.parent / "src"


def run(*args):
    return main([str(a) for a in args])


def python(*argv):
    """``python argv...`` with the package on the path; returns the process, failing on a non-zero exit."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, *map(str, argv)], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result


def run_python(code, *args):
    """``python -c code args...`` with the package on the path; returns stdout."""
    return python("-c", code, *args).stdout


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """A small synthetic dataset shared across CLI tests."""
    out = tmp_path_factory.mktemp("synth")
    code = run(
        "gen-synth", "--classes", 2, "--per-class", 4, "--subjects", 2,
        "--joints", 10, "--frames", 90, "--seed", 11,
        "--active-joints", 3, "--disjoint", "--out-dir", out,
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def noisy_dir(tmp_path_factory):
    """Small motions under large noise: the low-pass filter changes the predictions."""
    out = tmp_path_factory.mktemp("noisy")
    code = run(
        "gen-synth", "--classes", 3, "--per-class", 4, "--subjects", 2,
        "--joints", 8, "--frames", 60, "--frame-rate", 60, "--seed", 5,
        "--amplitude", 4, "--noise-std", 8, "--out-dir", out,
    )
    assert code == 0
    return out


def copy_dataset(synth_dir, dest, edit):
    """Copy of the synthetic dataset whose manifest entries pass through ``edit``."""
    shutil.copytree(synth_dir, dest)
    manifest_path = dest / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    edit(manifest["entries"])
    manifest_path.write_text(json.dumps(manifest))
    return manifest_path


def dir_digest(path):
    hasher = hashlib.sha256()
    for f in sorted(Path(path).rglob("*")):
        if f.is_file():
            hasher.update(f.name.encode())
            hasher.update(f.read_bytes())
    return hasher.hexdigest()


class TestGenSynth:
    def test_round_trip_loads(self, synth_dir):
        actions = load_dataset(synth_dir / "manifest.json")
        assert len(actions) == 2 * 4 * 2

    def test_same_seed_gives_identical_files(self, tmp_path):
        args = ["gen-synth", "--classes", 2, "--per-class", 2, "--subjects", 1,
                "--joints", 8, "--frames", 40, "--seed", 5]
        assert run(*args, "--out-dir", tmp_path / "one") == 0
        assert run(*args, "--out-dir", tmp_path / "two") == 0
        assert dir_digest(tmp_path / "one") == dir_digest(tmp_path / "two")

    def test_entry_count_matches_config(self, tmp_path):
        assert run("gen-synth", "--classes", 3, "--per-class", 2, "--subjects", 2,
                   "--joints", 8, "--frames", 30, "--seed", 1,
                   "--out-dir", tmp_path / "d") == 0
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert len(manifest["entries"]) == 3 * 2 * 2

    def test_unset_flags_take_the_config_defaults(self, tmp_path):
        assert run("gen-synth", "--classes", 2, "--per-class", 2, "--subjects", 1, "--seed", 3,
                   "--out-dir", tmp_path / "cli") == 0
        save_dataset(*generate_synthetic(SyntheticConfig(2, 2, 1, seed=3)), tmp_path / "lib")
        assert dir_digest(tmp_path / "cli") == dir_digest(tmp_path / "lib")

    def test_every_flag_sets_its_own_field(self, tmp_path):
        config = SyntheticConfig(
            classes=2, per_class=2, subjects=1, joints=12, frames=50, frame_rate=60.0, seed=3,
            active_per_class=3, amplitude_deg=12.5, noise_deg=2.0, disjoint_classes=True,
        )
        # every field differs from its default, so a flag feeding the wrong field shows
        assert all(getattr(config, f.name) != f.default for f in fields(config) if f.default is not MISSING)
        assert run("gen-synth", "--classes", 2, "--per-class", 2, "--subjects", 1, "--joints", 12,
                   "--frames", 50, "--frame-rate", 60, "--seed", 3, "--active-joints", 3,
                   "--amplitude", 12.5, "--noise-std", 2, "--disjoint", "--out-dir", tmp_path / "cli") == 0
        save_dataset(*generate_synthetic(config), tmp_path / "lib")
        assert dir_digest(tmp_path / "cli") == dir_digest(tmp_path / "lib")


class TestParserDefaults:
    @pytest.mark.parametrize("argv", [
        ["describe", "--out", "d"],
        ["crossval", "--seed", "1", "--out", "r.json"],
        ["cross-subject", "--train-subjects", "s", "--out", "r.json"],
        ["sweep", "--seed", "1", "--out", "s.csv"],
        ["noise", "--seed", "1", "--out", "n.csv"],
    ], ids=lambda argv: argv[0])
    def test_filter_defaults_are_the_filter_specs(self, argv):
        args = build_parser().parse_args([*argv, "--manifest", "m.json"])
        assert cli._filter_spec(args) == FilterSpec()

    def test_sweep_defaults_are_every_metric_and_feature_set(self):
        args = build_parser().parse_args(["sweep", "--manifest", "m.json", "--seed", "1", "--out", "s.csv"])
        assert args.metric == "csm,euclidean,manhattan" == ",".join(m.value for m in Metric)
        assert args.features == "var,var-vel,full" == ",".join(f.value for f in FeatureSet)


class TestDescribe:
    def test_writes_descriptor_per_action(self, synth_dir, tmp_path):
        out = tmp_path / "desc"
        assert run("describe", "--manifest", synth_dir / "manifest.json",
                   "--jm", 3, "--out", out) == 0
        files = sorted(out.glob("c*.json"))
        assert len(files) == 16
        payload = json.loads(files[0].read_text())
        assert set(payload) == {"action_id", "jm", "mij", "var_norm", "vmax_norm", "vmin_norm", "corr"}
        assert len(payload["mij"]) == 3
        assert len(payload["corr"]) == 3

    def test_jm1_has_empty_corr(self, synth_dir, tmp_path):
        out = tmp_path / "desc1"
        assert run("describe", "--manifest", synth_dir / "manifest.json",
                   "--jm", 1, "--out", out) == 0
        payload = json.loads(next(out.glob("c*.json")).read_text())
        assert payload["corr"] == []

    def test_summary_reports_stacked_length_270_at_jm20(self, tmp_path):
        assert run("gen-synth", "--classes", 2, "--per-class", 2, "--subjects", 1,
                   "--joints", 24, "--frames", 40, "--seed", 2,
                   "--out-dir", tmp_path / "wide") == 0
        out = tmp_path / "desc20"
        assert run("describe", "--manifest", tmp_path / "wide" / "manifest.json",
                   "--jm", 20, "--out", out) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stacked_length"] == 270

    def test_colliding_output_names_fail_before_writing(self, synth_dir, tmp_path, capsys):
        def collide(entries):
            entries[0]["action_id"] = "a/b"
            entries[1]["action_id"] = "a_b"

        manifest = copy_dataset(synth_dir, tmp_path / "data", collide)
        out = tmp_path / "desc"
        assert run("describe", "--manifest", manifest, "--jm", 3, "--out", out) == 1
        err = capsys.readouterr().err
        assert "'a/b'" in err and "'a_b'" in err
        assert not out.exists()

    def test_summary_action_id_is_reserved(self, synth_dir, tmp_path, capsys):
        def reserve(entries):
            entries[2]["action_id"] = "summary"

        manifest = copy_dataset(synth_dir, tmp_path / "data", reserve)
        out = tmp_path / "desc"
        assert run("describe", "--manifest", manifest, "--jm", 3, "--out", out) == 1
        err = capsys.readouterr().err
        assert "'summary'" in err and "summary.json" in err
        assert not out.exists()

    def test_jm_beyond_joint_count_fails_before_writing(self, synth_dir, tmp_path, capsys):
        # the same check and message as every evaluation protocol
        out = tmp_path / "desc"
        assert run("describe", "--manifest", synth_dir / "manifest.json", "--jm", 11, "--out", out) == 1
        assert "error: jm=11 is outside [1, 10]" in capsys.readouterr().err
        assert not out.exists()

    def test_degenerate_action_fails_before_writing(self, synth_dir, tmp_path, capsys):
        manifest = copy_dataset(synth_dir, tmp_path / "data", lambda entries: None)
        entry = json.loads(manifest.read_text())["entries"][5]
        (manifest.parent / entry["path"]).write_text("1.0,2.0,3.0,4.0,5.0,6.0,7.0,8.0,9.0,10.0\n" * 90)
        out = tmp_path / "desc"
        assert run("describe", "--manifest", manifest, "--jm", 3, "--no-filter", "--out", out) == 1
        assert f"error: action {entry['action_id']!r}: degenerate action" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_is_byte_identical_per_descriptor(self, synth_dir, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert run("describe", "--manifest", synth_dir / "manifest.json",
                       "--jm", 3, "--out", out) == 0
        for f1 in sorted(out1.glob("c*.json")):
            assert f1.read_bytes() == (out2 / f1.name).read_bytes()


class TestCrossval:
    def test_disjoint_dataset_scores_perfectly(self, synth_dir, tmp_path):
        out = tmp_path / "report.json"
        assert run("crossval", "--manifest", synth_dir / "manifest.json",
                   "--jm", 3, "--metric", "csm", "--folds", 4, "--seed", 3,
                   "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["accuracy"]["mean"] == 1.0
        assert report["accuracy"]["std"] == 0.0

    def test_report_schema(self, synth_dir, tmp_path):
        out = tmp_path / "report.json"
        assert run("crossval", "--manifest", synth_dir / "manifest.json",
                   "--jm", 3, "--metric", "manhattan", "--features", "var-vel",
                   "--folds", 4, "--seed", 3, "--out", out) == 0
        report = json.loads(out.read_text())
        for key in ("dataset", "protocol", "classes", "accuracy", "precision",
                    "recall", "confusion", "folds", "timing"):
            assert key in report
        assert report["protocol"]["metric"] == "manhattan"
        assert len(report["folds"]) == 4
        confusion_csv = out.parent / "report.json.confusion.csv"
        assert confusion_csv.exists()
        rows = list(csv.reader(confusion_csv.open()))
        assert rows[0][0] == "true\\predicted"
        assert len(rows) == 1 + len(report["classes"])

    def test_confusion_csv_quotes_labels_with_commas_and_quotes(self, synth_dir, tmp_path):
        def relabel(entries):
            names = dict(zip(sorted({e["class_label"] for e in entries}), ["walk, fast", 'say "hi"']))
            for entry in entries:
                entry["class_label"] = names[entry["class_label"]]

        manifest = copy_dataset(synth_dir, tmp_path / "data", relabel)
        out = tmp_path / "report.json"
        assert run("crossval", "--manifest", manifest, "--jm", 3, "--folds", 4, "--seed", 3,
                   "--out", out) == 0
        classes = json.loads(out.read_text())["classes"]
        assert sorted(classes) == ['say "hi"', "walk, fast"]
        with open(tmp_path / "report.json.confusion.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["true\\predicted"] + classes
        assert [row[0] for row in rows[1:]] == classes
        assert all(len(row) == 1 + len(classes) for row in rows)

    def test_loo_when_folds_equal_dataset_size(self, synth_dir, tmp_path):
        out = tmp_path / "loo.json"
        with pytest.warns(UserWarning):
            code = run("crossval", "--manifest", synth_dir / "manifest.json",
                       "--jm", 3, "--folds", 16, "--seed", 0, "--out", out)
        assert code == 0
        report = json.loads(out.read_text())
        assert len(report["folds"]) == 16
        assert all(sum(map(sum, f["confusion"])) == 1 for f in report["folds"])

    def test_warning_prints_as_one_line(self, synth_dir, tmp_path):
        result = python("-m", "codemotion.cli", "crossval", "--manifest", synth_dir / "manifest.json",
                        "--jm", 3, "--folds", 16, "--seed", 0, "--out", tmp_path / "loo.json")
        assert result.stderr == (
            "warning: 2 class(es) have fewer than 16 items (class00, class01); stratification is best-effort\n"
        )

    def test_csv_format(self, synth_dir, tmp_path):
        out = tmp_path / "report.csv"
        assert run("crossval", "--manifest", synth_dir / "manifest.json",
                   "--jm", 3, "--folds", 4, "--seed", 3,
                   "--out", out, "--format", "csv") == 0
        rows = {row[0]: row[1] for row in csv.reader(out.open())}
        assert float(rows["accuracy_mean"]) == 1.0

    def test_flat_action_is_named_in_the_error(self, synth_dir, tmp_path, capsys):
        def flatten(entries):
            # every joint constant (90 frames x 10 joints, as in synth_dir)
            (tmp_path / "data" / entries[3]["path"]).write_text((",".join(["0.0"] * 10) + "\n") * 90)
            entries[3]["action_id"] = "flat_take"

        manifest = copy_dataset(synth_dir, tmp_path / "data", flatten)
        code = run("crossval", "--manifest", manifest, "--jm", 3, "--folds", 4, "--seed", 3,
                   "--out", tmp_path / "report.json")
        assert code == 1
        err = capsys.readouterr().err
        assert "degenerate action" in err and "'flat_take'" in err

    def test_overflowing_cell_is_named_in_the_error(self, synth_dir, tmp_path, capsys):
        def enlarge(entries):
            path = tmp_path / "data" / entries[3]["path"]
            rows = path.read_text().splitlines()
            rows[3] = "1e200," + rows[3].split(",", 1)[1]
            path.write_text("\n".join(rows) + "\n")
            entries[3]["action_id"] = "huge_take"

        manifest = copy_dataset(synth_dir, tmp_path / "data", enlarge)
        code = run("crossval", "--manifest", manifest, "--jm", 3, "--folds", 4, "--seed", 3,
                   "--out", tmp_path / "report.json")
        assert code == 1
        err = capsys.readouterr().err
        # one line, naming the action and the fault; the ufunc's name differs across numpy versions
        assert err.startswith("error: action 'huge_take': overflow encountered in ")
        assert err.count("\n") == 1

    def test_no_filter_equals_evaluate_on_the_raw_pool(self, noisy_dir, tmp_path):
        manifest = noisy_dir / "manifest.json"
        reports = {}
        for name, flags in (("raw", ["--no-filter"]), ("filtered", [])):
            out = tmp_path / f"{name}.json"
            assert run("crossval", "--manifest", manifest, "--jm", 4, "--folds", 3, "--seed", 2,
                       *flags, "--out", out) == 0
            reports[name] = json.loads(out.read_text())
            del reports[name]["timing"]
        raw = reports["raw"]
        assert raw.pop("protocol")["filter_cutoff_hz"] is None
        del raw["dataset"]
        actions = load_dataset(manifest)
        plan = SplitPlan.stratified_kfold([a.class_label for a in actions], 3, 2)
        expected = evaluate(actions, 4, MetricSpec(Metric.CSM), plan).to_dict()
        del expected["timing"]
        assert raw == expected
        # the filter changes the report on this set, so a run that filtered would show
        assert reports["filtered"]["folds"] != raw["folds"]

    def test_run_leaves_numpy_ma_unimported(self, synth_dir, tmp_path):
        # numpy.ma costs 12-15 ms to import and no command needs it
        loaded = run_python(
            "import sys\n"
            "from codemotion.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print('numpy.ma' in sys.modules)\n",
            "crossval", "--manifest", synth_dir / "manifest.json", "--jm", 3, "--folds", 4,
            "--seed", 3, "--out", tmp_path / "report.json",
        )
        assert loaded.splitlines()[-1] == "False"

    def test_seed_is_required(self, synth_dir, tmp_path, capsys):
        code = run("crossval", "--manifest", synth_dir / "manifest.json",
                   "--jm", 3, "--out", tmp_path / "x.json")
        assert code == 1
        assert "--seed" in capsys.readouterr().err


class TestCrossSubject:
    def test_split_and_report(self, synth_dir, tmp_path):
        out = tmp_path / "cs.json"
        assert run("cross-subject", "--manifest", synth_dir / "manifest.json",
                   "--jm", 3, "--train-subjects", "subject00", "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["accuracy"]["overall"] >= 0.9
        assert report["protocol"]["train_subjects"] == ["subject00"]

    def test_all_subjects_in_training_is_an_input_error(self, synth_dir, tmp_path, capsys):
        code = run("cross-subject", "--manifest", synth_dir / "manifest.json",
                   "--jm", 3, "--train-subjects", "subject00,subject01",
                   "--out", tmp_path / "x.json")
        assert code == 1
        assert "test split is empty" in capsys.readouterr().err

    def test_unknown_subject_is_an_input_error(self, synth_dir, tmp_path, capsys):
        code = run("cross-subject", "--manifest", synth_dir / "manifest.json",
                   "--jm", 3, "--train-subjects", "nobody", "--out", tmp_path / "x.json")
        assert code == 1
        assert "unknown subject" in capsys.readouterr().err


class TestSweep:
    def test_descriptor_len_column_matches_formula(self, synth_dir, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--manifest", synth_dir / "manifest.json",
                   "--jm", "2,3,5", "--metric", "csm,manhattan", "--features", "var,full",
                   "--folds", 4, "--seed", 3, "--out", out) == 0
        rows = list(csv.DictReader(out.open()))
        assert rows, "sweep wrote no rows"
        for row in rows:
            jm = int(row["jm"])
            assert int(row["descriptor_len"]) == jm * (jm + 7) // 2

    def test_csm_rows_use_full_features_only(self, synth_dir, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--manifest", synth_dir / "manifest.json",
                   "--jm", "3", "--metric", "csm", "--features", "var,var-vel,full",
                   "--folds", 4, "--seed", 3, "--out", out) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 1
        assert rows[0]["features"] == "full"

    def test_soft_comparison_is_reported_not_asserted(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--manifest", synth_dir / "manifest.json",
                   "--jm", "3", "--metric", "csm,manhattan", "--features", "full",
                   "--folds", 4, "--seed", 3, "--out", out) == 0
        captured = capsys.readouterr().out
        assert "csm" in captured and "manhattan" in captured

    @pytest.mark.parametrize("flag, value", [
        ("--jm", ","), ("--jm", "2,2"), ("--jm", "2,02"), ("--jm", "two"),
        ("--metric", ""), ("--metric", "csm,csm"),
        ("--features", ","), ("--features", "var, var"),
        ("--train-subjects", ","), ("--train-subjects", "subject00,subject00"),
    ])
    def test_empty_or_repeated_list_is_input_error(self, synth_dir, tmp_path, capsys, flag, value):
        # --train-subjects is cross-subject's list flag; the others are sweep's
        out = tmp_path / "sweep.csv"
        if flag == "--train-subjects":
            command = ["cross-subject", "--jm", 3]
        else:
            command = ["sweep", "--folds", 4, "--seed", 3]
        code = run(*command, "--manifest", synth_dir / "manifest.json", flag, value, "--out", out)
        assert code == 1
        assert f"error: {flag}: " in capsys.readouterr().err
        assert not out.exists()


class TestNoise:
    def test_sigma_zero_matches_crossval(self, synth_dir, tmp_path):
        report_path = tmp_path / "cv.json"
        noise_path = tmp_path / "noise.csv"
        assert run("crossval", "--manifest", synth_dir / "manifest.json",
                   "--jm", 3, "--folds", 4, "--seed", 3, "--out", report_path) == 0
        assert run("noise", "--manifest", synth_dir / "manifest.json",
                   "--jm", 3, "--folds", 4, "--seed", 3, "--sigmas", "2,0",
                   "--out", noise_path) == 0
        report = json.loads(report_path.read_text())
        rows = list(csv.DictReader(noise_path.open()))
        assert float(rows[0]["sigma_deg"]) == 0.0  # sorted ascending
        assert float(rows[0]["accuracy_mean"]) == report["accuracy"]["mean"]

    def test_rows_sorted_ascending(self, synth_dir, tmp_path):
        out = tmp_path / "noise.csv"
        assert run("noise", "--manifest", synth_dir / "manifest.json",
                   "--jm", 3, "--folds", 4, "--seed", 3, "--sigmas", "5,1,3",
                   "--out", out) == 0
        sigmas = [float(r["sigma_deg"]) for r in csv.DictReader(out.open())]
        assert sigmas == sorted(sigmas) == [1.0, 3.0, 5.0]

    @pytest.mark.parametrize("corrupt", [[], ["--corrupt-train"]], ids=["test-only", "corrupt-train"])
    def test_no_filter_equals_unfiltered_noise_sweep(self, noisy_dir, tmp_path, corrupt):
        manifest = noisy_dir / "manifest.json"
        rows = {}
        for name, flags in (("raw", ["--no-filter"]), ("filtered", [])):
            out = tmp_path / f"{name}.csv"
            assert run("noise", "--manifest", manifest, "--jm", 4, "--folds", 3, "--seed", 2,
                       "--sigmas", "0,3", *flags, *corrupt, "--out", out) == 0
            rows[name] = list(csv.reader(out.open()))[1:]
        actions = load_dataset(manifest)
        plan = SplitPlan.stratified_kfold([a.class_label for a in actions], 3, 2)
        reports = noise_sweep(actions, [0.0, 3.0], 4, MetricSpec(Metric.CSM), plan, seed=2,
                              filter_spec=None, corrupt_train=bool(corrupt))
        assert rows["raw"] == [
            [repr(s), repr(r.accuracy_mean), repr(r.accuracy_std)] for s, r in zip([0.0, 3.0], reports)
        ]
        # the filter changes the rows on this set, so a run that filtered would show
        assert rows["filtered"] != rows["raw"]

    def test_negative_sigma_is_input_error(self, synth_dir, tmp_path, capsys):
        code = run("noise", "--manifest", synth_dir / "manifest.json",
                   "--jm", 3, "--folds", 4, "--seed", 3, "--sigmas", "-1",
                   "--out", tmp_path / "x.csv")
        assert code == 1
        assert "non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [",", "", "1,1", "0,0.0", "x", "nan", "nan,nan", "inf"])
    def test_empty_repeated_or_non_finite_sigmas_is_input_error(self, synth_dir, tmp_path, capsys, value):
        out = tmp_path / "noise.csv"
        code = run("noise", "--manifest", synth_dir / "manifest.json",
                   "--jm", 3, "--folds", 4, "--seed", 3, "--sigmas", value, "--out", out)
        assert code == 1
        assert "error: --sigmas: " in capsys.readouterr().err
        assert not out.exists()


class TestReportFiles:
    def test_every_json_file_has_the_one_style(self, tmp_path):
        data = tmp_path / "data"
        assert run("gen-synth", "--classes", 2, "--per-class", 2, "--subjects", 2, "--joints", 6,
                   "--frames", 40, "--seed", 2, "--out-dir", data) == 0
        manifest = data / "manifest.json"
        assert run("describe", "--manifest", manifest, "--jm", 3, "--out", tmp_path / "descriptors") == 0
        assert run("crossval", "--manifest", manifest, "--jm", 3, "--folds", 2, "--seed", 1,
                   "--out", tmp_path / "report.json") == 0
        written = sorted(tmp_path.rglob("*.json"))
        assert len(written) == 1 + (8 + 1) + 1  # manifest, descriptors and summary, report
        for path in written:
            text = path.read_bytes().decode("utf-8")
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path

    @pytest.mark.parametrize("argv, kind", [
        (["crossval", "--folds", 4, "--seed", 3], "stratified-kfold"),
        (["cross-subject", "--train-subjects", "subject00"], "cross-subject"),
    ], ids=["crossval", "cross-subject"])
    def test_report_carries_the_plans_kind(self, synth_dir, tmp_path, monkeypatch, argv, kind):
        plans = []
        real = cli.evaluate

        def recording(actions, jm, spec, plan):
            plans.append(plan)
            return real(actions, jm, spec, plan)

        monkeypatch.setattr(cli, "evaluate", recording)
        out = tmp_path / "report.json"
        assert run(*argv, "--manifest", synth_dir / "manifest.json", "--jm", 3, "--out", out) == 0
        assert [plan.kind for plan in plans] == [kind]
        assert json.loads(out.read_text())["protocol"]["kind"] == kind


class TestLoadActions:
    def test_loaded_pool_is_handed_to_the_filter(self, tmp_path, monkeypatch):
        # Parsed in this process, so tracemalloc sees every array. Keeping the
        # raw pool until the filter returns would hold it twice.
        self.check_held_once(tmp_path, monkeypatch)

    def test_pool_of_several_chunks_is_held_once(self, tmp_path, monkeypatch):
        # 1 << 16 elements split the pool into four chunks of six actions, so
        # a buffer as wide as the pool would hold it about twice
        monkeypatch.setattr(ingest, "_FILTER_ELEMENTS", 1 << 16)
        self.check_held_once(tmp_path, monkeypatch)

    @staticmethod
    def check_held_once(tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        config = SyntheticConfig(classes=4, per_class=3, subjects=2, joints=20, frames=400, seed=3)
        manifest = save_dataset(*generate_synthetic(config), tmp_path / "data")
        args = build_parser().parse_args(
            ["describe", "--manifest", str(manifest), "--out", str(tmp_path / "out")]
        )
        actions, peak = traced_peak(lambda: _load_actions(args))
        assert peak < pool_held_once(24, 400, 20)
        expected = butterworth_filter(load_dataset(manifest), FilterSpec())
        assert [a.samples.tobytes() for a in actions] == [a.samples.tobytes() for a in expected]


class TestHandOver:
    """Every command lets go of the loaded pool once it is described.

    The actions are parsed in this process, as in ``TestLoadActions``, and a
    weakref to each filtered action must be dead by the first similarity
    matrix (for ``describe``, by the first descriptor file).
    """

    @pytest.fixture
    def manifest(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        config = SyntheticConfig(classes=3, per_class=4, subjects=2, joints=8, frames=60, seed=3)
        return save_dataset(*generate_synthetic(config), tmp_path / "data")

    @pytest.fixture
    def pool(self, monkeypatch):
        refs = []
        real = cli.butterworth_filter

        def recording(actions, spec):
            filtered = real(actions, spec)
            refs.extend(map(weakref.ref, filtered))
            return filtered

        monkeypatch.setattr(cli, "butterworth_filter", recording)
        return refs

    @pytest.mark.parametrize("command", [
        ["crossval", "--jm", 4, "--folds", 3, "--seed", 1],
        ["cross-subject", "--jm", 4, "--train-subjects", "subject00"],
        ["sweep", "--jm", "2,4", "--folds", 3, "--seed", 1],
    ], ids=["crossval", "cross-subject", "sweep"])
    def test_pool_freed_before_scoring(self, tmp_path, monkeypatch, manifest, pool, command):
        live = live_at_first_call(monkeypatch, evaluation, "similarity_matrix", pool)
        assert run(*command, "--manifest", manifest, "--out", tmp_path / "out") == 0
        assert len(pool) == 24
        assert live == [0]

    def test_describe_writes_from_ids_and_descriptors(self, tmp_path, monkeypatch, manifest, pool):
        live = live_at_first_call(monkeypatch, cli, "_write_json", pool)
        assert run("describe", "--manifest", manifest, "--jm", 4, "--out", tmp_path / "out") == 0
        assert len(pool) == 24
        assert live == [0]


class TestScipyFreeRuntime:
    def test_cli_import_loads_no_scipy(self):
        loaded = run_python(
            "import sys, codemotion.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert loaded.strip() == "[]"

    def test_outputs_equal_without_scipy(self, tmp_path):
        def commands(root):
            data = root / "data"
            manifest = data / "manifest.json"
            common = ["--jm", 4, "--folds", 3, "--seed", 2, "--filter-cutoff", 8, "--filter-order", 3]
            return [
                ["gen-synth", "--classes", 3, "--per-class", 3, "--subjects", 2, "--joints", 8,
                 "--frames", 50, "--frame-rate", 60, "--seed", 4, "--out-dir", data],
                ["crossval", "--manifest", manifest, *common, "--out", root / "cv.json"],
                ["noise", "--manifest", manifest, *common, "--sigmas", "0,3",
                 "--metric", "manhattan", "--features", "var-vel", "--out", root / "noise.csv"],
            ]

        for argv in commands(tmp_path / "normal"):
            assert run(*argv) == 0
        blocked = tmp_path / "blocked"
        run_python(
            "import json, sys\n"
            "sys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
            "from codemotion.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n",
            json.dumps([[str(a) for a in argv] for argv in commands(blocked)]),
        )
        normal_files = sorted(p.relative_to(tmp_path / "normal") for p in (tmp_path / "normal").rglob("*"))
        assert normal_files == sorted(p.relative_to(blocked) for p in blocked.rglob("*"))
        for rel in normal_files:
            want, got = (tmp_path / "normal" / rel), (blocked / rel)
            if rel.name == "cv.json":  # everything but the timing block
                want, got = json.loads(want.read_text()), json.loads(got.read_text())
                assert want.pop("timing").keys() == got.pop("timing").keys()
                assert want == got
            elif want.is_file():
                assert want.read_bytes() == got.read_bytes(), rel


class TestExitCodes:
    def test_missing_manifest_is_input_error(self, tmp_path, capsys):
        code = run("describe", "--manifest", tmp_path / "nope.json",
                   "--jm", 3, "--out", tmp_path / "out")
        assert code == 1
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["crossval", "--seed", 1, "--metric", "csm", "--features", "var"], "features must be 'full'"),
        (["cross-subject", "--train-subjects", "s0", "--features", "var-vel"], "features must be 'full'"),
        (["crossval", "--seed", 1, "--filter-order", 0], "order must be at least 1, got 0"),
        (["describe", "--filter-cutoff", 0], "cutoff_hz must be positive, got 0.0"),
        (["sweep", "--seed", 1, "--filter-cutoff", -1], "cutoff_hz must be positive, got -1.0"),
        (["crossval", "--seed", 1, "--filter-cutoff", "inf"], "cutoff_hz must be finite, got inf"),
        (["noise", "--seed", 1, "--filter-cutoff", "nan"], "cutoff_hz must be finite, got nan"),
        (["sweep", "--seed", 1, "--jm", "2,2"], "--jm: value '2' repeats an earlier value"),
        (["sweep", "--seed", 1, "--metric", "csm,cosine"], "unknown metric 'cosine'"),
        (["sweep", "--seed", 1, "--features", "var,all"], "unknown feature set 'all'"),
        (["noise", "--seed", 1, "--sigmas", "1,1"], "--sigmas: value '1' repeats an earlier value"),
        (["noise", "--seed", 1, "--sigmas", "-1"], "--sigmas: noise standard deviations must be finite"),
        (["noise", "--seed", 1, "--metric", "csm", "--features", "var"], "features must be 'full'"),
        (["noise", "--seed", 1, "--filter-order", 0], "order must be at least 1, got 0"),
        (["crossval", "--seed", -1], "argument --seed: must be a non-negative integer, got '-1'"),
        (["sweep", "--seed", -1], "argument --seed: must be a non-negative integer, got '-1'"),
        (["noise", "--seed", -1], "argument --seed: must be a non-negative integer, got '-1'"),
        (["crossval", "--seed", 1, "--folds", 1], "argument --folds: must be an integer of at least 2, got '1'"),
        (["sweep", "--seed", 1, "--folds", 0], "argument --folds: must be an integer of at least 2, got '0'"),
        (["noise", "--seed", 1, "--folds", -3], "argument --folds: must be an integer of at least 2, got '-3'"),
        (["describe", "--jm", 0], "argument --jm: must be an integer of at least 1, got '0'"),
        (["crossval", "--seed", 1, "--jm", -2], "argument --jm: must be an integer of at least 1, got '-2'"),
        (["sweep", "--seed", 1, "--jm", "5,0"], "error: --jm: must be an integer of at least 1, got '0'"),
    ], ids=[
        "crossval-csm-features", "cross-subject-csm-features", "crossval-filter-order",
        "describe-filter-cutoff", "sweep-filter-cutoff", "crossval-infinite-cutoff", "noise-nan-cutoff", "sweep-jm", "sweep-metric", "sweep-features",
        "noise-repeated-sigmas", "noise-negative-sigma", "noise-csm-features", "noise-filter-order",
        "crossval-negative-seed", "sweep-negative-seed", "noise-negative-seed",
        "crossval-one-fold", "sweep-zero-folds", "noise-negative-folds",
        "describe-zero-jm", "crossval-negative-jm", "sweep-zero-jm",
    ])
    def test_flags_are_checked_before_the_manifest_is_read(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert run(*argv, "--manifest", tmp_path / "nope.json", "--out", out) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "not found" not in err
        assert not out.exists()

    def test_negative_seed_rejected_before_gen_synth_writes(self, tmp_path, capsys):
        out = tmp_path / "synth"
        assert run("gen-synth", "--classes", 2, "--per-class", 2, "--subjects", 1,
                   "--seed", -1, "--out-dir", out) == 1
        err = capsys.readouterr().err
        assert "--seed" in err and "-1" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, field", [
        (["--noise-std", -1], "noise_deg"),
        (["--noise-std", "nan"], "noise_deg"),
        (["--amplitude", "inf"], "amplitude_deg"),
        (["--amplitude", "nan"], "amplitude_deg"),
    ], ids=["negative-noise", "nan-noise", "infinite-amplitude", "nan-amplitude"])
    def test_bad_float_field_rejected_before_gen_synth_writes(self, tmp_path, capsys, argv, field):
        out = tmp_path / "synth"
        assert run("gen-synth", "--classes", 2, "--per-class", 2, "--subjects", 1,
                   "--seed", 1, *argv, "--out-dir", out) == 1
        assert f"error: {field} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("digits", [401, 5001], ids=["past-float-range", "past-int-digit-limit"])
    def test_oversized_manifest_number_is_input_error(self, tmp_path, capsys, digits):
        # 401 digits overflow float(); 5001 exceed the 4300 digits json parses into an int
        manifest = tmp_path / "manifest.json"
        rate = "1" + "0" * (digits - 1)
        manifest.write_text(
            '{"entries": [{"path": "a.csv", "class_label": "c", "subject_id": "s", '
            f'"action_id": "a", "frame_rate": {rate}}}]}}'
        )
        assert run("describe", "--manifest", manifest, "--jm", 3, "--out", tmp_path / "desc") == 1
        assert capsys.readouterr().err.startswith(f"error: {manifest}: ")

    @pytest.mark.parametrize("entries", [5, None, []])
    def test_malformed_entries_is_input_error(self, tmp_path, capsys, entries):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"dataset_name": "x", "entries": entries}))
        out = tmp_path / "desc"
        assert run("describe", "--manifest", manifest, "--jm", 3, "--out", out) == 1
        err = capsys.readouterr().err
        assert f"{manifest}: 'entries' must be a non-empty list" in err
        assert not out.exists()

    @pytest.mark.parametrize("entry, shown", [(None, "null"), ("a.csv", '"a.csv"')], ids=["null", "string"])
    def test_non_object_entry_is_input_error(self, tmp_path, capsys, entry, shown):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"dataset_name": "x", "entries": [entry]}))
        assert run("describe", "--manifest", manifest, "--jm", 3, "--out", tmp_path / "desc") == 1
        assert capsys.readouterr().err == f"error: {manifest}: entry 0 must be a JSON object, got {shown}\n"

    def test_cutoff_above_nyquist_names_the_action(self, synth_dir, tmp_path, capsys):
        def slow_fourth(entries):
            entries[3]["frame_rate"] = 20.0

        manifest = copy_dataset(synth_dir, tmp_path / "data", slow_fourth)
        action_id = json.loads(manifest.read_text())["entries"][3]["action_id"]
        code = run("crossval", "--manifest", manifest, "--jm", 3, "--folds", 4, "--seed", 3,
                   "--filter-cutoff", 12, "--out", tmp_path / "cv.json")
        assert code == 1
        err = capsys.readouterr().err
        assert "Nyquist frequency 10.0 Hz of a 20.0 Hz recording" in err
        assert f"(action {action_id!r})" in err

    @pytest.mark.parametrize("argv", [
        ["crossval", "--folds", 4, "--seed", 3],
        ["describe", "--no-filter"],
    ], ids=["crossval", "describe-no-filter"])
    def test_infinite_frame_rate_is_named_before_any_csv_is_parsed(self, synth_dir, tmp_path, capsys, argv):
        def infinite_sixth(entries):
            entries[5]["frame_rate"] = float("inf")

        manifest = copy_dataset(synth_dir, tmp_path / "data", infinite_sixth)
        entries = json.loads(manifest.read_text())["entries"]
        # a file the parser rejects, listed first: its error would win once parsing began
        (manifest.parent / entries[0]["path"]).write_text("1,x\n")
        out = tmp_path / "out"
        assert run(*argv, "--manifest", manifest, "--jm", 3, "--out", out) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: {manifest}: manifest entry 5 ({entries[5]['action_id']!r}): "
            "frame_rate must be positive and finite, got inf\n"
        )
        assert not out.exists()

    def test_null_class_label_is_named_before_any_csv_is_parsed(self, synth_dir, tmp_path, capsys):
        def null_third(entries):
            entries[2]["class_label"] = None

        manifest = copy_dataset(synth_dir, tmp_path / "data", null_third)
        entries = json.loads(manifest.read_text())["entries"]
        (manifest.parent / entries[0]["path"]).write_text("1,x\n")
        out = tmp_path / "cv.json"
        assert run("crossval", "--manifest", manifest, "--jm", 3, "--folds", 4, "--seed", 3, "--out", out) == 1
        err = capsys.readouterr().err
        assert err == f"error: {manifest}: entry 2: 'class_label' must be a string or a number, got null\n"
        assert not out.exists()

    def test_non_utf8_csv_is_named(self, synth_dir, tmp_path, capsys):
        manifest = copy_dataset(synth_dir, tmp_path / "data", lambda entries: None)
        csv_path = manifest.parent / json.loads(manifest.read_text())["entries"][2]["path"]
        csv_path.write_bytes(b"\xff" + csv_path.read_bytes())
        code = run("crossval", "--manifest", manifest, "--jm", 3, "--folds", 4, "--seed", 3,
                   "--out", tmp_path / "cv.json")
        assert code == 1
        assert f"{csv_path}, line 1: not UTF-8 (byte 0xff)" in capsys.readouterr().err

    def test_non_utf8_manifest_is_named(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(b'\xff{"entries": []}')
        out = tmp_path / "desc"
        assert run("describe", "--manifest", manifest, "--out", out) == 1
        assert capsys.readouterr().err == f"error: {manifest}, line 1: not UTF-8 (byte 0xff)\n"
        assert not out.exists()

    def test_unknown_flag_is_input_error(self, capsys):
        assert run("describe", "--bogus") == 1

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0

    def test_internal_error_exits_two(self, synth_dir, tmp_path, monkeypatch, capsys):
        import codemotion.cli as cli

        def boom(args):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(cli, "cmd_describe", boom)
        parser = cli.build_parser()
        args = parser.parse_args(["describe", "--manifest", str(synth_dir / "manifest.json"),
                                  "--out", str(tmp_path / "x")])
        monkeypatch.setattr(args, "func", boom)

        def fake_parse(self, argv=None):
            return args

        monkeypatch.setattr(cli._Parser, "parse_args", fake_parse)
        assert cli.main(["describe"]) == 2
        assert "internal error" in capsys.readouterr().err

    def test_full_precision_output(self, synth_dir, tmp_path):
        out = tmp_path / "noise.csv"
        assert run("noise", "--manifest", synth_dir / "manifest.json",
                   "--jm", 3, "--folds", 3, "--seed", 3, "--sigmas", "0,0.5",
                   "--out", out) == 0
        for row in csv.DictReader(out.open()):
            value = row["accuracy_mean"]
            assert float(value) == float(repr(float(value)))  # repr round-trip
