"""Command-line experiments: descriptors, cross-validation, sweeps, noise, synthetic data."""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from pathlib import Path

from .descriptor import DegenerateActionError, _layout, stacked_length
from .evaluation import SplitPlan, _describe, _pool, evaluate, mij_sweep, noise_sweep
from .ingest import (
    DatasetError,
    FilterSpec,
    SyntheticConfig,
    butterworth_filter,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from .similarity import FeatureSet, Metric, MetricSpec

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # Input and usage errors exit with code 1; argparse's default is 2.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value: float) -> str:
    """Full-precision text for CSV cells (repr round-trips float64 exactly)."""
    return repr(float(value))


def _add_filter_flags(parser) -> None:
    parser.add_argument("--filter-cutoff", type=float, default=10.0, metavar="HZ",
                        help="low-pass cutoff frequency (default 10)")
    parser.add_argument("--filter-order", type=int, default=2, metavar="N",
                        help="Butterworth order (default 2)")
    parser.add_argument("--no-filter", action="store_true",
                        help="skip the low-pass preprocessing step")


def _filter_spec(args) -> FilterSpec | None:
    if args.no_filter:
        return None
    return FilterSpec(cutoff_hz=args.filter_cutoff, order=args.filter_order)


def _load_actions(args):
    # An iterator, not the list, so that this frame holds no reference once
    # the filter has taken the actions, and the filter can free each raw action
    # as it buffers it. Python 3.10 keeps a list passed as an argument alive
    # in the caller for the whole call; an exhausted iterator lets go of it.
    spec = _filter_spec(args)
    actions = iter(load_dataset(args.manifest))
    return list(actions) if spec is None else butterworth_filter(actions, spec)


def _hand_over(args, split):
    """The loaded actions as an iterator, and the plan that ``split`` builds from them.

    The evaluation takes the iterator, so once it has described the actions
    it holds the only reference and frees them before scoring; a list would
    stay alive in this module's frames for the whole call.
    """
    actions = _load_actions(args)
    return iter(actions), split(actions)


def _seed(text: str) -> int:
    """The value of ``--seed``: numpy's generators take a non-negative integer only."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _at_least(low: int):
    """An integer flag's type, with the lower bound that needs no data: ``--folds`` 2, ``--jm`` 1."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer of at least {low}, got {text!r}")
        return value

    parse.__name__ = "int"  # argparse names the type of a value int() rejects: "invalid int value"
    return parse


def _kfold(args):
    """The split of ``--folds`` and ``--seed``: a stratified k-fold plan of the loaded actions."""
    return lambda actions: SplitPlan.stratified_kfold([a.class_label for a in actions], args.folds, args.seed)


def _metric_spec(args) -> MetricSpec:
    return MetricSpec.parse(args.metric, args.features)


def _list_flag(text: str, flag: str, parse=str) -> list:
    """The parsed values of a comma-separated list flag, none of them repeated, at least one."""
    values = []
    for item in filter(None, map(str.strip, text.split(","))):
        try:
            value = parse(item)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(f"{flag}: {exc}") from None
        except ValueError:
            raise ValueError(f"{flag}: invalid value {item!r}") from None
        if value in values:
            raise ValueError(f"{flag}: value {item!r} repeats an earlier value")
        values.append(value)
    if not values:
        raise ValueError(f"{flag}: the list is empty")
    return values


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows([header, *rows])


def _write_confusion_csv(path, report) -> None:
    header = ["true\\predicted"] + list(report.class_labels)
    rows = [
        [label] + [int(n) for n in row]
        for label, row in zip(report.class_labels, report.confusion)
    ]
    _write_csv(path, header, rows)


def _write_report(args, report, protocol) -> None:
    out = Path(args.out)
    if args.format == "csv":
        rows = [
            ("accuracy_overall", _fmt(report.accuracy)),
            ("accuracy_mean", _fmt(report.accuracy_mean)),
            ("accuracy_std", _fmt(report.accuracy_std)),
            ("precision_macro", _fmt(report.macro_precision)),
            ("precision_mean", _fmt(report.precision_mean)),
            ("precision_std", _fmt(report.precision_std)),
            ("recall_macro", _fmt(report.macro_recall)),
            ("recall_mean", _fmt(report.recall_mean)),
            ("recall_std", _fmt(report.recall_std)),
            ("descriptor_time_s", _fmt(report.descriptor_time)),
            ("classify_time_s", _fmt(report.classify_time)),
        ]
        _write_csv(out, ["metric", "value"], rows)
    else:
        payload = report.to_dict()
        payload["dataset"] = Path(args.manifest).stem
        payload["protocol"] = protocol
        out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _write_confusion_csv(out.with_suffix(out.suffix + ".confusion.csv"), report)


def _sanitize(name: str) -> str:
    return "".join(c if (c.isalnum() or c in "-_.") else "_" for c in name)


def cmd_describe(args) -> int:
    actions, _ = _pool(_load_actions(args), [args.jm])
    ids = [a.action_id for a in actions]
    names = [f"{_sanitize(action_id)}.json" for action_id in ids]
    owners = {}
    for action_id, name in zip(ids, names):
        if name == "summary.json":
            raise ValueError(
                f"action id {action_id!r} maps to output file summary.json, "
                "which is reserved for the run summary"
            )
        if name in owners:
            raise ValueError(
                f"action ids {owners[name]!r} and {action_id!r} both map to output file {name}"
            )
        owners[name] = action_id
    descriptors, elapsed = _describe(actions, args.jm)
    del actions  # the files need only the ids and the descriptors
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for action_id, desc, name in zip(ids, descriptors, names):
        payload = {"action_id": action_id, "jm": desc.jm}
        payload.update((name, getattr(desc, name).tolist()) for name in _layout(desc.jm))
        (out_dir / name).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    summary = {
        "dataset": Path(args.manifest).stem,
        "actions": len(ids),
        "jm": args.jm,
        "stacked_length": stacked_length(args.jm),
        "descriptor_time_s": elapsed,
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(
        f"wrote {len(ids)} descriptors (stacked length {stacked_length(args.jm)}) "
        f"to {out_dir} in {elapsed:.3f}s"
    )
    return 0


def _evaluate_split(args, split, protocol):
    """Load, run 1-NN over the plan that ``split`` builds from the actions, write the report.

    ``protocol`` holds the report keys of the split's own kind; the keys
    every split shares are added here.
    """
    spec = _metric_spec(args)
    actions, plan = _hand_over(args, split)
    report = evaluate(actions, args.jm, spec, plan)
    protocol.update(
        jm=args.jm,
        metric=args.metric,
        features=args.features,
        filter_cutoff_hz=None if args.no_filter else args.filter_cutoff,
    )
    _write_report(args, report, protocol)
    return report


def cmd_crossval(args) -> int:
    report = _evaluate_split(
        args,
        _kfold(args),
        {"kind": "stratified-kfold", "folds": args.folds, "seed": args.seed},
    )
    print(
        f"accuracy {report.accuracy_mean:.4f} +/- {report.accuracy_std:.4f} "
        f"({args.folds}-fold, jm={args.jm}, {args.metric})"
    )
    return 0


def cmd_cross_subject(args) -> int:
    train_subjects = _list_flag(args.train_subjects, "--train-subjects")
    report = _evaluate_split(
        args,
        lambda actions: SplitPlan.cross_subject([a.subject_id for a in actions], train_subjects),
        {"kind": "cross-subject", "train_subjects": train_subjects},
    )
    print(f"cross-subject accuracy {report.accuracy:.4f} (jm={args.jm}, {args.metric})")
    return 0


def cmd_sweep(args) -> int:
    jm_values = _list_flag(args.jm, "--jm", _at_least(1))
    metrics = _list_flag(args.metric, "--metric")
    features = _list_flag(args.features, "--features")
    specs = []
    for metric in metrics:
        if metric == Metric.CSM.value:
            specs.append(MetricSpec.parse(metric, "full"))
        else:
            specs.extend(MetricSpec.parse(metric, f) for f in features)
    actions, plan = _hand_over(args, _kfold(args))
    reports = mij_sweep(actions, jm_values, specs, plan)
    cells = list(zip(itertools.product(jm_values, specs), reports))
    rows = [
        (
            jm,
            spec.kind.value,
            spec.features.value,
            _fmt(report.accuracy_mean),
            _fmt(report.accuracy_std),
            stacked_length(jm),
        )
        for (jm, spec), report in cells
    ]
    _write_csv(args.out, ["jm", "metric", "features", "accuracy_mean", "accuracy_std", "descriptor_len"], rows)
    # Soft comparison, reported but never asserted: CSM tends to win at small jm.
    by_key = {(jm, spec.kind.value): report.accuracy_mean for (jm, spec), report in cells}
    for jm in jm_values:
        csm_acc = by_key.get((jm, "csm"))
        man_acc = by_key.get((jm, "manhattan"))
        if csm_acc is not None and man_acc is not None:
            print(f"jm={jm}: csm {csm_acc:.4f} vs manhattan {man_acc:.4f}")
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return 0


def cmd_noise(args) -> int:
    spec = _metric_spec(args)
    filter_spec = _filter_spec(args)
    sigmas = sorted(_list_flag(args.sigmas, "--sigmas", float))
    if not all(math.isfinite(s) and s >= 0 for s in sigmas):
        raise ValueError("--sigmas: noise standard deviations must be finite and non-negative")
    actions = load_dataset(args.manifest)  # raw: noise must land before filtering
    plan = _kfold(args)(actions)
    reports = noise_sweep(
        actions, sigmas, args.jm, spec, plan,
        seed=args.seed, filter_spec=filter_spec, corrupt_train=args.corrupt_train,
    )
    _write_csv(
        args.out,
        ["sigma_deg", "accuracy_mean", "accuracy_std"],
        [(_fmt(s), _fmt(r.accuracy_mean), _fmt(r.accuracy_std)) for s, r in zip(sigmas, reports)],
    )
    print(f"wrote {len(reports)} noise rows to {args.out}")
    return 0


def cmd_gen_synth(args) -> int:
    config = SyntheticConfig(
        classes=args.classes,
        per_class=args.per_class,
        subjects=args.subjects,
        joints=args.joints,
        frames=args.frames,
        frame_rate=args.frame_rate,
        seed=args.seed,
        active_per_class=args.active_joints,
        amplitude_deg=args.amplitude,
        noise_deg=args.noise_std,
        disjoint_classes=args.disjoint,
    )
    actions, manifest = generate_synthetic(config)
    manifest_path = save_dataset(actions, manifest, args.out_dir)
    print(f"wrote {len(actions)} actions and {manifest_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="codemotion", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def dataset_args(p, seed=False, metric=False, folds=False):
        p.add_argument("--manifest", required=True, metavar="PATH", help="dataset manifest JSON")
        p.add_argument("--jm", type=_at_least(1), default=20, metavar="N",
                       help="number of most informative joints (default 20)")
        _add_filter_flags(p)
        if metric:
            p.add_argument("--metric", default="csm", choices=[m.value for m in Metric])
            p.add_argument("--features", default="full", choices=[f.value for f in FeatureSet])
        if folds:
            p.add_argument("--folds", type=_at_least(2), default=10, metavar="K")
        if seed:
            p.add_argument("--seed", type=_seed, required=True, metavar="N",
                           help="required: all randomness is explicit")

    p = sub.add_parser("describe", help="write one descriptor JSON per action plus a summary")
    dataset_args(p)
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("crossval", help="stratified k-fold 1-NN evaluation")
    dataset_args(p, seed=True, metric=True, folds=True)
    p.add_argument("--out", required=True, metavar="PATH")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("cross-subject", help="single train/test split by performer")
    dataset_args(p, metric=True)
    p.add_argument("--train-subjects", required=True, metavar="LIST",
                   help="comma-separated subject ids used for training")
    p.add_argument("--out", required=True, metavar="PATH")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.set_defaults(func=cmd_cross_subject)

    p = sub.add_parser("sweep", help="accuracy over MIJ counts and metrics")
    p.add_argument("--manifest", required=True, metavar="PATH")
    p.add_argument("--jm", default="5,10,20", metavar="LIST",
                   help="comma-separated MIJ counts (default 5,10,20)")
    p.add_argument("--metric", default="csm,euclidean,manhattan", metavar="LIST",
                   help="comma-separated metrics")
    p.add_argument("--features", default="var,var-vel,full", metavar="LIST",
                   help="comma-separated feature sets for the baseline metrics")
    p.add_argument("--folds", type=_at_least(2), default=10, metavar="K")
    p.add_argument("--seed", type=_seed, required=True, metavar="N")
    _add_filter_flags(p)
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("noise", help="accuracy under additive Gaussian angle noise")
    dataset_args(p, seed=True, metric=True, folds=True)
    p.add_argument("--sigmas", default="0,1,2,3,4,5", metavar="LIST",
                   help="comma-separated noise standard deviations in degrees")
    p.add_argument("--corrupt-train", action="store_true",
                   help="corrupt training items too (default: test items only)")
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("gen-synth", help="generate a synthetic coordinated-motion dataset")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--subjects", type=int, required=True)
    p.add_argument("--joints", type=int, default=20)
    p.add_argument("--frames", type=int, default=240)
    p.add_argument("--frame-rate", type=float, default=30.0)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--active-joints", type=int, default=None,
                   help="active joints per class (default joints // 5, at least 2)")
    p.add_argument("--amplitude", type=float, default=30.0, help="sinusoid amplitude in degrees")
    p.add_argument("--noise-std", type=float, default=0.5, help="sample noise in degrees")
    p.add_argument("--disjoint", action="store_true",
                   help="give every class its own block of active joints")
    p.add_argument("--out-dir", required=True, metavar="DIR")
    p.set_defaults(func=cmd_gen_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (DatasetError, DegenerateActionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - anything else is an internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
