"""Command-line experiments: descriptors, cross-validation, sweeps, noise, synthetic data."""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import sys
import warnings
from dataclasses import fields
from pathlib import Path

# perfbench/tracer.py replaces load_dataset, butterworth_filter, evaluate and
# mij_sweep on this module, and binds evaluate's ``plan`` and mij_sweep's
# ``jm_values``, ``specs`` and ``plan`` by name. So the commands call them as
# module-level names, looked up at call time, with those parameter names.
# ROADMAP item 4, which deletes the tracer, lifts this constraint.
from .descriptor import _layout, stacked_length
from .evaluation import SplitPlan, _describe, _pool, evaluate, mij_sweep, noise_sweep
from .ingest import (
    FilterSpec,
    SyntheticConfig,
    _decimal,
    _shown,
    _write_json,
    butterworth_filter,
    generate_synthetic,
    load_dataset,
    load_manifest,
    save_dataset,
)
from .similarity import FeatureSet, Metric, MetricSpec, _parse_features, _parse_metric

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # Input and usage errors exit with code 1; argparse's default is 2.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value: float) -> str:
    """Full-precision text for CSV cells (repr round-trips float64 exactly)."""
    return repr(float(value))


def _add_filter_flags(parser) -> None:
    spec = FilterSpec()
    parser.add_argument("--filter-cutoff", type=_flag(_decimal), default=spec.cutoff_hz, metavar="HZ",
                        help="low-pass cutoff frequency (default %(default)g)")
    parser.add_argument("--filter-order", type=_integer(), default=spec.order, metavar="N",
                        help="Butterworth order (default %(default)g)")
    parser.add_argument("--no-filter", action="store_true",
                        help="skip the low-pass preprocessing step")


def _filter_spec(args) -> FilterSpec | None:
    """The filter flags' spec, checked even under ``--no-filter``, which then makes it None."""
    spec = FilterSpec(cutoff_hz=args.filter_cutoff, order=args.filter_order)
    return None if args.no_filter else spec


def _load_actions(args):
    """The filtered pool as an iterator, so the caller holds the only reference and frees it once described."""
    spec = _filter_spec(args)
    # An iterator, not the list, so that this frame holds no reference once
    # the filter has taken the actions, and the filter can free each raw action
    # as it buffers it. Python 3.10 keeps a list passed as an argument alive
    # in the caller for the whole call; an exhausted iterator lets go of it.
    actions = iter(load_dataset(args.manifest))
    return iter(list(actions) if spec is None else butterworth_filter(actions, spec))


def _manifest_column(args, name: str) -> list[str]:
    """Field ``name`` of every manifest entry, so a plan is checked before any CSV is parsed."""
    _filter_spec(args)  # the filter flags need no file, so their errors come first
    return [getattr(entry, name) for entry in load_manifest(args.manifest).entries]


def _integer(low: float = -math.inf, bounded: bool = True):
    """An integer flag's type: ASCII digits after an optional minus, and at least ``low``.

    A ``bounded`` flag's magnitude is at most ``sys.maxsize``, numpy's index range; ``--seed`` alone is unbounded.
    """
    # The CLI owns the bounds of --seed, --folds and --jm; the library checks the rest
    # (FilterSpec's order, SyntheticConfig's fields) with its own messages.
    wanted = {-math.inf: "an integer", 0: "a non-negative integer"}.get(low, f"an integer of at least {low}")

    def parse(text: str) -> int:
        digits = text.removeprefix("-")
        try:  # no plus sign, space, underscore or non-ASCII digit, all of which int() reads
            value = int(text) if digits.isascii() and digits.isdigit() else None
        except ValueError:  # past Python's digit limit; the digits themselves are not echoed
            raise argparse.ArgumentTypeError(
                f"has {len(digits)} digits, more than Python converts to an integer "
                f"(sys.get_int_max_str_digits() is {sys.get_int_max_str_digits()})"
            ) from None
        if bounded and value is not None and abs(value) > sys.maxsize:  # nor are these digits
            raise argparse.ArgumentTypeError(
                f"has {len(digits)} digits, past numpy's index range (magnitude at most {sys.maxsize})"
            )
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {_shown(text)}")
        return value

    return parse


def _kfold(args) -> SplitPlan:
    """The stratified k-fold plan of ``--folds`` and ``--seed`` over the manifest's labels."""
    return SplitPlan.stratified_kfold(_manifest_column(args, "class_label"), args.folds, args.seed)


def _cross_subject(args) -> SplitPlan:
    """The cross-subject plan of ``--train-subjects`` over the manifest's subjects."""
    return SplitPlan.cross_subject(_manifest_column(args, "subject_id"), args.train_subjects)


def _sigma(text: str) -> float:
    """One ``--sigmas`` value: a noise standard deviation in degrees."""
    value = _decimal(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"noise standard deviations must be finite and non-negative, got {value}")
    return value + 0.0  # -0 becomes 0.0, so the noise CSV never reads -0.0


def _flag(parse):
    """A flag's type that fails the flag with the message of ``parse``'s ``ValueError``."""
    def parse_flag(text: str):
        try:
            return parse(text)
        except ValueError as exc:  # argparse.ArgumentTypeError passes through as it is
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse_flag


def _list_of(parse=str):
    """A comma-separated list flag's type: blanks dropped, at least one value, none repeated once parsed.

    A value that ``parse`` rejects fails the flag with ``parse``'s own message.
    """
    parse = _flag(parse)

    def parse_list(text: str) -> list:
        values = []
        for item in filter(None, map(str.strip, text.split(","))):
            value = parse(item)
            if value in values:
                raise argparse.ArgumentTypeError(f"value {_shown(item)} repeats an earlier value")
            values.append(value)
        if not values:
            raise argparse.ArgumentTypeError("the list is empty")
        return values

    return parse_list


def _write_csv(path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows([header, *rows])


def _write_report(args, report, protocol) -> None:
    """The ``--format`` report at ``--out`` and the confusion CSV beside it, all from one ``report.to_dict()``."""
    out = Path(args.out)
    figures = report.to_dict()
    if args.format == "csv":
        rows = [
            (f"{group}_{key}", _fmt(value))
            for group in ("accuracy", "precision", "recall")
            for key, value in figures[group].items()
            if isinstance(value, float)  # not the per-fold and per-class figures
        ]
        timing = figures["timing"]
        rows += [("descriptor_time_s", _fmt(timing["descriptor_s"])), ("classify_time_s", _fmt(timing["classify_s"]))]
        _write_csv(out, ["metric", "value"], rows)
    else:
        _write_json(out, {**figures, "dataset": Path(args.manifest).stem, "protocol": protocol})
    classes = figures["classes"]
    _write_csv(out.with_suffix(out.suffix + ".confusion.csv"), ["true\\predicted", *classes],
               [[label, *row] for label, row in zip(classes, figures["confusion"])])


def _sanitize(name: str) -> str:
    return "".join(c if (c.isalnum() or c in "-_.") else "_" for c in name)


def cmd_describe(args) -> int:
    ids = _manifest_column(args, "action_id")  # the output names are checked before any CSV is parsed
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
    actions, _ = _pool(_load_actions(args), [args.jm])
    descriptors, elapsed = _describe(actions, args.jm)
    del actions  # the files need only the ids and the descriptors
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for action_id, desc, name in zip(ids, descriptors, names):
        payload = {"action_id": action_id, "jm": desc.jm}
        payload.update((name, getattr(desc, name).tolist()) for name in _layout(desc.jm))
        _write_json(out_dir / name, payload)
    _write_json(out_dir / "summary.json", {
        "dataset": Path(args.manifest).stem,
        "actions": len(ids),
        "jm": args.jm,
        "stacked_length": stacked_length(args.jm),
        "descriptor_time_s": elapsed,
    })
    print(
        f"wrote {len(ids)} descriptors (stacked length {stacked_length(args.jm)}) "
        f"to {out_dir} in {elapsed:.3f}s"
    )
    return 0


def _evaluate_split(args, plan_of, protocol):
    """Check the flags, build the plan ``plan_of(args)``, load, run 1-NN over the plan, write the report.

    ``protocol`` holds the report keys of the plan's own kind; the plan's
    ``kind`` and the keys every plan shares are added here.
    """
    spec = MetricSpec(args.metric, args.features)
    plan = plan_of(args)
    report = evaluate(_load_actions(args), args.jm, spec, plan)
    protocol.update(
        kind=plan.kind,
        jm=args.jm,
        metric=args.metric.value,
        features=args.features.value,
        filter_cutoff_hz=None if args.no_filter else args.filter_cutoff,
    )
    _write_report(args, report, protocol)
    return report


def cmd_crossval(args) -> int:
    report = _evaluate_split(args, _kfold, {"folds": args.folds, "seed": args.seed})
    print(
        f"accuracy {report.accuracy_mean:.4f} +/- {report.accuracy_std:.4f} "
        f"({args.folds}-fold, jm={args.jm}, {args.metric.value})"
    )
    return 0


def cmd_cross_subject(args) -> int:
    report = _evaluate_split(args, _cross_subject, {"train_subjects": args.train_subjects})
    print(f"cross-subject accuracy {report.accuracy:.4f} (jm={args.jm}, {args.metric.value})")
    return 0


def cmd_sweep(args) -> int:
    specs = [
        MetricSpec(metric, features)
        for metric in args.metric
        for features in ([FeatureSet.FULL] if metric is Metric.CSM else args.features)
    ]
    plan = _kfold(args)
    reports = mij_sweep(_load_actions(args), args.jm, specs, plan)
    cells = list(zip(itertools.product(args.jm, specs), reports))
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
    # Manhattan is compared on the full feature set, the one CSM reads.
    accuracy = {(jm, spec): report.accuracy_mean for (jm, spec), report in cells}
    for jm in args.jm:
        csm_acc = accuracy.get((jm, MetricSpec(Metric.CSM)))
        man_acc = accuracy.get((jm, MetricSpec(Metric.MANHATTAN)))
        if csm_acc is not None and man_acc is not None:
            print(f"jm={jm}: csm {csm_acc:.4f} vs manhattan {man_acc:.4f}")
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return 0


def cmd_noise(args) -> int:
    spec = MetricSpec(args.metric, args.features)
    filter_spec = _filter_spec(args)
    sigmas = sorted(args.sigmas)
    plan = _kfold(args)
    actions = load_dataset(args.manifest)  # raw: noise must land before filtering
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
    # each flag's dest is its field; a flag left unset is absent, so the field keeps its default
    given = {f.name: getattr(args, f.name) for f in fields(SyntheticConfig) if hasattr(args, f.name)}
    actions, manifest = generate_synthetic(SyntheticConfig(**given))
    manifest_path = save_dataset(actions, manifest, args.out_dir)
    print(f"wrote {len(actions)} actions and {manifest_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="codemotion", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def dataset_args(p, seed=False, metric=False, folds=False, lists=False):
        # sweep's --jm, --metric and --features take comma-separated lists of the values the others take one of
        typed, more = (_list_of, "[,...]") if lists else (_flag, "")
        p.add_argument("--manifest", required=True, metavar="PATH", help="dataset manifest JSON")
        p.add_argument("--jm", type=typed(_integer(1)), default="5,10,20" if lists else 20, metavar="N" + more,
                       help="number of most informative joints (default %(default)s)")
        _add_filter_flags(p)
        if metric:
            p.add_argument("--metric", type=typed(_parse_metric), metavar="NAME" + more,
                           default=",".join(m.value for m in Metric) if lists else "csm",
                           help=f"one of {', '.join(m.value for m in Metric)} (default %(default)s)")
            p.add_argument("--features", type=typed(_parse_features), metavar="NAME" + more,
                           default=",".join(f.value for f in FeatureSet) if lists else "full",
                           help=f"one of {', '.join(f.value for f in FeatureSet)} (default %(default)s)")
        if folds:
            p.add_argument("--folds", type=_integer(2), default=10, metavar="K")
        if seed:
            p.add_argument("--seed", type=_integer(0, bounded=False), required=True, metavar="N",
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
    p.add_argument("--train-subjects", type=_list_of(), required=True, metavar="LIST",
                   help="comma-separated subject ids used for training")
    p.add_argument("--out", required=True, metavar="PATH")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.set_defaults(func=cmd_cross_subject)

    p = sub.add_parser("sweep", help="accuracy over MIJ counts and metrics")
    dataset_args(p, seed=True, metric=True, folds=True, lists=True)
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("noise", help="accuracy under additive Gaussian angle noise")
    dataset_args(p, seed=True, metric=True, folds=True)
    p.add_argument("--sigmas", type=_list_of(_sigma), default="0,1,2,3,4,5", metavar="LIST",
                   help="comma-separated noise standard deviations in degrees")
    p.add_argument("--corrupt-train", action="store_true",
                   help="corrupt training items too (default: test items only)")
    p.add_argument("--out", required=True, metavar="PATH")
    p.set_defaults(func=cmd_noise)

    # No defaults here: SyntheticConfig supplies each one for a flag left unset.
    p = sub.add_parser("gen-synth", help="generate a synthetic coordinated-motion dataset",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--classes", type=_integer(), required=True, metavar="N")
    p.add_argument("--per-class", type=_integer(), required=True, metavar="N")
    p.add_argument("--subjects", type=_integer(), required=True, metavar="N")
    p.add_argument("--joints", type=_integer(), metavar="N")
    p.add_argument("--frames", type=_integer(), metavar="N")
    p.add_argument("--frame-rate", type=_flag(_decimal), metavar="HZ")
    p.add_argument("--seed", type=_integer(0, bounded=False), required=True, metavar="N")
    p.add_argument("--active-joints", dest="active_per_class", type=_integer(), metavar="N",
                   help="active joints per class (default joints // 5, at least 2)")
    p.add_argument("--amplitude", dest="amplitude_deg", type=_flag(_decimal), metavar="DEG",
                   help="sinusoid amplitude in degrees")
    p.add_argument("--noise-std", dest="noise_deg", type=_flag(_decimal), metavar="DEG",
                   help="sample noise in degrees")
    p.add_argument("--disjoint", dest="disjoint_classes", action="store_true",
                   help="give every class its own block of active joints")
    p.add_argument("--out-dir", required=True, metavar="DIR")
    p.set_defaults(func=cmd_gen_synth)

    return parser


def _format_warning(message, category, filename, lineno, line=None) -> str:
    """A warning as one line on stderr, without the source location and line."""
    return f"warning: {message}\n"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    format_warning, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # DatasetError and DegenerateActionError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - anything else is an internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = format_warning


if __name__ == "__main__":
    sys.exit(main())
