"""Record the reference outputs that perfbench/run.py checks every run against.

Usage (from the repository root, at a commit whose outputs are trusted):

    python3 perfbench/record.py --seeds 0-12

For each workload and seed it writes the dataset once, runs the CLI once and
stores the per-part digests of its output in perfbench/references.json. It
refuses a seed whose data could not show a wrong answer: on csm-xsubject and
on every jm of sweep, CSM accuracy must lie strictly between chance and 1,
so a wrong similarity score changes the confusion matrix.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def _seeds(text):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def record(workload, seed):
    work = run.WORK / f"record-{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    data_dir, run_dir = work / "data", work / "run"
    run_dir.mkdir(parents=True)
    try:
        run.setup(workload, seed, data_dir)
        result, digest = run.run_cli(workload, seed, data_dir / "manifest.json", run_dir, False, 170.0)
        if digest is None:
            raise SystemExit(f"{workload.name} seed {seed}: CLI exited {result.exit_code}")
        accuracy = run.accuracy_summary(workload, run_dir / run.output_name(workload))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if workload.name != "ingest-kfold":
        values = accuracy.values() if isinstance(accuracy, dict) else [accuracy]
        if not all(1.0 / run.CLASSES < a < 1.0 for a in values):
            raise SystemExit(f"{workload.name} seed {seed}: accuracy {accuracy} cannot show a wrong score")
    print(f"{workload.name} seed {seed}: csm accuracy {accuracy}")
    return digest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, metavar="LOW-HIGH")
    args = parser.parse_args(argv)
    os.environ.update(run.THREAD_ENV)
    sys.path.insert(0, str(run.ROOT / "src"))
    references = {}
    for name, workload in sorted(run.WORKLOADS.items()):
        references[name] = {str(seed): record(workload, seed) for seed in _seeds(args.seeds)}
    run.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
