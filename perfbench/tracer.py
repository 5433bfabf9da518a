"""Run the codemotion CLI with spans around the calls into each layer.

Usage (from the repository root):

    python3 perfbench/tracer.py TRACE_JSON <codemotion CLI arguments...>

The wrappers live here, not in the library: they replace the module-level
names that the CLI and the evaluation layer look up at call time
(``cli.load_dataset``, ``cli.butterworth_filter``, ``cli.evaluate``,
``cli.mij_sweep``, ``evaluation.compute_descriptor`` and
``evaluation.similarity_matrix``). Spans stay in memory and are written to
TRACE_JSON when ``main()`` returns, together with the import time of
``codemotion.cli`` and an oracle spot-check of sampled similarity scores.
The process exits with the CLI's own exit code.
"""

from __future__ import annotations

import inspect
import itertools
import json
import random
import sys
import threading
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent

# At most this many similarity cells are checked against the brute-force
# oracles per process; one is sampled per similarity_matrix call.
ORACLE_SAMPLES = 64


class Tracer:
    """In-memory span recorder.

    A span is (id, parent id, name, thread id, start, end, cpu start, cpu end,
    attrs), with times from ``perf_counter`` and ``process_time``. The parent
    is the innermost open span of the calling thread. A thread with no open
    span (a fold worker of the evaluation pool) takes the innermost open span
    of the main thread, which is the evaluate/mij_sweep span that started it.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, attrs=None):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else 0)
        span_id = next(self._ids)
        stack.append(span_id)
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1, cpu1 = time.perf_counter(), time.process_time()
            stack.pop()
            self.spans.append(
                [span_id, parent, name, threading.get_ident(), t0, t1, cpu0, cpu1, attrs or {}]
            )

    def wrap(self, name, fn, attrs=None):
        """``fn`` inside a span; ``attrs(bound_arguments)`` adds fields to it."""
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            extra = attrs(signature.bind(*args, **kwargs).arguments) if attrs else None
            return self.call(name, fn, args, kwargs, extra)

        return wrapper


def _install(tracer, cli, evaluation, samples):
    cli.load_dataset = tracer.wrap("ingest.load", cli.load_dataset)
    cli.butterworth_filter = tracer.wrap("ingest.filter", cli.butterworth_filter)
    cli.evaluate = tracer.wrap(
        "evaluation", cli.evaluate, lambda a: {"folds": len(a["plan"].folds)}
    )
    cli.mij_sweep = tracer.wrap(
        "evaluation",
        cli.mij_sweep,
        lambda a: {"folds": len(a["jm_values"]) * len(a["specs"]) * len(a["plan"].folds)},
    )
    evaluation.compute_descriptor = tracer.wrap("descriptor", evaluation.compute_descriptor)

    similarity_matrix = evaluation.similarity_matrix
    calls = itertools.count()

    def traced_similarity(queries, references, spec):
        queries, references = list(queries), list(references)
        attrs = {"kind": spec.kind.value, "pairs": len(queries) * len(references)}
        scores = tracer.call("similarity", similarity_matrix, (queries, references, spec), {}, attrs)
        n = next(calls)
        if len(samples) < ORACLE_SAMPLES and queries and references:
            pick = random.Random(n)
            i, j = pick.randrange(len(queries)), pick.randrange(len(references))
            samples.append((n, i, j, queries[i], references[j], spec, float(scores[i, j])))
        return scores

    evaluation.similarity_matrix = traced_similarity


def _close(a, b, tol=1e-12):
    # Same rule as the acceptance tests: the tolerance scales once values leave [-1, 1].
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _oracle_check(samples):
    sys.path.insert(0, str(_ROOT / "tests"))
    import oracles

    mismatches = []
    for call, row, col, query, reference, spec, score in samples:
        if spec.kind.value == "csm":
            expected = oracles.csm_score(query, reference)
        elif spec.kind.value == "manhattan":
            expected = oracles.manhattan_distance(query, reference, spec.features.value)
        else:
            expected = oracles.euclidean_distance(query, reference, spec.features.value)
        if not _close(score, expected):
            mismatches.append(
                {"kind": spec.kind.value, "call": call, "row": row, "col": col,
                 "got": score, "oracle": expected}
            )
    return {"checked": len(samples), "mismatches": mismatches}


def main(argv):
    trace_path, cli_args = Path(argv[0]), argv[1:]
    sys.path.insert(0, str(_ROOT / "src"))
    t0 = time.perf_counter()
    from codemotion import cli, evaluation

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    samples = []
    _install(tracer, cli, evaluation, samples)
    code = tracer.call("cli.main", cli.main, (cli_args,), {})
    payload = {
        "import_s": import_s,
        "exit_code": code,
        "spans": tracer.spans,
        "oracle": _oracle_check(samples),
    }
    trace_path.write_text(json.dumps(payload), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
