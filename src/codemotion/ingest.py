"""Dataset ingestion: manifest-driven CSV loading, low-pass filtering, synthetic data.

A dataset is a JSON manifest next to one CSV file per action. Each CSV
holds T rows by J comma-separated joint angles; the manifest carries the
class, subject, frame rate and angle unit of every action.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import numbers
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, fields
from functools import partial
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .butter import lowpass_sos, sosfilt_zi
from .descriptor import ActionMatrix

__all__ = [
    "DatasetError",
    "ManifestEntry",
    "DatasetManifest",
    "FilterSpec",
    "SyntheticConfig",
    "load_manifest",
    "load_dataset",
    "butterworth_filter",
    "generate_synthetic",
    "save_dataset",
]

ANGLE_UNITS = ("deg", "rad")


class DatasetError(ValueError):
    """Raised for malformed manifests or action files; messages name file and line."""


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    class_label: str
    subject_id: str
    action_id: str
    frame_rate: float
    angle_unit: str = "deg"


@dataclass(frozen=True, eq=False)
class DatasetManifest:
    """Declarative listing of the actions that make up one dataset."""

    dataset_name: str
    entries: tuple[ManifestEntry, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        seen = set()
        for n, entry in enumerate(self.entries):
            if entry.action_id in seen:
                raise DatasetError(f"manifest entry {n}: duplicate action_id {entry.action_id!r}")
            seen.add(entry.action_id)
            if not 0 < entry.frame_rate < math.inf:
                raise DatasetError(
                    f"manifest entry {n} ({entry.action_id!r}): frame_rate must be positive "
                    f"and finite, got {entry.frame_rate!r}"
                )
            if entry.angle_unit not in ANGLE_UNITS:
                raise DatasetError(
                    f"manifest entry {n} ({entry.action_id!r}): angle_unit must be one of "
                    f"{ANGLE_UNITS}, got {entry.angle_unit!r}"
                )


def _write_json(path, payload) -> None:
    """Every JSON file's one style: UTF-8, two-space indent, sorted keys, a final newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_manifest(path) -> DatasetManifest:
    """Parse and validate a manifest JSON file."""
    path = Path(path)
    if not path.exists():
        raise DatasetError(f"{path}: manifest file not found")
    text = _read_text(path)
    try:
        payload = json.loads(text)
    except ValueError as exc:  # also an integer past int()'s digit limit
        raise DatasetError(f"{path}: invalid JSON ({exc})") from None
    del text  # held while the entries convert, it raised the peak by 77 KB at 400 entries
    if not isinstance(payload, dict) or "entries" not in payload:
        raise DatasetError(f"{path}: manifest must be an object with an 'entries' list")
    if not isinstance(payload["entries"], list) or not payload["entries"]:
        raise DatasetError(f"{path}: 'entries' must be a non-empty list")

    def check_value(value, where):
        # only a JSON string or number is a value: str() would make a label of the rest
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            raise DatasetError(f"{path}: {where} must be a string or a number, got {json.dumps(value)}")

    name = payload.get("dataset_name", path.stem)
    check_value(name, "'dataset_name'")
    convert = get_type_hints(ManifestEntry)  # str, or float for frame_rate
    entries = []
    for n, raw in enumerate(payload["entries"]):
        if not isinstance(raw, dict):
            raise DatasetError(f"{path}: entry {n} must be a JSON object, got {json.dumps(raw)}")
        # a key the entry leaves out takes the field's default; a required one stays MISSING
        given = {field.name: raw.get(field.name, field.default) for field in fields(ManifestEntry)}
        for key, value in given.items():
            check_value("" if value is MISSING else value, f"entry {n}: {key!r}")
        missing = [key for key, value in given.items() if value is MISSING]
        if missing:
            raise DatasetError(f"{path}: entry {n} is missing required key {missing[0]!r}")
        try:
            entries.append(ManifestEntry(**{key: convert[key](value) for key, value in given.items()}))
        except (ValueError, OverflowError) as exc:  # a string rate, or an integer past float's range
            raise DatasetError(f"{path}: entry {n} is malformed ({exc})") from None
    try:
        return DatasetManifest(str(name), tuple(entries))
    except DatasetError as exc:
        raise DatasetError(f"{path}: {exc}") from None


def _read_text(path: Path) -> str:
    """A manifest's or a CSV's UTF-8 text less one leading BOM; a bad byte names its file and line."""
    data = path.read_bytes()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        # the bad byte's line, counted as str.splitlines() counts the lines
        line_no = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise DatasetError(
            f"{path}, line {line_no}: not UTF-8 (byte 0x{data[exc.start]:02x})"
        ) from None


def _read_csv_matrix(path: Path) -> np.ndarray:
    """Parse one action CSV: comma-separated decimals, optional auto-detected header.

    A first row none of whose cells is numeric is a header. numpy reads the
    other non-blank rows in one call. An error names the first bad line and,
    on that line, a non-numeric cell before a non-finite value before a
    changed column count. The text is read by ``_read_text``.
    """
    numbered = [(n, line) for n, line in enumerate(_read_text(path).splitlines(), start=1) if line.strip()]
    if numbered and not any(_is_number(c) for c in numbered[0][1].split(",")):
        del numbered[0]
    if not numbered:
        raise DatasetError(f"{path}: no numeric rows")
    try:
        samples = _loadtxt(line for _, line in numbered)
    except ValueError:  # a non-numeric cell or a ragged row
        readable, fault = _scan_rows(path, numbered)
        for block in filter(None, readable):
            _check_finite(path, block, _loadtxt(line for _, line in block))
        raise fault from None
    _check_finite(path, numbered, samples)
    return samples


def _loadtxt(lines) -> np.ndarray:
    # comments=None: a '#' cell is a non-numeric value, not a comment
    return np.loadtxt(lines, delimiter=",", dtype=np.float64, comments=None, ndmin=2)


def _is_number(cell: str) -> bool:
    """Whether numpy's parser reads ``cell`` as one number; it is not asked about an empty one."""
    try:
        return cell != "" and _loadtxt([cell]).shape == (1, 1)  # on no data, numpy warns
    except ValueError:
        return False


def _scan_rows(path: Path, numbered) -> tuple[list, DatasetError]:
    """The error for the first line with a non-numeric cell or a changed column count.

    With it come the lines whose non-finite values are named first, in blocks
    numpy reads whole: those before it and, if its count changed, that line.
    """
    width = len(numbered[0][1].split(","))
    for n, (line_no, line) in enumerate(numbered):
        cells = line.split(",")
        bad = next((cell.strip() for cell in cells if not _is_number(cell)), None)
        if bad is not None:
            return [numbered[:n]], DatasetError(f"{path}, line {line_no}: non-numeric value {bad!r}")
        if len(cells) != width:
            message = f"{path}, line {line_no}: expected {width} columns, got {len(cells)}"
            return [numbered[:n], numbered[n : n + 1]], DatasetError(message)


def _check_finite(path: Path, numbered, samples: np.ndarray) -> None:
    """Raise for the first of the lines ``numbered``, read as ``samples``, with a non-finite value."""
    finite = np.isfinite(samples)
    if not finite.all():
        raise DatasetError(f"{path}, line {numbered[finite.all(axis=1).argmin()][0]}: non-finite value")


# Files per task of a forked worker, both when parsing and when writing. A
# finished parse task's arrays wait in the parent until the loop reaches
# them, and a write task queued for a worker holds a pickled copy of its
# arrays, so the size sets the peak memory: parsing the benchmark workloads
# with 2 CPUs, 4 files cost 1-2.5 MB of peak RSS and 25 files 5-7 MB.
PARSE_CHUNK = 4


def _write(task) -> None:
    """Write one action's samples to ``path`` with full repr precision."""
    path, samples = task
    lines = [",".join(map(repr, row)) for row in samples.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@contextmanager
def _forked(fn, items):
    """An iterator of ``fn`` over the list ``items``, in order.

    Forked worker processes run ``fn``, one per CPU this process may run
    on. With one CPU, one item, no ``fork``, or other threads running,
    ``fn`` runs in this process instead: a forked worker holds a copy of
    every lock, including those another thread held at the fork.

    Either way, an item's ``DatasetError`` or ``OSError`` is raised when the
    caller's loop reaches that item, so the first failing item wins. A
    worker's task of several items would fail at its first item, so the
    worker returns the error as the item's result and the parent raises it.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(items))
    if (
        workers < 2
        or "fork" not in multiprocessing.get_all_start_methods()
        or threading.active_count() > 1
    ):
        yield map(fn, items)
        return
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        try:
            yield map(_raised, pool.map(partial(_caught, fn), items, chunksize=PARSE_CHUNK))
        finally:
            pool.shutdown(cancel_futures=True)


def _caught(fn, item):
    """``fn(item)`` in a worker, or its ``DatasetError`` or ``OSError``, which ``_raised`` raises."""
    try:
        return fn(item)
    except (DatasetError, OSError) as exc:
        return exc


def _raised(result):
    if isinstance(result, (DatasetError, OSError)):
        raise result
    return result


def _action_paths(manifest_path: Path, entries) -> list[Path]:
    """Each entry's file, beside the manifest; no two entries, nor an entry and the manifest, share one."""
    # realpath, not Path.resolve, which raises RuntimeError on a symlink loop before Python 3.13
    seen = {os.path.realpath(manifest_path): "the manifest"}
    paths = []
    for entry in entries:
        path = manifest_path.parent / entry.path
        key = os.path.realpath(path)
        if key in seen:
            raise DatasetError(f"{path}: action {entry.action_id!r} and {seen[key]} resolve to the same file")
        seen[key] = f"action {entry.action_id!r}"
        paths.append(path)
    return paths


def load_dataset(manifest_path) -> list[ActionMatrix]:
    """Load every action listed in a manifest, in manifest order.

    Radian files are converted to degrees. All actions of one dataset must
    share the same joint count. Entries that resolve to one file fail before
    any is read. The files are parsed in parallel, but the error raised is
    that of the first bad entry in manifest order.
    """
    manifest_path = Path(manifest_path)
    manifest = load_manifest(manifest_path)
    paths = _action_paths(manifest_path, manifest.entries)
    actions: list[ActionMatrix] = []
    joints = None
    with _forked(_read_csv_matrix, paths) as matrices:
        for entry, file_path in zip(manifest.entries, paths):
            try:
                samples = next(matrices)
            except (FileNotFoundError, NotADirectoryError):  # no such file, or a file on its path
                raise DatasetError(f"{file_path}: file not found (action {entry.action_id!r})") from None
            except OSError as exc:  # a directory, say, or a file this process may not read
                raise DatasetError(f"{file_path}: {exc.strerror} (action {entry.action_id!r})") from None
            if entry.angle_unit == "rad":
                samples = np.degrees(samples)
            if joints is None:
                joints = samples.shape[1]
            elif samples.shape[1] != joints:
                raise DatasetError(
                    f"{file_path}: {samples.shape[1]} joint columns, but the rest of "
                    f"{manifest.dataset_name!r} has {joints}"
                )
            try:
                actions.append(ActionMatrix(
                    samples, entry.frame_rate, entry.class_label, entry.subject_id, entry.action_id
                ))
            except ValueError as exc:
                raise DatasetError(f"{file_path}: {exc}") from None
    return actions


@dataclass(frozen=True)
class FilterSpec:
    """Low-pass Butterworth configuration; the filter always runs forward and backward."""

    cutoff_hz: float = 10.0
    order: int = 2

    def __post_init__(self) -> None:
        if self.cutoff_hz <= 0:
            raise ValueError(f"cutoff_hz must be positive, got {self.cutoff_hz!r}")
        if not self.cutoff_hz < math.inf:  # inf or NaN
            raise ValueError(f"cutoff_hz must be finite, got {self.cutoff_hz!r}")
        order = self.order
        whole = isinstance(order, numbers.Integral) or (isinstance(order, float) and order.is_integer())
        if isinstance(order, bool) or not whole:
            raise ValueError(f"order must be a whole number, got {order!r}")
        if order < 1:
            raise ValueError(f"order must be at least 1, got {order!r}")
        object.__setattr__(self, "order", int(order))


# Buffer elements, rows by columns of float64, that the filter fills, filters
# and copies out at a time: 8 MiB. Rows and columns both count, since a
# column bound alone would let 600-frame actions fill 80 MB at 16K columns.
# A chunk holds whole actions, so an action larger than this is a chunk by
# itself.
_FILTER_ELEMENTS = 1 << 20


def butterworth_filter(actions, spec: FilterSpec = FilterSpec()) -> list[ActionMatrix]:
    """Zero-phase low-pass of every joint column of every action, run as second-order sections.

    Forward-backward filtering doubles the effective order and removes
    phase lag, which keeps velocity extrema aligned in time. Second-order
    sections stay stable at high orders and low cutoffs, where the
    (b, a) transfer-function form overflows. Edges are padded by odd
    reflection for one settling length and trimmed afterwards. Actions that
    share a frame rate and a power-of-two length class are filtered
    together, in chunks of whole, consecutive actions of at most
    ``_FILTER_ELEMENTS`` buffer elements, and every chunk reuses one buffer.
    Each result equals ``scipy.signal.sosfiltfilt`` of that action alone,
    bit for bit. A rate that ``lowpass_sos`` has no design for fails before
    any action is filtered, with the first action at that rate named.

    The function works on its own list of the actions: each raw action is
    dropped once its chunk is buffered, and its filtered copy later takes its
    place. A caller that hands over the only reference, say as an iterator,
    holds the pool once at the peak (the raw actions still to come and the
    filtered copies), plus the buffer; a caller that keeps its sequence keeps
    it intact, and holds the pool twice.
    """
    actions = list(actions)
    meta = [(a.frame_rate, a.class_label, a.subject_id, a.action_id) for a in actions]
    pad = 3 * (spec.order + 1)
    rows = [a.num_frames + 2 * min(pad, a.num_frames - 1) for a in actions]
    columns = [a.num_joints for a in actions]
    # The design depends on the rate. A chunk runs every column for as many
    # frames as its longest action has, so lengths in a group stay within 2x.
    groups: dict[tuple[float, int], list[int]] = {}
    for i, key in enumerate([(a.frame_rate, a.num_frames.bit_length()) for a in actions]):
        groups.setdefault(key, []).append(i)
    # every rate is designed, and every chunk planned, before any is filtered
    designs, plan = {}, []
    for (rate, _), members in groups.items():
        if rate not in designs:  # so members[0] is the first action at this rate
            try:
                sos = lowpass_sos(spec.order, spec.cutoff_hz, rate)
            except ValueError as exc:
                raise ValueError(f"{exc} (action {actions[members[0]].action_id!r})") from None
            designs[rate] = (sos, sosfilt_zi(sos)[:, :, None])
        plan += [(designs[rate], chunk) for chunk in _chunks(members, rows, columns)]
    sizes = [max(rows[i] for i in chunk) * sum(columns[i] for i in chunk) for _, chunk in plan]
    buf = np.empty(max(sizes, default=0))
    for (sos, zi), chunk in plan:
        signals = [actions[i].samples for i in chunk]
        for i in chunk:
            actions[i] = None
        # each view into the buffer is copied out before the next chunk fills it
        for i, x in zip(chunk, _sosfiltfilt(signals, sos, zi, pad, buf)):
            actions[i] = ActionMatrix(x, *meta[i])
    return actions


def _chunks(members: list[int], rows: list[int], columns: list[int]) -> list[list[int]]:
    """``members`` split into chunks of whole, consecutive actions of at most ``_FILTER_ELEMENTS`` elements.

    A chunk holds at most as many columns as fit the bound at the rows of
    the group's longest action. As ``_blocked_sum`` splits a wide row, the
    columns are shared evenly among the fewest chunks that fit: a chunk ends
    once it holds its share, or when the next action would overfill it. An
    action wider than a chunk starts one of its own and ends it.
    """
    cap = max(1, _FILTER_ELEMENTS // max(rows[i] for i in members))
    total = sum(columns[i] for i in members)
    fewest = -(-total // cap)
    share = -(-total // fewest)
    chunks, chunk, width = [], [], 0
    for i in members:
        if chunk and (width >= share or width + columns[i] > cap):
            chunks.append(chunk)
            chunk, width = [], 0
        chunk.append(i)
        width += columns[i]
    chunks.append(chunk)
    return chunks


def _sosfiltfilt(signals, sos: np.ndarray, zi: np.ndarray, pad: int, buf: np.ndarray) -> list[np.ndarray]:
    """scipy's ``sosfiltfilt(sos, x, axis=0, padlen=min(pad, T - 1))`` of every (T, J) ``x`` at once.

    ``zi`` is ``sosfilt_zi(sos)`` with a trailing axis. The start of the
    flat buffer ``buf`` is shaped as rows of the longest padded signal by
    the signals' columns, and zeroed. Each signal's odd extension is written
    into its own column block, left-aligned, so one pass of the filter over
    those rows filters every column. Between the passes each block is
    reversed within its own length. Rows past a block's length hold the
    filter's decaying tail, which no result reads. The results are views
    into ``buf``, valid until it is filled again. ``signals`` is emptied
    once the buffer holds it, so arrays the caller no longer references are
    freed before the passes.
    """
    edges = [min(pad, len(x) - 1) for x in signals]
    lengths = [len(x) + 2 * e for x, e in zip(signals, edges)]
    ends = np.cumsum([x.shape[1] for x in signals]).tolist()
    buf = buf[: max(lengths) * ends[-1]].reshape(max(lengths), ends[-1])
    buf.fill(0.0)
    blocks = [buf[:n, end - x.shape[1] : end] for x, n, end in zip(signals, lengths, ends)]
    for x, e, block in zip(signals, edges, blocks):
        np.subtract(2 * x[:1], x[e:0:-1], out=block[:e])
        block[e:-e] = x
        np.subtract(2 * x[-1:], x[-2 : -(e + 2) : -1], out=block[-e:])
    del x, signals[:]  # the buffer holds the samples now
    _sosfilt(sos, buf, zi * buf[0])
    for block in blocks:
        block[...] = block[::-1]
    _sosfilt(sos, buf, zi * buf[0])
    # reversed back and trimmed: rows n-1-e down to e of each block
    return [block[len(block) - 1 - e : e - 1 : -1] for block, e in zip(blocks, edges)]


def _sosfilt(sos: np.ndarray, x: np.ndarray, state: np.ndarray) -> None:
    """Filter every column of ``x`` along its rows, in place, from per-section ``state`` (n, 2, J).

    Transposed direct form II with the per-element operation order of
    scipy's ``_sosfilt``, which keeps the results bit-identical to it:
    ``y = b0*x + z0``, ``z0 = b1*x - a1*y + z1``, ``z1 = b2*x - a2*y``.
    Every operation writes into the row, the state or one of two row-sized
    temporaries, so the loop allocates nothing. The coefficients are 0-d
    arrays and ``out`` is passed by position, which numpy handles with less
    work per call than a Python float or an ``out=`` keyword.
    """
    sections = [
        (tuple(np.array(c) for c in section), z0, z1) for section, (z0, z1) in zip(sos, state)
    ]
    bx1, bx2 = np.empty(x.shape[1]), np.empty(x.shape[1])
    for row in x:
        for (b0, b1, b2, _, a1, a2), z0, z1 in sections:
            np.multiply(row, b1, bx1)
            np.multiply(row, b2, bx2)
            np.multiply(row, b0, row)
            np.add(row, z0, row)  # y, in place of x
            np.multiply(row, a1, z0)
            np.subtract(bx1, z0, z0)
            np.add(z0, z1, z0)
            np.multiply(row, a2, z1)
            np.subtract(bx2, z1, z1)


@dataclass(frozen=True)
class SyntheticConfig:
    """Shape of a generated coordinated-motion dataset.

    Every class activates a subset of joints with coordinated sinusoids:
    same-sign joints move in phase, opposite-sign joints in counter-phase.
    Inactive joints carry low-amplitude noise. Subjects perturb amplitude
    and phase smoothly; repetitions add small jitter plus sample noise.
    """

    classes: int
    per_class: int
    subjects: int
    joints: int = 20
    frames: int = 240
    frame_rate: float = 30.0
    seed: int = 0
    active_per_class: int | None = None
    amplitude_deg: float = 30.0
    noise_deg: float = 0.5
    disjoint_classes: bool = False

    def __post_init__(self) -> None:
        for name in ("classes", "per_class", "subjects", "frames"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.joints < 4:
            raise ValueError(f"need at least 4 joints, got {self.joints}")
        if self.frames < 2:
            raise ValueError("need at least 2 frames")
        if not 0 < self.frame_rate < math.inf:
            raise ValueError(f"frame_rate must be positive and finite, got {self.frame_rate!r}")
        if not 0 <= self.noise_deg < math.inf:
            raise ValueError(f"noise_deg must be finite and non-negative, got {self.noise_deg!r}")
        if not math.isfinite(self.amplitude_deg):
            raise ValueError(f"amplitude_deg must be finite, got {self.amplitude_deg!r}")
        if self.active_per_class is not None and self.active_per_class < 2:
            raise ValueError("active_per_class must be at least 2")
        n_active = self.num_active
        if n_active > self.joints:
            raise ValueError("active_per_class cannot exceed the joint count")
        if self.disjoint_classes and self.classes * n_active > self.joints:
            raise ValueError(
                f"disjoint classes need {self.classes * n_active} joints, "
                f"only {self.joints} available"
            )

    @property
    def num_active(self) -> int:
        return self.active_per_class if self.active_per_class is not None else max(2, self.joints // 5)


def generate_synthetic(config: SyntheticConfig) -> tuple[list[ActionMatrix], DatasetManifest]:
    """Deterministic coordinated-sinusoid dataset plus a manifest describing it.

    Pure function of the config: the same config always yields the same
    samples bit for bit.
    """
    rng = np.random.default_rng(config.seed)
    n_active = config.num_active
    t = np.arange(config.frames) / config.frame_rate

    templates = []  # per class: (active joints, their signed gains, frequency, offsets)
    for c in range(config.classes):
        if config.disjoint_classes:
            active = np.arange(c * n_active, (c + 1) * n_active)
        else:
            active = np.sort(rng.choice(config.joints, size=n_active, replace=False))
        signs = rng.choice(np.array([-1.0, 1.0]), size=n_active)
        signs[:2] = 1.0  # guarantee at least one in-phase active pair
        freq = rng.uniform(0.4, 1.6)
        gains = signs * (config.amplitude_deg * rng.uniform(0.7, 1.3, size=n_active))
        templates.append((active, gains, freq, rng.uniform(-45.0, 45.0, size=config.joints)))
    # per class and subject: (amplitude per active joint, phase)
    mods = [
        [(rng.uniform(0.85, 1.15, size=n_active), rng.normal(0.0, 0.3)) for _ in range(config.subjects)]
        for _ in range(config.classes)
    ]

    actions = []
    for c, (active, gains, freq, offsets) in enumerate(templates):
        for s, (amp, phase) in enumerate(mods[c]):
            for r in range(config.per_class):
                rep_phase = rng.uniform(0.0, 2.0 * np.pi)
                rep_amp = rng.normal(1.0, 0.03)
                noise = config.noise_deg * rng.standard_normal((config.frames, config.joints))
                samples = offsets + noise
                wave = np.sin(2.0 * np.pi * freq * t + (rep_phase + phase))
                samples[:, active] += gains * amp * rep_amp * wave[:, None]
                actions.append(ActionMatrix(
                    samples, config.frame_rate, f"class{c:02d}", f"subject{s:02d}",
                    f"c{c:02d}_s{s:02d}_r{r:02d}",
                ))
    name = f"synthetic-{config.classes}x{config.per_class}x{config.subjects}-seed{config.seed}"
    return actions, DatasetManifest(name, tuple(_entry(a, f"{a.action_id}.csv") for a in actions))


def _entry(action: ActionMatrix, path: str) -> ManifestEntry:
    """The entry that reloads ``action`` from ``path``: the action's rate, class and subject, in degrees."""
    return ManifestEntry(path, action.class_label, action.subject_id, action.action_id, action.frame_rate)


def save_dataset(actions, manifest: DatasetManifest, out_dir) -> Path:
    """Write one CSV per action plus the manifest; returns the manifest path.

    ``manifest`` gives the dataset name, the order and the paths; each entry
    written takes its rate, class and subject from its action, in degrees.
    Values keep full repr precision, so a reload yields value-identical
    matrices. Before any file is written, a ``DatasetError`` names the ids,
    the field or the path of an entry with no action or one that disagrees
    with it, of actions that share an id, and of entries (or an entry and
    ``manifest.json``) that resolve to the same file. Forked workers write
    the CSVs, with the same bytes as one process; the error raised is that
    of the first failing entry in manifest order.
    """
    out_dir = Path(out_dir)
    by_id: dict[str, ActionMatrix] = {}
    shared = []
    for action in actions:
        if by_id.setdefault(action.action_id, action) is not action:
            shared.append(action.action_id)
    if shared:
        raise DatasetError(f"actions share an action_id: {', '.join(map(repr, dict.fromkeys(shared)))}")
    missing = [entry.action_id for entry in manifest.entries if entry.action_id not in by_id]
    if missing:
        raise DatasetError(f"manifest entries have no matching action: {', '.join(map(repr, missing))}")
    manifest_path = out_dir / "manifest.json"
    entries = [_entry(by_id[entry.action_id], entry.path) for entry in manifest.entries]
    for given, entry in zip(manifest.entries, entries):
        for field in ("frame_rate", "class_label", "subject_id"):
            if getattr(given, field) != getattr(entry, field):
                raise DatasetError(
                    f"action {entry.action_id!r}: the manifest's {field} {getattr(given, field)!r} "
                    f"differs from the action's {getattr(entry, field)!r}"
                )
    paths = _action_paths(manifest_path, entries)
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(path, by_id[entry.action_id].samples) for path, entry in zip(paths, entries)]
    with _forked(_write, tasks) as written:
        list(written)  # raises the first failing entry's error
    _write_json(manifest_path, {"dataset_name": manifest.dataset_name, "entries": list(map(asdict, entries))})
    return manifest_path
