import codecs
import dataclasses
import json
import math
import multiprocessing
import os
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codemotion import ingest
from codemotion.butter import lowpass_sos
from codemotion import (
    ActionMatrix,
    DatasetError,
    FilterSpec,
    SyntheticConfig,
    butterworth_filter,
    compute_descriptor,
    csm,
    generate_synthetic,
    load_dataset,
    load_manifest,
    save_dataset,
)
from oracles import pearson

from conftest import pool_held_once, random_action, traced_peak


def write_dataset(tmp_path, files, name="tiny"):
    entries = []
    for filename, text, meta in files:
        (tmp_path / filename).write_text(text)
        entries.append({
            "path": filename,
            "class_label": meta.get("class_label", "c"),
            "subject_id": meta.get("subject_id", "s"),
            "action_id": meta.get("action_id", filename),
            "frame_rate": meta.get("frame_rate", 30.0),
            "angle_unit": meta.get("angle_unit", "deg"),
        })
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps({"dataset_name": name, "entries": entries}))
    return manifest_path


def set_cpus(monkeypatch, n):
    """Make ``load_dataset`` see ``n`` CPUs: one parses in-process, more in a worker pool."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: n)


@pytest.fixture(params=[1, 2], ids=["serial", "pool"])
def cpus(request, monkeypatch):
    set_cpus(monkeypatch, request.param)
    return request.param


def reference_read(path):
    """``float()`` per cell, under the reader's BOM, header, blank-line, digit and message rules."""
    def number(cell):
        # numpy's grammar has ASCII digits only and no digit separator; float() has both
        if "_" in cell or any(c.isdecimal() and not c.isascii() for c in cell):
            return None
        try:
            return float(cell)
        except ValueError:
            return None

    rows = [
        (n, line)
        for n, line in enumerate(path.read_text(encoding="utf-8-sig").splitlines(), start=1)
        if line.strip()
    ]
    if rows and all(number(c) is None for c in rows[0][1].split(",")):
        rows = rows[1:]
    if not rows:
        raise DatasetError(f"{path}: no numeric rows")
    values = []
    for n, line in rows:
        cells = [c.strip() for c in line.split(",")]
        parsed = [number(c) for c in cells]
        if None in parsed:
            raise DatasetError(f"{path}, line {n}: non-numeric value {cells[parsed.index(None)]!r}")
        if not all(math.isfinite(v) for v in parsed):
            raise DatasetError(f"{path}, line {n}: non-finite value")
        if values and len(parsed) != len(values[0]):
            raise DatasetError(
                f"{path}, line {n}: expected {len(values[0])} columns, got {len(parsed)}"
            )
        values.append(parsed)
    return np.array(values)


def outcome(read, path):
    try:
        samples = read(path)
    except DatasetError as exc:
        return "error", str(exc)
    return samples.shape, samples.tobytes()


class TestLoadDataset:
    def test_small_file(self, tmp_path):
        text = "1,2,3\n4,5,6\n7,8,9\n10,11,12\n"
        manifest = write_dataset(tmp_path, [("a.csv", text, {})])
        actions = load_dataset(manifest)
        assert len(actions) == 1
        assert actions[0].num_frames == 4
        assert actions[0].num_joints == 3
        assert actions[0].class_label == "c"

    def test_radians_converted_to_degrees(self, tmp_path):
        text = f"{math.pi},0\n0,{math.pi / 2}\n"
        manifest = write_dataset(tmp_path, [("a.csv", text, {"angle_unit": "rad"})])
        samples = load_dataset(manifest)[0].samples
        assert samples[0, 0] == pytest.approx(180.0, abs=1e-9)
        assert samples[1, 1] == pytest.approx(90.0, abs=1e-9)

    def test_ragged_row_names_file_and_line(self, tmp_path):
        manifest = write_dataset(tmp_path, [("bad.csv", "1,2\n3\n", {})])
        with pytest.raises(DatasetError, match=r"bad\.csv, line 2"):
            load_dataset(manifest)

    def test_non_numeric_cell_reported(self, tmp_path):
        manifest = write_dataset(tmp_path, [("bad.csv", "1,2\n3,oops\n", {})])
        with pytest.raises(DatasetError, match=r"line 2: non-numeric value 'oops'"):
            load_dataset(manifest)

    def test_missing_file_reported(self, tmp_path):
        manifest = write_dataset(tmp_path, [("a.csv", "1,2\n3,4\n", {})])
        (tmp_path / "a.csv").unlink()
        with pytest.raises(DatasetError, match="file not found"):
            load_dataset(manifest)

    def test_inconsistent_joint_count_rejected(self, tmp_path):
        manifest = write_dataset(tmp_path, [
            ("a.csv", "1,2\n3,4\n", {"action_id": "a"}),
            ("b.csv", "1,2,3\n4,5,6\n", {"action_id": "b"}),
        ])
        with pytest.raises(DatasetError, match="joint columns"):
            load_dataset(manifest)

    def test_header_row_auto_detected(self, tmp_path):
        manifest = write_dataset(tmp_path, [("a.csv", "hip,knee\n1,2\n3,4\n", {})])
        action = load_dataset(manifest)[0]
        assert action.num_frames == 2
        np.testing.assert_array_equal(action.samples, [[1, 2], [3, 4]])

    def test_first_row_with_a_numeric_cell_is_data(self, tmp_path):
        manifest = write_dataset(tmp_path, [("bad.csv", "1.0,,2.0\n3,4,5\n6,7,8\n", {})])
        with pytest.raises(DatasetError, match=r"bad\.csv, line 1: non-numeric value ''"):
            load_dataset(manifest)

    def test_underscore_digit_separator_rejected(self, tmp_path):
        # the header's underscore is fine; float() would read the data cell 1_0 as 10.0
        manifest = write_dataset(tmp_path, [("bad.csv", "left_hip,knee\n1,2\n1_0,4\n", {})])
        with pytest.raises(DatasetError, match=r"bad\.csv, line 3: non-numeric value '1_0'"):
            load_dataset(manifest)

    def test_crlf_accepted(self, tmp_path):
        manifest = write_dataset(tmp_path, [("a.csv", "1,2\r\n3,4\r\n", {})])
        np.testing.assert_array_equal(load_dataset(manifest)[0].samples, [[1, 2], [3, 4]])

    def test_duplicate_action_id_rejected(self, tmp_path):
        manifest = write_dataset(tmp_path, [
            ("a.csv", "1,2\n3,4\n", {"action_id": "same"}),
            ("b.csv", "1,2\n3,4\n", {"action_id": "same"}),
        ])
        with pytest.raises(DatasetError, match="duplicate action_id"):
            load_manifest(manifest)

    @pytest.mark.parametrize("unit", ["grad", "DEG"])
    def test_unknown_angle_unit_names_manifest_entry_and_action(self, tmp_path, unit):
        manifest = write_dataset(tmp_path, [("a.csv", "1,2\n3,4\n", {"action_id": "a", "angle_unit": unit})])
        expected = f"{manifest}: manifest entry 0 ('a'): angle_unit must be one of ('deg', 'rad'), got {unit!r}"
        with pytest.raises(DatasetError, match=f"^{re.escape(expected)}$"):
            load_manifest(manifest)

    @pytest.mark.parametrize("payload", [[], {}, {"dataset_name": "x"}], ids=["array", "empty-object", "no-entries"])
    def test_manifest_without_entries_rejected(self, tmp_path, payload):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(payload))
        expected = f"{path}: manifest must be an object with an 'entries' list"
        with pytest.raises(DatasetError, match=f"^{re.escape(expected)}$"):
            load_manifest(path)

    def test_bad_frame_rate_rejected(self, tmp_path):
        manifest = write_dataset(tmp_path, [("a.csv", "1,2\n3,4\n", {"frame_rate": 0})])
        with pytest.raises(DatasetError, match="frame_rate"):
            load_manifest(manifest)

    def test_infinite_frame_rate_names_manifest_entry_and_action(self, tmp_path):
        manifest = write_dataset(tmp_path, [
            ("a.csv", "1,2\n3,4\n", {}),
            ("b.csv", "1,2\n3,4\n", {"action_id": "fast", "frame_rate": math.inf}),
        ])
        assert "Infinity" in manifest.read_text()
        expected = f"{manifest}: manifest entry 1 ('fast'): frame_rate must be positive and finite, got inf"
        with pytest.raises(DatasetError, match=f"^{re.escape(expected)}$"):
            load_manifest(manifest)

    @pytest.mark.parametrize("key, value, shown", [
        ("class_label", None, "null"),
        ("class_label", ["a"], '["a"]'),
        ("frame_rate", True, "true"),
        ("subject_id", {"s": 1}, '{"s": 1}'),
        ("angle_unit", False, "false"),
    ], ids=["null", "array", "boolean-rate", "object", "boolean-unit"])
    def test_non_scalar_manifest_value_rejected(self, tmp_path, key, value, shown):
        # the CSV is unparseable: the manifest's error must come first
        manifest = write_dataset(tmp_path, [
            ("a.csv", "1,2\n3,4\n", {"action_id": "a"}),
            ("b.csv", "1,x\n", {"action_id": "b", key: value}),
        ])
        expected = f"{manifest}: entry 1: {key!r} must be a string or a number, got {shown}"
        with pytest.raises(DatasetError, match=f"^{re.escape(expected)}$"):
            load_dataset(manifest)

    @pytest.mark.parametrize("value, shown", [
        (None, "null"), (["x"], '["x"]'), (True, "true"), ({"n": 1}, '{"n": 1}'),
    ], ids=["null", "array", "boolean", "object"])
    def test_non_scalar_dataset_name_rejected(self, tmp_path, value, shown):
        manifest = write_dataset(tmp_path, [("a.csv", "1,2\n3,4\n", {})], name=value)
        expected = f"{manifest}: 'dataset_name' must be a string or a number, got {shown}"
        with pytest.raises(DatasetError, match=f"^{re.escape(expected)}$"):
            load_manifest(manifest)

    @pytest.mark.parametrize("named, name", [({}, "walks"), ({"dataset_name": 7}, "7")],
                             ids=["missing", "number"])
    def test_dataset_name_defaults_to_the_file_stem(self, tmp_path, named, name):
        path = tmp_path / "walks.json"
        entry = {"path": "a.csv", "class_label": "c", "subject_id": "s", "action_id": "a", "frame_rate": 30}
        path.write_text(json.dumps({**named, "entries": [entry]}))
        assert load_manifest(path).dataset_name == name

    @pytest.mark.parametrize("raw, shown", [(None, "null"), ("a.csv", '"a.csv"'), ([1], "[1]")],
                             ids=["null", "string", "array"])
    def test_non_object_entry_rejected_before_any_csv_is_parsed(self, tmp_path, raw, shown):
        # entry 0 names an unparseable CSV: the manifest's error must come first
        manifest = write_dataset(tmp_path, [("a.csv", "1,x\n", {})])
        payload = json.loads(manifest.read_text())
        payload["entries"].append(raw)
        manifest.write_text(json.dumps(payload))
        expected = f"{manifest}: entry 1 must be a JSON object, got {shown}"
        with pytest.raises(DatasetError, match=f"^{re.escape(expected)}$"):
            load_dataset(manifest)

    def test_rate_past_float_range_is_malformed(self, tmp_path):
        manifest = write_dataset(tmp_path, [("a.csv", "1,2\n3,4\n", {"frame_rate": 10**400})])
        expected = f"{manifest}: entry 0 is malformed (int too large to convert to float)"
        with pytest.raises(DatasetError, match=f"^{re.escape(expected)}$"):
            load_manifest(manifest)

    def test_integer_past_the_digit_limit_is_invalid_json(self, tmp_path):
        # json.loads raises a plain ValueError, not a JSONDecodeError, for more than 4300 digits
        manifest = write_dataset(tmp_path, [("a.csv", "1,2\n3,4\n", {"frame_rate": 7})])
        manifest.write_text(manifest.read_text().replace('"frame_rate": 7', '"frame_rate": 1' + "0" * 5000))
        with pytest.raises(DatasetError, match=f"^{re.escape(str(manifest))}: invalid JSON \\(.*4300"):
            load_manifest(manifest)

    def test_numeric_manifest_values_keep_their_conversion(self, tmp_path):
        manifest = write_dataset(tmp_path, [("a.csv", "1,2\n3,4\n", {"class_label": 3, "frame_rate": 60})])
        entry = load_manifest(manifest).entries[0]
        assert (entry.class_label, entry.frame_rate) == ("3", 60.0)

    def test_missing_manifest_key_reported(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"dataset_name": "x", "entries": [{"path": "a.csv"}]}))
        with pytest.raises(DatasetError, match="missing required key"):
            load_manifest(path)

    def test_non_finite_cell_rejected(self, tmp_path):
        manifest = write_dataset(tmp_path, [("a.csv", "1,2\nnan,4\n", {})])
        with pytest.raises(DatasetError, match="non-finite"):
            load_dataset(manifest)

    @pytest.mark.parametrize("row, message", [
        ("3", "expected 2 columns, got 1"),
        ("3,oops", "non-numeric value 'oops'"),
        ("1_0,4", "non-numeric value '1_0'"),
        ("nan,4", "non-finite value"),
        ("4,inf", "non-finite value"),
    ])
    def test_bad_row_after_blank_line_names_its_line(self, tmp_path, row, message):
        # line numbers count blank lines; the good row after the bad one is never reached
        manifest = write_dataset(tmp_path, [("bad.csv", f"1,2\n\n{row}\n5,6\n", {})])
        with pytest.raises(DatasetError, match=rf"bad\.csv, line 3: {message}"):
            load_dataset(manifest)

    @pytest.mark.parametrize("text", ["\ufeff1.0,2\n3,4\n", "\ufeffhip,knee\r\n1,2\r\n3,4\r\n"],
                             ids=["data", "header"])
    def test_byte_order_mark_dropped(self, tmp_path, cpus, text):
        manifest = write_dataset(tmp_path, [("a.csv", "", {})])
        (tmp_path / "a.csv").write_text(text, encoding="utf-8")
        np.testing.assert_array_equal(load_dataset(manifest)[0].samples, [[1, 2], [3, 4]])

    def test_manifest_byte_order_mark_dropped(self, tmp_path):
        manifest = write_dataset(tmp_path, [("a.csv", "1,2\n3,4\n", {"action_id": "x"})])
        manifest.write_bytes(codecs.BOM_UTF8 + manifest.read_bytes())
        assert load_manifest(manifest).entries[0].action_id == "x"
        np.testing.assert_array_equal(load_dataset(manifest)[0].samples, [[1, 2], [3, 4]])

    def test_header_only_file_rejected(self, tmp_path):
        manifest = write_dataset(tmp_path, [("bad.csv", "hip,knee\n\n", {})])
        with pytest.raises(DatasetError, match=r"bad\.csv: no numeric rows"):
            load_dataset(manifest)

    @pytest.mark.parametrize("data, where", [
        (b"\xff1,2\n3,4\n", "line 1: not UTF-8 (byte 0xff)"),
        (b"1,2\r\n\r\n3,4\n5,\xe9\n", "line 4: not UTF-8 (byte 0xe9)"),
        (b"1,2\n3,4\n\xc3", "line 3: not UTF-8 (byte 0xc3)"),
        (codecs.BOM_UTF8 + b"1,2\n3,\xff\n", "line 2: not UTF-8 (byte 0xff)"),
        (codecs.BOM_UTF8 + b"\xe9,2\n3,4\n", "line 1: not UTF-8 (byte 0xe9)"),
    ])
    def test_non_utf8_file_names_file_and_line(self, tmp_path, cpus, data, where):
        files = [(f"a{i}.csv", "1,2\n3,4\n", {"action_id": f"a{i}"}) for i in range(6)]
        manifest = write_dataset(tmp_path, files)
        (tmp_path / "a3.csv").write_bytes(data)
        message = f"{tmp_path / 'a3.csv'}, {where}"
        with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
            load_dataset(manifest)

    @pytest.mark.parametrize("data, where", [
        (b'\xff{"entries": []}', "line 1: not UTF-8 (byte 0xff)"),
        (b'{\n  "dataset_name":\n  "caf\xe9",\n  "entries": []\n}\n', "line 3: not UTF-8 (byte 0xe9)"),
        (codecs.BOM_UTF8 + b'\xc3{"entries": []}', "line 1: not UTF-8 (byte 0xc3)"),
    ], ids=["first-byte", "third-line", "after-bom"])
    def test_non_utf8_manifest_names_manifest_and_line(self, tmp_path, data, where):
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(data)
        message = f"{manifest}, {where}"
        for load in (load_manifest, load_dataset):
            with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
                load(manifest)

    def test_file_under_a_file_is_not_found(self, tmp_path, cpus):
        # a path through a regular file fails as a missing file does, pooled and in-process
        files = [(f"a{i}.csv", "1,2\n3,4\n", {"action_id": f"a{i}"}) for i in range(6)]
        manifest = write_dataset(tmp_path, files)
        payload = json.loads(manifest.read_text())
        payload["entries"][4]["path"] = "a0.csv/a4.csv"
        manifest.write_text(json.dumps(payload))
        message = f"{tmp_path / 'a0.csv' / 'a4.csv'}: file not found (action 'a4')"
        with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
            load_dataset(manifest)

    @pytest.mark.parametrize("path, message", [
        ("./a0.csv", "{dir}/a0.csv: action 'a4_dup' and action 'a0' resolve to the same file"),
        ("manifest.json", "{dir}/manifest.json: action 'a4_dup' and the manifest resolve to the same file"),
    ], ids=["same-file", "manifest-file"])
    def test_entries_sharing_a_file_fail_before_any_csv_is_read(self, tmp_path, cpus, path, message):
        # a copy of an action in its own training folds would score as a neighbour;
        # a1.csv is unparseable, and the shared file is named before it
        files = [(f"a{i}.csv", "1,2\n3,4\n", {"action_id": f"a{i}"}) for i in range(6)]
        files[1] = ("a1.csv", "1,x\n", {"action_id": "a1"})
        manifest = write_dataset(tmp_path, files)
        payload = json.loads(manifest.read_text())
        payload["entries"].append({**payload["entries"][4], "path": path, "action_id": "a4_dup"})
        manifest.write_text(json.dumps(payload))
        expected = message.format(dir=tmp_path)
        with pytest.raises(DatasetError, match=f"^{re.escape(expected)}$"):
            load_dataset(manifest)

    @pytest.mark.parametrize("path", [".", "loop"], ids=["directory", "symlink-loop"])
    def test_unreadable_path_names_file_and_action(self, tmp_path, cpus, path):
        # the manifest's own directory, or a link to itself: neither can be read as a file
        files = [(f"a{i}.csv", "1,2\n3,4\n", {"action_id": f"a{i}"}) for i in range(6)]
        manifest = write_dataset(tmp_path, files)
        (tmp_path / "loop").symlink_to("loop")
        payload = json.loads(manifest.read_text())
        payload["entries"][3]["path"] = path
        manifest.write_text(json.dumps(payload))
        with pytest.raises(DatasetError, match=f"^{re.escape(str(tmp_path / path))}: .+ \\(action 'a3'\\)$"):
            load_dataset(manifest)


def spy_pools(monkeypatch):
    """The worker count of every process pool ``ingest`` starts from now on."""
    pools = []

    class Spy(ingest.ProcessPoolExecutor):
        def __init__(self, workers, **kwargs):
            pools.append(workers)
            super().__init__(workers, **kwargs)

    monkeypatch.setattr(ingest, "ProcessPoolExecutor", Spy)
    return pools


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="the pool needs fork"
)
class TestParsePool:
    MIXED = [
        ("deg.csv", "1.5,-2,3e1\n4,5,6\n7,8,9\n", {}),
        ("rad.csv", f"{math.pi},0,1\n0,{math.pi / 2},-1\n", {"angle_unit": "rad"}),
        ("header.csv", "hip,knee,ankle\n1,2,3\n4,5,6\n", {"frame_rate": 120.0}),
        ("crlf.csv", "1,2,3\r\n4,5,6\r\n", {"class_label": "k", "subject_id": "t"}),
        ("blank.csv", "\n1,2,3\n\n \n4,5,6\n\n", {}),
    ]

    def load_both(self, monkeypatch, manifest):
        set_cpus(monkeypatch, 2)
        pooled = load_dataset(manifest)
        set_cpus(monkeypatch, 1)
        return pooled, load_dataset(manifest)

    def assert_same(self, pooled, serial):
        assert len(pooled) == len(serial)
        for a, b in zip(pooled, serial):
            assert a.samples.tobytes(order="A") == b.samples.tobytes(order="A")
            assert (a.samples.shape, a.samples.dtype) == (b.samples.shape, b.samples.dtype)
            assert a.samples.flags == b.samples.flags
            assert (a.action_id, a.class_label, a.subject_id, a.frame_rate) == (
                b.action_id, b.class_label, b.subject_id, b.frame_rate)

    def test_pool_equals_serial_on_a_mixed_set(self, tmp_path, monkeypatch):
        files = [
            (f"{i}{name}", text, {"action_id": f"{i}{name}", **meta})
            for i in range(3) for name, text, meta in self.MIXED
        ]
        pooled, serial = self.load_both(monkeypatch, write_dataset(tmp_path, files))
        self.assert_same(pooled, serial)
        assert pooled[1].samples[0, 0] == 180.0
        assert pooled[2].num_frames == 2 and pooled[2].frame_rate == 120.0

    def test_pool_equals_serial_on_one_column(self, tmp_path, monkeypatch):
        files = [(f"c{i}.csv", f"{i}\n{i + 1}\n\n{-i}\n", {"action_id": f"c{i}"}) for i in range(9)]
        pooled, serial = self.load_both(monkeypatch, write_dataset(tmp_path, files))
        self.assert_same(pooled, serial)
        assert pooled[3].samples.shape == (3, 1)

    def test_one_row_fails_alike(self, tmp_path, monkeypatch):
        files = [(f"r{i}.csv", "1,2\n3,4\n" if i != 5 else "1,2\n", {"action_id": f"r{i}"})
                 for i in range(9)]
        manifest = write_dataset(tmp_path, files)
        errors = []
        for n in (2, 1):
            set_cpus(monkeypatch, n)
            with pytest.raises(DatasetError) as exc:
                load_dataset(manifest)
            errors.append(str(exc.value))
        message = f"{tmp_path / 'r5.csv'}: need at least 2 frames for velocities and variances, got 1"
        assert errors == [message, message]

    def test_pool_only_with_more_than_one_cpu_and_file(self, tmp_path, monkeypatch):
        pools = spy_pools(monkeypatch)
        files = [(f"a{i}.csv", "1,2\n3,4\n", {"action_id": f"a{i}"}) for i in range(3)]
        manifest = write_dataset(tmp_path, files)
        (tmp_path / "one").mkdir()
        single = write_dataset(tmp_path / "one", [("a.csv", "1,2\n3,4\n", {})])
        for n, path in [(1, manifest), (4, single), (2, manifest), (4, manifest)]:
            set_cpus(monkeypatch, n)
            load_dataset(path)
        assert pools == [2, 3]

    @pytest.mark.parametrize("bad, later", [
        ("malformed", "missing"),
        ("columns", "malformed"),
        ("missing", "malformed"),
    ])
    def test_first_bad_entry_in_manifest_order_wins(self, tmp_path, cpus, bad, later):
        kinds = {"malformed": "1,2\n3,x\n", "columns": "1,2,3\n4,5,6\n", "missing": None}
        files = [(f"a{i:02d}.csv", "1,2\n3,4\n", {"action_id": f"a{i:02d}"}) for i in range(12)]
        files[5] = ("a05.csv", kinds[bad] or "", {"action_id": "a05"})
        files[9] = ("a09.csv", kinds[later] or "", {"action_id": "a09"})
        manifest = write_dataset(tmp_path, files)
        for index, kind in ((5, bad), (9, later)):
            if kinds[kind] is None:
                (tmp_path / f"a{index:02d}.csv").unlink()
        path = tmp_path / "a05.csv"
        message = {
            "malformed": f"{path}, line 2: non-numeric value 'x'",
            "columns": f"{path}: 3 joint columns, but the rest of 'tiny' has 2",
            "missing": f"{path}: file not found (action 'a05')",
        }[bad]
        with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
            load_dataset(manifest)


PARITY_CELLS = [
    " 1.5 ", "+1", ".5", "5.", "1E5", "-0", "#1", "1,,2", "1,2,", '"1"', "1_0",
    "nan", "inf", "0x10", "\u0661", "\uff11", "\uff11.5",
]

# Cells the grammar test draws from: ASCII digits, signs, the point, the
# exponent, the separator, blanks, the letters of inf and nan, and
# fullwidth and Arabic-Indic digits, which float() reads and numpy does not.
GRAMMAR_CELLS = st.text("0123456789+-.e_ \tinfa\uff11\uff15\u0661\u0667", max_size=6)


def numpy_reads(cell):
    """Whether ``np.loadtxt`` reads ``cell``, as a one-line input, as a number."""
    if not cell.strip():
        return False
    try:
        np.loadtxt([cell], delimiter=",", comments=None)
    except ValueError:
        return False
    return True


def first_fault(path, lines):
    """The error for the first bad (line number, line), judged cell by cell and line by line by numpy."""
    width = len(lines[0][1].split(","))
    for n, line in lines:
        cells = line.split(",")
        bad = [c.strip() for c in cells if not numpy_reads(c)]
        if bad:
            return f"{path}, line {n}: non-numeric value {bad[0]!r}"
        if not np.isfinite(np.loadtxt([line], delimiter=",", comments=None)).all():
            return f"{path}, line {n}: non-finite value"
        if len(cells) != width:
            return f"{path}, line {n}: expected {width} columns, got {len(cells)}"
    return None


class TestReaderParity:
    """The one-call reader against a float()-per-cell reference: same array or same error."""

    @pytest.mark.parametrize("cell", PARITY_CELLS)
    def test_cell(self, tmp_path, cell):
        # with loadtxt's default comments='#', the '#1' row would vanish
        path = tmp_path / "a.csv"
        path.write_text(f"5,6\n{cell},7\n", encoding="utf-8")
        assert outcome(ingest._read_csv_matrix, path) == outcome(reference_read, path)

    @pytest.mark.parametrize("text", ["1,2\n3\n4,5\n", "1,2\n3,4,5\n", "hip,knee\n", "\n \n", ""],
                             ids=["short-row", "long-row", "header-only", "blank", "empty"])
    def test_file(self, tmp_path, text):
        path = tmp_path / "a.csv"
        path.write_text(text, encoding="utf-8")
        result = outcome(ingest._read_csv_matrix, path)
        assert result == outcome(reference_read, path) and result[0] == "error"

    @pytest.mark.parametrize("text", [
        "\ufeff1,2\n3,4\n", "\ufeffhip,knee\n1,2\n", "\ufeff\n1,2\n", "\ufeff\ufeff1,2\n",
        "1,2\n\ufeff3,4\n", "\ufeff",
    ], ids=["data", "header", "blank-first", "two-marks", "mark-inside", "mark-only"])
    def test_byte_order_mark(self, tmp_path, text):
        # one leading mark is dropped; any other is a non-numeric cell
        path = tmp_path / "a.csv"
        path.write_text(text, encoding="utf-8")
        assert outcome(ingest._read_csv_matrix, path) == outcome(reference_read, path)

    @pytest.mark.parametrize("cell", ["\u0661", "\uff11", "\uff11.5", "1e\uff11", "\u0661.5"])
    def test_non_ascii_digit_is_a_non_numeric_value(self, tmp_path, cell):
        # float() reads these digits, numpy's parser does not: the cell and its line are named
        path = tmp_path / "a.csv"
        path.write_text(f"5,6\n\n{cell},7\n", encoding="utf-8")
        message = f"{path}, line 3: non-numeric value {cell!r}"
        with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
            ingest._read_csv_matrix(path)

    FAULTS = {"non-numeric": "3,x", "non-finite": "inf,4", "columns": "3,4,5"}
    MESSAGES = {"non-numeric": "non-numeric value 'x'", "non-finite": "non-finite value",
                "columns": "expected 2 columns, got 3"}

    @pytest.mark.parametrize("first, later", [
        (a, b) for a in ("non-numeric", "non-finite", "columns")
        for b in ("non-numeric", "non-finite", "columns") if a != b
    ])
    def test_first_faulty_line_wins_whatever_the_kinds(self, tmp_path, first, later):
        path = tmp_path / "a.csv"
        text = f"1,2\n{self.FAULTS[first]}\n5,6\n7,8\n{self.FAULTS[later]}\n9,10\n"
        path.write_text(text, encoding="utf-8")
        message = f"{path}, line 2: {self.MESSAGES[first]}"
        with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
            ingest._read_csv_matrix(path)
        assert outcome(reference_read, path) == ("error", message)

    @pytest.mark.parametrize("row, kind", [
        ("nan,x", "non-numeric"), ("x,inf,5", "non-numeric"), ("-inf,4,5", "non-finite"),
    ], ids=["non-numeric-over-non-finite", "non-numeric-over-columns", "non-finite-over-columns"])
    def test_faults_on_one_line_keep_their_order(self, tmp_path, row, kind):
        path = tmp_path / "a.csv"
        path.write_text(f"1,2\n3,4\n{row}\n", encoding="utf-8")
        message = f"{path}, line 3: {self.MESSAGES[kind]}"
        with pytest.raises(DatasetError, match=f"^{re.escape(message)}$"):
            ingest._read_csv_matrix(path)
        assert outcome(reference_read, path) == ("error", message)


class TestReaderGrammar:
    """The reader against ``np.loadtxt``: its array, or an error naming the first line numpy finds bad."""

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.lists(GRAMMAR_CELLS, min_size=1, max_size=3), min_size=1, max_size=4))
    def test_reader_is_numpy(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("grammar") / "a.csv"
        text = "".join(",".join(row) + "\n" for row in rows)
        path.write_text(text, encoding="utf-8")
        lines = [(n, line) for n, line in enumerate(text.splitlines(), start=1) if line.strip()]
        if lines and not any(map(numpy_reads, lines[0][1].split(","))):
            lines = lines[1:]
        fault = first_fault(path, lines) if lines else f"{path}: no numeric rows"
        if fault is None:
            expected = np.loadtxt([line for _, line in lines], delimiter=",", comments=None, ndmin=2)
            assert ingest._read_csv_matrix(path).tobytes() == expected.tobytes()
        else:
            with pytest.raises(DatasetError, match=f"^{re.escape(fault)}$"):
                ingest._read_csv_matrix(path)


def lowpass(action, spec):
    (filtered,) = butterworth_filter([action], spec)
    return filtered


class TestButterworthFilter:
    def test_constant_column_unchanged(self):
        action = random_action(np.random.default_rng(0), joints=2, frames=200, frame_rate=120.0)
        constant = action.with_samples(np.full((200, 2), 17.0))
        filtered = lowpass(constant, FilterSpec(cutoff_hz=10.0))
        np.testing.assert_allclose(filtered.samples, constant.samples, atol=1e-9)

    def test_passband_sinusoid_preserved(self):
        fs, f = 120.0, 1.0
        t = np.arange(int(fs * 6)) / fs
        x = 25.0 * np.sin(2 * np.pi * f * t)
        action = random_action(np.random.default_rng(0), joints=1, frames=t.size, frame_rate=fs)
        filtered = lowpass(action.with_samples(x[:, None]), FilterSpec(cutoff_hz=10.0))
        trim = int(fs)  # drop one second per edge
        measured = np.abs(filtered.samples[trim:-trim, 0]).max()
        assert abs(measured - 25.0) / 25.0 < 0.01

    def test_stopband_sinusoid_attenuated(self):
        fs, f, order, cutoff = 120.0, 50.0, 2, 10.0
        t = np.arange(int(fs * 6)) / fs
        x = 25.0 * np.sin(2 * np.pi * f * t)
        action = random_action(np.random.default_rng(0), joints=1, frames=t.size, frame_rate=fs)
        filtered = lowpass(action.with_samples(x[:, None]), FilterSpec(cutoff_hz=cutoff, order=order))
        trim = int(fs)
        measured_gain = np.abs(filtered.samples[trim:-trim, 0]).max() / 25.0
        # analytic magnitude oracle: one pass gives 1/sqrt(1 + (f/fc)^(2n)),
        # forward-backward squares it; the digital filter attenuates at least as much
        analytic_gain = (1.0 / math.sqrt(1.0 + (f / cutoff) ** (2 * order))) ** 2
        assert measured_gain <= 0.01
        assert measured_gain <= analytic_gain * 1.05

    def test_cutoff_at_or_above_nyquist_rejected(self, rng):
        action = random_action(rng, frames=50, frame_rate=30.0)
        with pytest.raises(ValueError, match="Nyquist"):
            lowpass(action, FilterSpec(cutoff_hz=15.0))

    def test_nyquist_error_names_first_action_at_that_rate(self, rng):
        pool = [
            random_action(rng, frame_rate=120.0, action_id="fast"),
            random_action(rng, frame_rate=30.0, action_id="slow1"),
            random_action(rng, frame_rate=30.0, action_id="slow2"),
        ]
        with pytest.raises(ValueError, match=r"15\.0 Hz of a 30\.0 Hz recording \(action 'slow1'\)"):
            butterworth_filter(pool, FilterSpec(cutoff_hz=20.0))

    def test_nyquist_is_checked_for_every_group_before_any_is_filtered(self, rng, monkeypatch):
        calls = []
        monkeypatch.setattr(ingest, "_sosfiltfilt", lambda *args: calls.append(args) or [])
        pool = [random_action(rng, frame_rate=120.0, action_id=f"fast{i}") for i in range(3)]
        pool.append(random_action(rng, frame_rate=30.0, action_id="slow"))
        with pytest.raises(ValueError, match=r"of a 30\.0 Hz recording \(action 'slow'\)"):
            butterworth_filter(pool, FilterSpec(cutoff_hz=20.0))
        assert calls == []

    @pytest.mark.parametrize("cutoff, message", [
        (0.0, "cutoff 0.0 Hz must be positive"),
        (math.nan, "cutoff nan Hz must be positive"),
        (15.0, "cutoff 15.0 Hz must stay below the Nyquist frequency 15.0 Hz of a 30.0 Hz recording"),
    ], ids=["zero", "nan", "nyquist"])
    def test_design_rejects_a_cutoff_outside_the_band(self, cutoff, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lowpass_sos(2, cutoff, 30.0)

    @pytest.mark.parametrize("order, cutoff", [(250, 110.0), (520, 10.0), (400, 1.0)],
                             ids=["gain-overflows", "section-not-finite", "gain-underflows"])
    def test_unbuildable_design_names_the_action_before_any_is_filtered(self, rng, monkeypatch, order, cutoff):
        calls = []
        monkeypatch.setattr(ingest, "_sosfiltfilt", lambda *args: calls.append(args) or [])
        pool = [random_action(rng, frame_rate=240.0, action_id=name) for name in ("first", "second")]
        expected = f"order {order} is too high for a {cutoff} Hz low-pass of a 240.0 Hz recording: "
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}.*\\(action 'first'\\)$"):
            butterworth_filter(pool, FilterSpec(cutoff_hz=cutoff, order=order))
        assert calls == []

    def test_linearity(self, rng):
        a = random_action(rng, joints=3, frames=150, frame_rate=60.0)
        b = random_action(rng, joints=3, frames=150, frame_rate=60.0)
        spec = FilterSpec(cutoff_hz=10.0)
        combined = lowpass(a.with_samples(a.samples + b.samples), spec)
        separate = lowpass(a, spec).samples + lowpass(b, spec).samples
        np.testing.assert_allclose(combined.samples, separate, atol=1e-9)

    def test_high_order_low_cutoff_stays_bounded(self):
        # order 10 at 1 Hz of 240 Hz: the (b, a) form filtered this walk to ~1e44
        walk = np.cumsum(np.random.default_rng(5).standard_normal(2400))
        walk = 150.0 * (walk - walk.min()) / (walk.max() - walk.min())
        action = ActionMatrix(walk[:, None], frame_rate=240.0)
        filtered = lowpass(action, FilterSpec(cutoff_hz=1.0, order=10)).samples
        assert np.isfinite(filtered).all()
        assert filtered.min() >= -50.0 and filtered.max() <= 200.0

    def test_short_signal_supported(self):
        action = random_action(np.random.default_rng(1), joints=2, frames=5, frame_rate=60.0)
        filtered = lowpass(action, FilterSpec(cutoff_hz=10.0))
        assert filtered.num_frames == 5

    def test_pool_keeps_order_and_metadata(self, rng):
        pool = [
            random_action(rng, frames=frames, frame_rate=rate, action_id=f"a{i}", class_label=f"c{i}")
            for i, (frames, rate) in enumerate([(12, 60.0), (30, 120.0), (2, 60.0), (25, 120.0)])
        ]
        filtered = butterworth_filter(pool, FilterSpec(cutoff_hz=5.0))
        assert [a.action_id for a in filtered] == ["a0", "a1", "a2", "a3"]
        for before, after in zip(pool, filtered):
            assert after.samples.shape == before.samples.shape
            assert (after.frame_rate, after.class_label) == (before.frame_rate, before.class_label)
        assert butterworth_filter([], FilterSpec()) == []

    def test_kept_list_is_left_intact(self, rng):
        # the filter drops only its own references; the caller's list and actions stay valid
        shapes = [(40, 60.0), (90, 60.0), (35, 120.0), (50, 60.0), (3, 120.0)]
        pool = [random_action(rng, joints=5, frames=f, frame_rate=r, action_id=f"a{i}")
                for i, (f, r) in enumerate(shapes)]
        kept, values = list(pool), [a.samples.copy(order="A") for a in pool]
        spec = FilterSpec(cutoff_hz=8.0, order=3)
        filtered = butterworth_filter(pool, spec)
        handed = butterworth_filter(iter([a.with_samples(a.samples) for a in pool]), spec)
        assert len(pool) == len(kept) and all(a is b for a, b in zip(pool, kept))
        for action, samples in zip(pool, values):
            assert action.samples.tobytes(order="A") == samples.tobytes(order="A")
        for a, b in zip(filtered, handed):
            assert a.samples.tobytes(order="A") == b.samples.tobytes(order="A")
            assert a.samples.flags == b.samples.flags
            assert (a.action_id, a.class_label, a.subject_id, a.frame_rate) == (
                b.action_id, b.class_label, b.subject_id, b.frame_rate)

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            FilterSpec(cutoff_hz=0.0)
        with pytest.raises(ValueError):
            FilterSpec(order=0)

    @pytest.mark.parametrize("cutoff", [math.inf, math.nan])
    def test_non_finite_cutoff_rejected(self, cutoff):
        with pytest.raises(ValueError, match=f"cutoff_hz must be finite, got {cutoff!r}"):
            FilterSpec(cutoff_hz=cutoff)

    @pytest.mark.parametrize("cutoff", [0.0, -1.0, -math.inf])
    def test_cutoff_at_or_below_zero_is_not_positive(self, cutoff):
        with pytest.raises(ValueError, match=f"cutoff_hz must be positive, got {cutoff!r}"):
            FilterSpec(cutoff_hz=cutoff)

    @pytest.mark.parametrize("order", [2.5, True, False, "2", None])
    def test_non_integral_or_bool_order_rejected(self, order):
        with pytest.raises(ValueError, match=f"order must be a whole number, got {order!r}"):
            FilterSpec(order=order)

    def test_whole_float_order_accepted(self):
        assert FilterSpec(order=3.0).order == 3
        assert FilterSpec(order=np.int64(4)).order == 4


def pool_actions(rng, count, frames, joints):
    for i in range(count):
        yield ActionMatrix(rng.standard_normal((frames, joints)), 120.0, f"c{i % 3}", "s", f"a{i}")


class TestFilterMemory:
    """A pool handed over to the filter is held once at the peak, plus one chunk of buffer.

    The raw actions not yet buffered and the filtered copies add up to one
    pool. The 180-action pool spans three chunks of the real bound, so a
    filter that buffered it whole would hold it about twice.
    """

    @pytest.mark.parametrize("count, frames, joints", [(40, 600, 20), (80, 60, 60), (180, 600, 20)])
    @pytest.mark.parametrize("hand_over", [lambda pool: iter(list(pool)), lambda pool: pool],
                             ids=["iterator", "generator"])
    def test_handed_over_pool_is_freed_as_it_is_buffered(self, rng, count, frames, joints, hand_over):
        # a list argument would stay alive in this frame during the call on Python 3.10
        filtered, peak = traced_peak(
            lambda: butterworth_filter(hand_over(pool_actions(rng, count, frames, joints)), FilterSpec())
        )
        assert [a.samples.shape for a in filtered] == [(frames, joints)] * count
        assert peak < pool_held_once(count, frames, joints)


class TestGenerateSynthetic:
    def test_same_seed_is_bit_identical(self):
        config = SyntheticConfig(classes=3, per_class=2, subjects=2, joints=10, frames=50, seed=4)
        actions1, manifest1 = generate_synthetic(config)
        actions2, manifest2 = generate_synthetic(config)
        assert manifest1.entries == manifest2.entries
        for a, b in zip(actions1, actions2):
            np.testing.assert_array_equal(a.samples, b.samples)

    def test_entry_count(self):
        config = SyntheticConfig(classes=3, per_class=4, subjects=2, joints=8, frames=30, seed=0)
        actions, manifest = generate_synthetic(config)
        assert len(actions) == len(manifest.entries) == 3 * 4 * 2

    def test_in_phase_pair_strongly_correlated(self):
        config = SyntheticConfig(classes=2, per_class=2, subjects=1, joints=10, frames=120, seed=8)
        actions, _ = generate_synthetic(config)
        # the first two active joints of each class are forced in phase
        action = actions[0]
        variances = action.samples.var(axis=0)
        top = np.argsort(-variances)[: config.num_active]
        i, j = sorted(top.tolist())[:2]
        c = pearson(list(action.samples[:, i]), list(action.samples[:, j]))
        assert abs(c) >= 0.9

    def test_disjoint_two_class_loo_is_perfect(self):
        config = SyntheticConfig(
            classes=2, per_class=4, subjects=2, joints=12, frames=90,
            seed=3, active_per_class=3, disjoint_classes=True,
        )
        actions, _ = generate_synthetic(config)
        descs = [compute_descriptor(a, 3) for a in actions]
        labels = [a.class_label for a in actions]
        # full enumeration: cross-class scores are exactly zero, within-class positive
        correct = 0
        for i in range(len(actions)):
            scores = [csm(descs[i], descs[j]) if j != i else -1.0 for j in range(len(actions))]
            best = int(np.argmax(scores))
            correct += labels[best] == labels[i]
            for j in range(len(actions)):
                if j != i and labels[j] != labels[i]:
                    assert scores[j] == 0.0
        assert correct == len(actions)

    def test_disjoint_infeasible_config_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            SyntheticConfig(classes=5, per_class=1, subjects=1, joints=8,
                            active_per_class=2, disjoint_classes=True)

    @pytest.mark.parametrize("rate", [math.inf, math.nan, 0.0])
    def test_frame_rate_validated(self, rate):
        with pytest.raises(ValueError, match="frame_rate must be positive and finite"):
            SyntheticConfig(classes=1, per_class=1, subjects=1, frame_rate=rate)

    @pytest.mark.parametrize("field, value, message", [
        ("noise_deg", -1.0, "noise_deg must be finite and non-negative, got -1.0"),
        ("noise_deg", math.nan, "noise_deg must be finite and non-negative, got nan"),
        ("noise_deg", math.inf, "noise_deg must be finite and non-negative, got inf"),
        ("amplitude_deg", math.nan, "amplitude_deg must be finite, got nan"),
        ("amplitude_deg", -math.inf, "amplitude_deg must be finite, got -inf"),
    ])
    def test_float_fields_validated(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            SyntheticConfig(classes=1, per_class=1, subjects=1, **{field: value})

    @pytest.mark.parametrize("fields, message", [
        ({"frames": 1}, "need at least 2 frames"),
        ({"active_per_class": 1}, "active_per_class must be at least 2"),
        ({"joints": 6, "active_per_class": 7}, "active_per_class cannot exceed the joint count"),
    ], ids=["one-frame", "one-active-joint", "more-active-than-joints"])
    def test_shape_fields_validated(self, fields, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SyntheticConfig(classes=1, per_class=1, subjects=1, **fields)

    def test_zero_noise_and_negative_amplitude_accepted(self):
        SyntheticConfig(classes=1, per_class=1, subjects=1, noise_deg=0.0, amplitude_deg=-5.0)

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            SyntheticConfig(classes=0, per_class=1, subjects=1)
        with pytest.raises(ValueError):
            SyntheticConfig(classes=1, per_class=1, subjects=1, joints=3)


class TestRoundTrip:
    def test_save_then_load_is_value_identical(self, tmp_path):
        config = SyntheticConfig(classes=2, per_class=2, subjects=2, joints=6, frames=40, seed=9)
        actions, manifest = generate_synthetic(config)
        manifest_path = save_dataset(actions, manifest, tmp_path / "data")
        loaded = load_dataset(manifest_path)
        assert len(loaded) == len(actions)
        for original, reread in zip(actions, loaded):
            np.testing.assert_array_equal(reread.samples, original.samples)
            assert reread.class_label == original.class_label
            assert reread.subject_id == original.subject_id
            assert reread.action_id == original.action_id
            assert reread.frame_rate == original.frame_rate


def manifest_for(entries):
    """A manifest of (action_id, path) pairs, for actions at 30 Hz with no class or subject."""
    return ingest.DatasetManifest("saved", tuple(
        ingest.ManifestEntry(path, "", "", action_id, 30.0) for action_id, path in entries
    ))


def written(out_dir):
    return {p.relative_to(out_dir).as_posix(): p.read_bytes() for p in sorted(out_dir.rglob("*"))}


class TestSaveDataset:
    # each value's shortest round-trip repr, as the writer prints it
    SPECIAL = [(-0.0, "-0.0"), (5e-324, "5e-324"), (1e308, "1e+308"), (0.1, "0.1")]

    def special_values(self):
        values = np.array([v for v, _ in self.SPECIAL])
        return np.column_stack([values, -values, values[::-1]])

    def mixed_actions(self, rng):
        special = self.special_values()
        actions = [
            ActionMatrix(special, 30.0, action_id="special"),
            ActionMatrix(special[:, :1], 30.0, action_id="one-column"),
        ]
        actions += [random_action(rng, joints=j, frames=f, action_id=f"odd{j}")
                    for j, f in [(1, 2), (3, 7), (5, 30), (7, 11), (9, 4), (31, 3)]]
        # the writer formats any 2-D samples; an ActionMatrix needs 2 frames
        actions.append(SimpleNamespace(
            action_id="one-row", samples=special[None, :, 0], class_label="", subject_id="", frame_rate=30.0,
        ))
        return actions

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="the pool needs fork"
    )
    def test_pool_bytes_equal_serial_bytes(self, tmp_path, monkeypatch, rng):
        pools = spy_pools(monkeypatch)
        actions = self.mixed_actions(rng)
        manifest = manifest_for([(a.action_id, f"{a.action_id}.csv") for a in actions])
        files = []
        for n in (2, 1):
            set_cpus(monkeypatch, n)
            save_dataset(actions, manifest, tmp_path / f"cpus{n}")
            files.append(written(tmp_path / f"cpus{n}"))
        assert pools == [2]
        assert files[0] == files[1]
        assert sorted(files[0]) == sorted([f"{a.action_id}.csv" for a in actions] + ["manifest.json"])
        for action in actions:
            expected = "".join(",".join(map(repr, row)) + "\n" for row in action.samples.tolist())
            assert files[0][f"{action.action_id}.csv"] == expected.encode("utf-8")
        assert files[0]["one-row.csv"] == (",".join(text for _, text in self.SPECIAL) + "\n").encode()
        assert files[0]["one-column.csv"] == "".join(text + "\n" for _, text in self.SPECIAL).encode()

    def test_save_then_load_is_bit_identical(self, tmp_path, cpus, rng):
        actions = [ActionMatrix(self.special_values(), 30.0, action_id="special")]
        actions += [random_action(rng, joints=3, frames=f, action_id=f"r{f}") for f in (2, 7, 30, 11)]
        manifest = manifest_for([(a.action_id, f"{a.action_id}.csv") for a in actions])
        loaded = load_dataset(save_dataset(actions, manifest, tmp_path / "data"))
        assert [a.action_id for a in loaded] == [a.action_id for a in actions]
        for original, reread in zip(actions, loaded):
            assert reread.samples.tobytes(order="A") == original.samples.tobytes(order="A")

    def test_missing_directory_fails_at_the_first_such_entry(self, tmp_path, cpus, rng):
        actions = [random_action(rng, joints=3, frames=5, action_id=f"a{i:02d}") for i in range(12)]
        paths = [f"a{i:02d}.csv" for i in range(12)]
        paths[3], paths[9] = "missing/a03.csv", "gone/a09.csv"
        out = tmp_path / "out"
        with pytest.raises(OSError) as exc:
            save_dataset(actions, manifest_for(zip([a.action_id for a in actions], paths)), out)
        assert exc.value.filename == str(out / "missing" / "a03.csv")
        assert str(out / "missing" / "a03.csv") in str(exc.value)
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("case, message", [
        ("shared id", "actions share an action_id: 'a1'"),
        ("missing action", "manifest entries have no matching action: 'a5', 'a7'"),
        ("same file", "{out}/a0.csv: action 'a4' and action 'a0' resolve to the same file"),
        ("manifest file", "{out}/manifest.json: action 'a4' and the manifest resolve to the same file"),
    ], ids=["shared-id", "missing-action", "same-file", "manifest-file"])
    def test_collisions_fail_before_any_file_is_written(self, tmp_path, cpus, rng, case, message):
        actions = [random_action(rng, joints=3, frames=5, action_id=f"a{i}") for i in range(8)]
        entries = [(a.action_id, f"{a.action_id}.csv") for a in actions]
        if case == "shared id":
            actions[6] = ActionMatrix(actions[6].samples, 30.0, action_id="a1")
        elif case == "missing action":
            del actions[7], actions[5]
        elif case == "same file":
            entries[4] = ("a4", "./a0.csv")
        else:
            entries[4] = ("a4", "manifest.json")
        out = tmp_path / "out"
        expected = message.format(out=out)
        with pytest.raises(DatasetError, match=f"^{re.escape(expected)}$"):
            save_dataset(actions, manifest_for(entries), out)
        assert not out.exists()

    def test_radian_manifest_round_trip_is_byte_equal(self, tmp_path, cpus, rng):
        # loaded actions hold degrees, so the saved entries say "deg", not the source's "rad"
        samples = rng.uniform(-3.0, 3.0, size=(5, 3))
        text = "".join(",".join(map(repr, row)) + "\n" for row in samples.tolist())
        source = write_dataset(tmp_path, [("r.csv", text, {"angle_unit": "rad", "frame_rate": 120.0})])
        first = load_dataset(source)
        saved = save_dataset(first, load_manifest(source), tmp_path / "saved")
        second = load_dataset(saved)
        assert [e.angle_unit for e in load_manifest(saved).entries] == ["deg"]
        assert second[0].samples.tobytes() == first[0].samples.tobytes()
        assert second[0].frame_rate == first[0].frame_rate == 120.0

    @pytest.mark.parametrize("field, value, shown", [
        ("frame_rate", 120.0, "120.0"),
        ("class_label", "clap", "'clap'"),
        ("subject_id", "s07", "'s07'"),
    ], ids=["frame_rate", "class_label", "subject_id"])
    def test_entry_that_disagrees_with_its_action_fails_before_any_file_is_written(
        self, tmp_path, cpus, rng, field, value, shown
    ):
        actions = [random_action(rng, joints=3, frames=5, action_id=f"a{i}") for i in range(4)]
        manifest = manifest_for([(a.action_id, f"{a.action_id}.csv") for a in actions])
        entries = list(manifest.entries)
        entries[2] = dataclasses.replace(entries[2], **{field: value})
        out = tmp_path / "out"
        expected = f"action 'a2': the manifest's {field} {shown} differs from the action's "
        with pytest.raises(DatasetError, match=f"^{re.escape(expected)}"):
            save_dataset(actions, ingest.DatasetManifest("saved", entries), out)
        assert not out.exists()
