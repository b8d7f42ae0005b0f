"""The report writers: _json_text's strictness, _csv_text against
csv.DictWriter, which it stands in for, and _atomic_write's file protocol
(mode, temp files, short writes, files left as they are)."""

import csv
import io
import json
import locale
import math
import os
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabaudit.harness import EXIT_PASS, _atomic_write, _csv_text, _json_text, run_config

# ---------------------------------------------------------------------------
# JSON text


def dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def outcome(encode, obj):
    """The text, or the type of the exception raised."""
    try:
        return encode(obj)
    except (ValueError, TypeError) as e:
        return type(e)


@pytest.mark.parametrize(
    "obj",
    [
        math.nan,
        [1.0, math.inf],
        {"a": {"b": -math.inf}},
        {math.nan: 1},
        {math.inf: 1},
        Fraction(1, 2),
        [np.int64(1)],
        {"a": object()},
        {(1, 2): 3},
        {1: "x", "a": "y"},  # keys that do not sort
    ],
)
def test_json_text_raises_the_exception_type_of_json_dumps(obj):
    """A report is strict JSON: nan and inf are refused, not written as NaN
    or Infinity, and so is any value JSON has no form for."""
    expected = outcome(dumps, obj)
    assert isinstance(expected, type) and issubclass(expected, (ValueError, TypeError))
    assert outcome(_json_text, obj) is expected


# ---------------------------------------------------------------------------
# CSV text


def dictwriter_text(rows, columns):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(columns), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in columns})
    return buf.getvalue()


_fields = st.text(alphabet=st.sampled_from('a1,"\n\r \'é')) | st.integers() | st.floats(allow_nan=False) | st.booleans()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_csv_text_equals_the_dict_writer(data):
    columns = data.draw(st.lists(st.text(alphabet=st.sampled_from('ab,"\n ')), min_size=1, max_size=4, unique=True))
    keys = st.sampled_from(columns) | st.sampled_from(["extra", "other"])
    rows = data.draw(st.lists(st.dictionaries(keys, _fields, max_size=6), max_size=5))
    as_tuple = data.draw(st.booleans())
    assert _csv_text(rows, tuple(columns) if as_tuple else columns) == dictwriter_text(rows, columns)


def test_csv_text_hand_rows():
    rows = [{"a": 'say "hi", then\nbye', "b": 1.5}, {"b": 2, "z": "dropped"}, {}]
    assert _csv_text(rows, ["a", "b"]) == 'a,b\n"say ""hi"", then\nbye",1.5\n,2\n,\n'


# ---------------------------------------------------------------------------
# atomic writes


TEXT = '{\n  "é": "report ☃"\n}\n' * 50


def test_atomic_write_writes_the_bytes_of_a_text_mode_file(tmp_path):
    _atomic_write(tmp_path / "a.json", TEXT)
    with open(tmp_path / "b.json", "w") as fh:
        fh.write(TEXT)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == TEXT.encode(locale.getpreferredencoding(False))


def test_atomic_write_gives_mode_0644_under_a_strict_umask(tmp_path):
    old = os.umask(0o077)
    try:
        _atomic_write(tmp_path / "a.csv", "x\n")
    finally:
        os.umask(old)
    assert (tmp_path / "a.csv").stat().st_mode & 0o777 == 0o644


def test_atomic_write_finishes_after_short_writes(tmp_path, monkeypatch):
    write, sizes = os.write, []

    def short_write(fd, data):
        sizes.append(len(data))
        return write(fd, bytes(data[:7]))

    monkeypatch.setattr(os, "write", short_write)
    _atomic_write(tmp_path / "a.json", TEXT)
    monkeypatch.undo()
    data = TEXT.encode(locale.getpreferredencoding(False))
    assert (tmp_path / "a.json").read_bytes() == data
    assert len(sizes) == -(-len(data) // 7) and sizes[0] == len(data)


@pytest.mark.parametrize("fails", ["write", "replace"])
def test_atomic_write_leaves_no_temp_file_when_it_fails(tmp_path, monkeypatch, fails):
    (tmp_path / "a.json").write_text("old")

    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(os, fails, fail)
    with pytest.raises(OSError, match="disk full"):
        _atomic_write(tmp_path / "a.json", TEXT)
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ["a.json"]
    assert (tmp_path / "a.json").read_text() == "old"


def _written(tmp_path, name="a.json", text=TEXT):
    """The path after one write, its mtime set back by a day so that a
    second write within the clock's tick still shows."""
    path = tmp_path / name
    _atomic_write(path, text)
    st = path.stat()
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns - 86_400 * 10**9))
    return path, path.stat()


def test_atomic_write_leaves_a_file_that_holds_the_bytes_as_it_is(tmp_path):
    path, before = _written(tmp_path)
    _atomic_write(path, TEXT)
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert [p.name for p in tmp_path.iterdir()] == ["a.json"]


def test_atomic_write_replaces_other_bytes_of_the_same_length(tmp_path):
    path, before = _written(tmp_path)
    other = TEXT.replace("report", "tables")
    assert len(other.encode()) == len(TEXT.encode())
    _atomic_write(path, other)
    assert path.read_text() == other and path.stat().st_ino != before.st_ino


def test_atomic_write_rewrites_equal_bytes_of_another_mode_as_0644(tmp_path):
    path, before = _written(tmp_path)
    path.chmod(0o600)
    _atomic_write(path, TEXT)
    assert path.stat().st_mode & 0o777 == 0o644 and path.stat().st_ino != before.st_ino


def test_atomic_write_replaces_a_symlink_to_equal_bytes_by_a_file(tmp_path):
    target, before = _written(tmp_path, "target.json")
    path = tmp_path / "a.json"
    path.symlink_to(target)
    _atomic_write(path, TEXT)
    assert not path.is_symlink() and path.read_text() == TEXT and path.stat().st_mode & 0o777 == 0o644
    after = target.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert target.read_text() == TEXT


def test_atomic_write_replaces_a_fifo_without_opening_it(tmp_path):
    path = tmp_path / "a.json"
    os.mkfifo(path)
    writer = threading.Thread(target=_atomic_write, args=(path, TEXT), daemon=True)
    writer.start()
    writer.join(timeout=5)
    blocked = writer.is_alive()
    if blocked:  # opening the FIFO's write end frees a reader blocked in open
        os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
        writer.join(timeout=5)
    assert not blocked
    assert path.read_text() == TEXT and path.stat().st_mode & 0o777 == 0o644
    assert [p.name for p in tmp_path.iterdir()] == ["a.json"]


def test_atomic_write_replaces_a_file_of_two_links_and_leaves_the_other(tmp_path):
    path, before = _written(tmp_path)
    snapshot = tmp_path / "snapshot.json"
    os.link(path, snapshot)
    _atomic_write(path, TEXT)
    assert path.read_text() == TEXT and path.stat().st_ino != before.st_ino and path.stat().st_nlink == 1
    after = snapshot.stat()
    assert (after.st_ino, after.st_mtime_ns, after.st_nlink) == (before.st_ino, before.st_mtime_ns, 1)


def test_atomic_write_replaces_equal_bytes_of_another_owner(tmp_path, monkeypatch):
    path, before = _written(tmp_path)
    monkeypatch.setattr(os, "geteuid", lambda: before.st_uid + 1)
    _atomic_write(path, TEXT)
    monkeypatch.undo()
    assert path.read_text() == TEXT and path.stat().st_ino != before.st_ino


def test_atomic_write_over_a_directory_raises(tmp_path):
    (tmp_path / "a.json").mkdir()
    with pytest.raises(IsADirectoryError):
        _atomic_write(tmp_path / "a.json", TEXT)
    assert [p.name for p in tmp_path.iterdir()] == ["a.json"] and (tmp_path / "a.json").is_dir()


def test_a_rerun_into_one_directory_keeps_every_csv_and_replaces_the_json(tmp_path):
    raw = {
        "name": "rerun",
        "domain": {"size": 3},
        "learner": {"name": "subsample_release", "params": {"k": 1}},
        "loss": {"name": "membership"},
        "m": 2,
        "numeric": "exact",
        "audits": ["T1", {"id": "T4", "t_grid": [0.1, 0.2]}, "P3"],
    }
    assert run_config(raw, out_dir=tmp_path)[0] == EXIT_PASS
    first = {p.name: p.stat().st_ino for p in tmp_path.iterdir()}
    assert run_config(raw, out_dir=tmp_path)[0] == EXIT_PASS
    second = {p.name: p.stat().st_ino for p in tmp_path.iterdir()}
    csvs = sorted(name for name in first if name.endswith(".csv"))
    assert sorted(first) == sorted(second) == sorted(csvs + ["rerun.json"])
    assert csvs == ["rerun__P3.csv", "rerun__T1.csv", "rerun__T4.csv", "rerun_summary.csv"]
    assert all(first[name] == second[name] for name in csvs)
    assert first["rerun.json"] != second["rerun.json"]


# ---------------------------------------------------------------------------
# series files


def test_a_repeated_audit_gets_its_own_series_file(tmp_path):
    raw = {
        "name": "dup",
        "domain": {"size": 3},
        "learner": {"name": "subsample_release", "params": {"k": 1}},
        "loss": {"name": "membership"},
        "m": 1,
        "numeric": "exact",
        "audits": [{"id": "T4", "t_grid": [0.1]}, {"id": "T4", "t_grid": [0.2, 0.3]}, {"id": "T4", "t_grid": [0.4]}],
    }
    code, bundle = run_config(raw, out_dir=tmp_path)
    assert code == EXIT_PASS
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["dup.json", "dup__T4-2.csv", "dup__T4-3.csv", "dup__T4.csv", "dup_summary.csv"]
    for name, audit in zip(["dup__T4.csv", "dup__T4-2.csv", "dup__T4-3.csv"], bundle["audits"]):
        rows = list(csv.DictReader(io.StringIO((tmp_path / name).read_text())))
        assert [float(r["t"]) for r in rows] == [row["t"] for row in audit["series"]]
