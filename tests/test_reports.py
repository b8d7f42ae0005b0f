"""The report writers against the standard library they stand in for:
_json_text against json.dumps, _csv_text against csv.DictWriter, and
_atomic_write's file protocol (mode, temp files, short writes)."""

import csv
import io
import json
import locale
import math
import os
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


_tricky_text = st.text(alphabet=st.sampled_from('ab"\\/\n\r\t\x00\x1f\x7f é ☃\U0001f600,'))
_strings = _tricky_text | st.text()
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**200), 2**200),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, np.float64(0.1), np.float64(-0.0), np.float64(1e300)]),
    _strings,
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_strings, children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=3),
        st.dictionaries(st.floats(allow_nan=False, allow_infinity=False), children, max_size=3),
        st.dictionaries(st.booleans(), children, max_size=2),
        st.dictionaries(st.none(), children, max_size=1),
    )


json_values = st.recursive(_scalars, _containers, max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(json_values)
def test_json_text_equals_json_dumps(obj):
    assert _json_text(obj) == dumps(obj)


class _Unsupported:
    pass


_bad_scalars = st.sampled_from(
    [math.nan, math.inf, -math.inf, np.float64("nan"), Fraction(1, 3), np.int64(3), np.bool_(True), _Unsupported(), {1, 2}]
)


@settings(max_examples=300, deadline=None)
@given(st.recursive(_scalars | _bad_scalars, _containers, max_leaves=20))
def test_json_text_raises_what_json_dumps_raises(obj):
    assert outcome(_json_text, obj) == outcome(dumps, obj)


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
    expected = outcome(dumps, obj)
    assert isinstance(expected, type) and issubclass(expected, (ValueError, TypeError))
    assert outcome(_json_text, obj) is expected


def test_json_text_hand_values():
    obj = {"b": [], "a": {}, "c": (1, True, None, -0.0, "é\n"), "2": [{"x": 1e308}, {7: {False: 1}}, {2.5: None}]}
    assert _json_text(obj) == dumps(obj)
    assert _json_text([]) == "[]\n" and _json_text("x") == '"x"\n'


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
