"""Tests for the paper-style table renderer and the experiment registry."""
import os

import pytest

from tests.conftest import _load_bench

reporting = _load_bench("reporting")
ExperimentRegistry, format_table = reporting.ExperimentRegistry, reporting.format_table


class TestFormatTable:
    def test_basic_layout(self):
        out = format_table("Title", ["a", "bee"], [[1, 2.5], ["xx", None]])
        lines = out.splitlines()
        assert lines[0] == "Title"
        assert lines[1] == "=====" * 1
        assert "a" in lines[2] and "bee" in lines[2]
        assert "2.500000" in out       # floats to 6 decimals
        assert "n/a" in out            # None rendering

    def test_column_alignment(self):
        out = format_table("T", ["col", "x"], [["short", 1], ["longer-cell", 2]])
        rows = out.splitlines()[2:]
        # All rendered rows share the same width (fixed-width columns).
        widths = {len(r) for r in rows if r.strip()}
        assert len(widths) == 1

    def test_notes_appended(self):
        out = format_table("T", ["a"], [[1]], notes="hello note")
        assert out.endswith("hello note")

    def test_empty_rows(self):
        out = format_table("T", ["a", "b"], [])
        assert "a" in out and "b" in out

    def test_int_passthrough(self):
        out = format_table("T", ["n"], [[123456]])
        assert "123456" in out


class TestRegistry:
    def test_record_and_dump_sorted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NNQS_BENCH_RESULTS", str(tmp_path))
        reg = ExperimentRegistry()
        reg.record("zzz", "last table", echo=False)
        reg.record("aaa", "first table", echo=False)
        dump = reg.dump()
        assert dump.index("first table") < dump.index("last table")

    def test_mirrors_to_files(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NNQS_BENCH_RESULTS", str(tmp_path))
        reg = ExperimentRegistry()
        reg.record("exp1", "content-123", echo=False)
        assert (tmp_path / "exp1.txt").read_text() == "content-123\n"

    def test_overwrite_same_name(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NNQS_BENCH_RESULTS", str(tmp_path))
        reg = ExperimentRegistry()
        reg.record("exp", "v1", echo=False)
        reg.record("exp", "v2", echo=False)
        assert reg.reports["exp"] == "v2"
        assert (tmp_path / "exp.txt").read_text() == "v2\n"

    def test_unwritable_dir_does_not_raise(self, monkeypatch):
        monkeypatch.setenv("NNQS_BENCH_RESULTS", "/proc/definitely/not/writable")
        reg = ExperimentRegistry()
        reg.record("exp", "content", echo=False)  # swallows the OSError
        assert reg.reports["exp"] == "content"
