"""Disk cache, bench reporting, package surface."""
import os

import numpy as np
import pytest

from repro.utils import disk_cache
from repro.utils.cache import cache_dir
from tests.conftest import _load_bench

reporting = _load_bench("reporting")
format_table, registry = reporting.format_table, reporting.registry


class TestDiskCache:
    def test_caches_and_replays(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NNQS_CACHE_DIR", str(tmp_path))
        calls = []

        @disk_cache
        def expensive(x):
            calls.append(x)
            return x * 2

        assert expensive(3) == 6
        assert expensive(3) == 6
        assert calls == [3]  # second call served from disk
        assert expensive(4) == 8
        assert calls == [3, 4]

    def test_disable_via_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NNQS_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("NNQS_NO_CACHE", "1")
        calls = []

        @disk_cache
        def fn(x):
            calls.append(x)
            return x

        fn(1)
        fn(1)
        assert calls == [1, 1]

    def test_cache_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NNQS_CACHE_DIR", str(tmp_path / "sub"))
        assert cache_dir() == tmp_path / "sub"
        assert (tmp_path / "sub").exists()

    def test_numpy_payloads_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NNQS_CACHE_DIR", str(tmp_path))

        @disk_cache
        def arr(n):
            return np.arange(n), {"n": n}

        a1, meta1 = arr(5)
        a2, meta2 = arr(5)
        np.testing.assert_array_equal(a1, a2)
        assert meta1 == meta2


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table("T", ["a", "bbbb"], [[1, 2.5], [None, "x"]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "n/a" in text
        assert "2.500000" in text

    def test_registry_records_and_writes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NNQS_BENCH_RESULTS", str(tmp_path))
        registry.record("unit_test_entry", "hello table", echo=False)
        assert (tmp_path / "unit_test_entry.txt").read_text().strip() == "hello table"
        assert "hello table" in registry.dump()
        registry.reports.pop("unit_test_entry", None)


class TestPackageSurface:
    def test_version(self):
        import repro

        assert repro.__version__

    def test_public_api_importable(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_subpackage_alls_resolve(self):
        import repro.chem as chem
        import repro.core as core
        import repro.hamiltonian as ham
        import repro.nn as nn
        import repro.parallel as par

        for mod in (chem, core, ham, nn, par):
            for name in mod.__all__:
                assert getattr(mod, name, None) is not None, (mod.__name__, name)
