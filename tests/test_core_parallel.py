"""Tests for the worker-count spec grammar of the sharded second stage."""

from __future__ import annotations

import os

import pytest

from repro.core import SHARD_WORKERS_ENV, resolve_workers


class TestResolveWorkers:
    def test_auto_resolves_to_cpu_count(self):
        cpus = os.cpu_count() or 1
        assert resolve_workers("auto") == (cpus if cpus >= 2 else None)

    def test_serial_specs_normalize_to_none(self):
        """0 and 1 historically resolved to different values meaning the
        same thing (serial); both now canonicalize to None."""
        assert resolve_workers(None, env=None) is None
        assert resolve_workers(0) is None
        assert resolve_workers(1) is None
        assert resolve_workers("0") is None
        assert resolve_workers("1") is None

    def test_passthrough(self):
        assert resolve_workers(8) == 8
        assert resolve_workers("8") == 8

    def test_rejects_negative(self):
        """-1 used to slip through as implicit serial; now explicit."""
        for bad in (-1, -8):
            with pytest.raises(ValueError, match=">= 0"):
                resolve_workers(bad)

    def test_rejects_unknown_strings(self):
        for bad in ("max", "-2", "3.5", "two"):
            with pytest.raises(ValueError, match="auto"):
                resolve_workers(bad)

    def test_rejects_bool_and_other_types(self):
        with pytest.raises(ValueError):
            resolve_workers(True)
        with pytest.raises(ValueError):
            resolve_workers(2.0)

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv(SHARD_WORKERS_ENV, "4")
        assert resolve_workers(None, env=SHARD_WORKERS_ENV) == 4
        # Explicit specs always win over the environment.
        assert resolve_workers(1) is None
        assert resolve_workers(3) == 3

    def test_env_auto_and_serial(self, monkeypatch):
        monkeypatch.setenv(SHARD_WORKERS_ENV, "auto")
        cpus = os.cpu_count() or 1
        assert resolve_workers(None, env=SHARD_WORKERS_ENV) == (
            cpus if cpus >= 2 else None
        )
        monkeypatch.setenv(SHARD_WORKERS_ENV, "1")
        assert resolve_workers(None, env=SHARD_WORKERS_ENV) is None
        monkeypatch.setenv(SHARD_WORKERS_ENV, "")
        assert resolve_workers(None, env=SHARD_WORKERS_ENV) is None

    def test_env_bad_value_names_variable(self, monkeypatch):
        monkeypatch.setenv(SHARD_WORKERS_ENV, "lots")
        with pytest.raises(ValueError, match=SHARD_WORKERS_ENV):
            resolve_workers(None, env=SHARD_WORKERS_ENV)

    def test_env_opt_out(self, monkeypatch):
        monkeypatch.setenv(SHARD_WORKERS_ENV, "6")
        assert resolve_workers(None, env=None) is None
