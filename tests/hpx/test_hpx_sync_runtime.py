"""Tests for repro.hpx.runtime."""

import pytest

from repro.hpx.runtime import HPXRuntime, async_, get_runtime, set_runtime


class TestHPXRuntime:
    def test_async_free_function_uses_current(self, hpx_rt):
        assert async_(lambda: 42).get() == 42

    def test_get_runtime_creates_default(self):
        set_runtime(None)
        rt = get_runtime()
        assert isinstance(rt, HPXRuntime)
        assert get_runtime() is rt

    def test_run_drains(self, hpx_rt):
        log = []

        def main():
            hpx_rt.executor.post(lambda: log.append("straggler"))
            return "done"

        assert hpx_rt.run(main) == "done"
        assert log == ["straggler"]

    def test_stats_accessible(self, hpx_rt):
        async_(lambda: None).get()
        assert hpx_rt.stats.tasks_executed >= 1

    def test_invalid_thread_count(self):
        with pytest.raises(Exception):
            HPXRuntime(0)
