"""Tests for the ``repro`` logger hierarchy."""

import io
import logging

import pytest

from repro.obs.log import LEVELS, _CONFIGURED_FLAG, _ROOT, configure, logger


@pytest.fixture(autouse=True)
def _restore_root():
    handlers, level = list(_ROOT.handlers), _ROOT.level
    yield
    _ROOT.handlers[:] = handlers
    _ROOT.setLevel(level)


class TestLogger:
    def test_names_live_under_repro(self):
        assert logger().name == "repro"
        assert logger("parallel.tasks").name == "repro.parallel.tasks"

    def test_silent_by_default(self, capsys):
        # The unconfigured hierarchy has only a NullHandler: emitting must
        # not print and must not trip the "no handlers" last-resort output.
        for handler in list(_ROOT.handlers):
            if getattr(handler, _CONFIGURED_FLAG, False):
                _ROOT.removeHandler(handler)
        logger("test").warning("should vanish")
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""


class TestConfigure:
    def test_writes_to_stream_at_level(self):
        stream = io.StringIO()
        configure("warning", stream=stream)
        log = logger("unit")
        log.info("hidden")
        log.warning("visible")
        text = stream.getvalue()
        assert "hidden" not in text
        assert "WARNING repro.unit: visible" in text

    def test_reconfigure_replaces_handler(self):
        configure("info", stream=io.StringIO())
        stream = io.StringIO()
        configure("debug", stream=stream)
        configured = [h for h in _ROOT.handlers if getattr(h, _CONFIGURED_FLAG, False)]
        assert len(configured) == 1
        logger("unit").debug("once")
        assert stream.getvalue().count("once") == 1
        assert _ROOT.level == logging.DEBUG

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            configure("loud")

    def test_levels_are_valid_logging_names(self):
        for level in LEVELS:
            assert isinstance(getattr(logging, level.upper()), int)


class TestWorkerPropagation:
    """configured_level()/apply_level(): the fork-payload level handoff."""

    @pytest.fixture(autouse=True)
    def _restore_level(self):
        import repro.obs.log as obs_log

        saved = obs_log._CONFIGURED_LEVEL
        yield
        obs_log._CONFIGURED_LEVEL = saved

    def test_unconfigured_reports_none(self):
        import repro.obs.log as obs_log

        obs_log._CONFIGURED_LEVEL = None
        assert obs_log.configured_level() is None

    def test_configure_records_level(self):
        from repro.obs.log import configured_level

        configure("debug", stream=io.StringIO())
        assert configured_level() == "debug"

    def test_apply_none_is_noop(self):
        from repro.obs.log import apply_level

        before = list(_ROOT.handlers)
        apply_level(None)
        assert _ROOT.handlers == before

    def test_apply_matching_level_does_not_stack_handlers(self):
        from repro.obs.log import apply_level

        configure("info", stream=io.StringIO())
        before = [h for h in _ROOT.handlers
                  if getattr(h, _CONFIGURED_FLAG, False)]
        apply_level("info")
        after = [h for h in _ROOT.handlers
                 if getattr(h, _CONFIGURED_FLAG, False)]
        assert after == before and len(after) == 1

    def test_apply_divergent_level_reconfigures(self):
        import repro.obs.log as obs_log

        configure("warning", stream=io.StringIO())
        obs_log.apply_level("debug")
        assert _ROOT.level == logging.DEBUG
        assert obs_log.configured_level() == "debug"

    def test_apply_reconfigures_bare_worker(self):
        # A spawn-style worker: no configured handler at all, but the
        # parent's level arrives through the payload.
        import repro.obs.log as obs_log

        for handler in list(_ROOT.handlers):
            if getattr(handler, _CONFIGURED_FLAG, False):
                _ROOT.removeHandler(handler)
        obs_log._CONFIGURED_LEVEL = None
        obs_log.apply_level("info")
        assert obs_log.configured_level() == "info"
        assert any(getattr(h, _CONFIGURED_FLAG, False) for h in _ROOT.handlers)

    def test_fork_payload_carries_level(self):
        from repro.obs.log import configured_level
        from repro.parallel import pool as parallel_pool

        configure("warning", stream=io.StringIO())
        with parallel_pool.fork_payload(lambda x: x):
            assert parallel_pool._PAYLOAD[1] == configured_level() == "warning"
        assert parallel_pool._PAYLOAD is None
