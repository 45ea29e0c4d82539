"""Session bookkeeping tests."""

import threading

import pytest

from repro.service.session import DEFAULT_TENANT, SessionManager


class TestSessionManager:
    def test_open_assigns_unique_ids(self):
        manager = SessionManager()
        first = manager.open(tenant="a")
        second = manager.open(tenant="a")
        assert first.session_id != second.session_id
        assert manager.live() == 2

    def test_close_is_idempotent(self):
        manager = SessionManager()
        session = manager.open()
        manager.close(session.session_id)
        manager.close(session.session_id)
        assert manager.live() == 0 and manager.get(session.session_id) is None

    def test_default_tenant(self):
        session = SessionManager().open()
        assert session.tenant == DEFAULT_TENANT

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            SessionManager().open(default_mode="psychic")

    def test_by_tenant_counts(self):
        manager = SessionManager()
        manager.open(tenant="a")
        manager.open(tenant="a")
        manager.open(tenant="b")
        assert manager.by_tenant() == {"a": 2, "b": 1}

    def test_concurrent_open_close(self):
        manager = SessionManager()

        def churn():
            for _ in range(100):
                session = manager.open(tenant="t")
                manager.close(session.session_id)

        threads = [threading.Thread(target=churn) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert manager.live() == 0 and manager.by_tenant() == {}


class TestSession:
    def test_defaults_resolution(self):
        session = SessionManager().open(
            tenant="a", default_mode="exact", default_deadline_ms=500
        )
        assert session.resolve_mode(None) == "exact"
        assert session.resolve_mode("quickr") == "quickr"
        assert session.resolve_deadline_ms(None) == 500
        assert session.resolve_deadline_ms(100) == 100
