"""Replication & failover: WAL shipping, staleness, fenced promotion.

Three layers, mirroring the production split:

* the store's replication API (epochs, fencing, the shipped tail,
  idempotent apply, snapshot bootstrap) — pure filesystem, no sockets;
* the service handlers (`handle_replica_pull` / `promote` / `fence`,
  the role gate on mutations, the ``min_lsn``/``as_of_lsn`` staleness
  contract) — plain functions returning ``(status, body, headers)``;
* end to end — a real primary server on a socket, a real
  :class:`ReplicaClient` pulling over HTTP, a promotion, and the
  split-brain guard fencing the ex-primary.
"""

import http.server
import threading
import time

import pytest

from repro.observability.live import LivePlane, live
from repro.serve import replica as replica_module, store as store_module
from repro.serve import (
    CQAService,
    ReplicaClient,
    ReplicaConfig,
    ServerConfig,
)
from repro.serve.store import (
    FencedError,
    StoreCorruptionError,
    StorePolicy,
    TenantStore,
)

from .test_serve import EMPLOYEE_SPEC, _ServerHarness

#: A consistent spec (no violations) so mutate-path tests stay cheap.
AUDIT_SPEC = {
    "relations": {
        "Audit": {
            "columns": ["K", "V"],
            "key": ["K"],
            "rows": [["a", "1"]],
        }
    },
    "constraints": {"fd": ["Audit: K -> V"]},
}


def _store(tmp_path, name="s", **policy):
    path = tmp_path / name
    path.mkdir(exist_ok=True)
    return TenantStore(str(path), StorePolicy(**policy))


def _recovered_service(tmp_path, name="p", **policy):
    svc = CQAService(store=_store(tmp_path, name, **policy))
    svc.recover()
    return svc


def _follower_service(tmp_path, name="f", upstream="http://127.0.0.1:1"):
    """A follower with its role set but no pull thread running."""
    svc = _recovered_service(tmp_path, name)
    svc._role = "follower"
    svc._primary_url = upstream
    return svc


# ----------------------------------------------------------------------
# Store: epochs, fencing, the shipped tail
# ----------------------------------------------------------------------


class TestStoreEpochs:
    def test_records_carry_the_epoch_and_recovery_restores_it(
        self, tmp_path
    ):
        st = _store(tmp_path)
        st.recover()
        assert st.epoch == 0
        st.append_put_db("d", AUDIT_SPEC)
        assert st.bump_epoch() == 1
        st.append_mutate("d", [["Audit", "b", "2"]], [])
        records = st.records_since(0)
        assert [r["epoch"] for r in records] == [0, 1, 1]
        st.close()
        st2 = TenantStore(str(tmp_path / "s"), StorePolicy())
        recovered = st2.recover()
        assert recovered.epoch == 1 and st2.epoch == 1
        # The replayed tail is shippable after a restart too.
        assert [r["lsn"] for r in st2.records_since(0)] == [1, 2, 3]
        st2.close()

    def test_snapshot_preserves_the_epoch(self, tmp_path):
        st = _store(tmp_path, compact_every=2)
        st.recover()
        st.bump_epoch()
        st.append_put_db("d", AUDIT_SPEC)
        st.append_mutate("d", [["Audit", "b", "2"]], [])  # compacts
        st.close()
        st2 = TenantStore(str(tmp_path / "s"), StorePolicy())
        assert st2.recover().epoch == 1
        st2.close()

    def test_fence_rejects_appends_durably(self, tmp_path):
        st = _store(tmp_path)
        st.recover()
        st.append_put_db("d", AUDIT_SPEC)
        assert st.fence(3) is True
        assert st.fenced == 3
        with pytest.raises(FencedError):
            st.append_mutate("d", [["Audit", "b", "2"]], [])
        # Fencing below or at our own epoch is refused: the node with
        # the highest durable epoch must never fence itself.
        st2 = _store(tmp_path, "other")
        st2.recover()
        st2.bump_epoch()
        st2.bump_epoch()
        assert st2.fence(1) is False and st2.fenced is None
        st.close()
        st2.close()

    def test_an_unreadable_fence_marker_recovers_under_a_live_plane(
        self, tmp_path
    ):
        """A garbled fence marker is ignored with or without telemetry;
        under a live plane it is also a ``store.fence_marker_unreadable``
        event."""
        for name, plane in (("bare", None), ("live", LivePlane())):
            st = _store(tmp_path, name)
            st.recover()
            st.append_put_db("d", AUDIT_SPEC)
            st.close()
            with open(st.fence_path, "w", encoding="utf-8") as handle:
                handle.write("{not json")
            st2 = TenantStore(str(tmp_path / name), StorePolicy())
            if plane is None:
                st2.recover()
            else:
                with live(plane):
                    st2.recover()
                (record,) = plane.events.records(
                    kind="store.fence_marker_unreadable"
                )
                assert "JSONDecodeError" in record["error"]
            assert st2.fenced is None
            st2.close()

    def test_bump_epoch_refused_while_fenced(self, tmp_path):
        st = _store(tmp_path)
        st.recover()
        st.fence(5)
        with pytest.raises(FencedError):
            st.bump_epoch()
        st.close()

    def test_fence_survives_restart(self, tmp_path):
        """The latch is durable: a kill -9'd fenced ex-primary must
        not reboot back into acking at its old epoch."""
        st = _store(tmp_path)
        st.recover()
        st.append_put_db("d", AUDIT_SPEC)
        assert st.fence(3) is True
        st.close()
        st2 = TenantStore(str(tmp_path / "s"), StorePolicy())
        recovered = st2.recover()
        assert recovered.fenced_by == 3 and st2.fenced == 3
        with pytest.raises(FencedError):
            st2.append_mutate("d", [["Audit", "b", "2"]], [])
        with pytest.raises(FencedError):
            st2.bump_epoch()
        st2.close()

    def test_fence_clears_on_adopting_the_superseding_lineage(
        self, tmp_path
    ):
        """Rejoin path: once the directory durably holds records at
        the fencing epoch, the latch is spent — in memory and across
        a restart."""
        st = _store(tmp_path)
        st.recover()
        st.append_put_db("d", AUDIT_SPEC)  # lsn 1, epoch 0
        st.fence(2)
        with pytest.raises(FencedError):
            st.install_state({}, 9, epoch=1)  # still a stale lineage
        assert st.apply_replicated(
            {"op": "epoch", "lsn": 2, "epoch": 2}
        )
        assert st.fenced is None
        st.append_mutate("d", [["Audit", "b", "2"]], [])
        st.close()
        st2 = TenantStore(str(tmp_path / "s"), StorePolicy())
        recovered = st2.recover()
        assert recovered.fenced_by is None and st2.fenced is None
        assert st2.epoch == 2
        st2.close()

    def test_records_since_boundaries(self, tmp_path):
        st = _store(tmp_path)
        st.recover()
        st.append_put_db("d", AUDIT_SPEC)
        st.append_mutate("d", [["Audit", "b", "2"]], [])
        assert st.records_since(2) == []
        assert [r["lsn"] for r in st.records_since(1)] == [2]
        # The tail is a copy, not a window into store internals.
        st.records_since(0)[0]["op"] = "clobbered"
        assert st.records_since(0)[0]["op"] == "put_db"
        st.close()

    def test_records_since_returns_none_past_compaction(self, tmp_path):
        st = _store(tmp_path, compact_every=2)
        st.recover()
        st.append_put_db("d", AUDIT_SPEC)
        st.append_mutate("d", [["Audit", "b", "2"]], [])  # compacts
        # The pre-compaction range is gone: bootstrap required.
        assert st.records_since(0) is None
        assert st.records_since(st.last_lsn) == []
        st.close()

    def test_apply_replicated_idempotent_gapless_and_fenced(
        self, tmp_path
    ):
        primary = _store(tmp_path, "p")
        primary.recover()
        primary.append_put_db("d", AUDIT_SPEC)
        primary.append_mutate("d", [["Audit", "b", "2"]], [])
        shipped = primary.records_since(0)

        follower = _store(tmp_path, "f")
        follower.recover()
        assert follower.apply_replicated(shipped[0]) is True
        # Duplicate delivery (a retried pull) is skipped, not an error.
        assert follower.apply_replicated(shipped[0]) is False
        # A gap is corruption, never silently reordered.
        with pytest.raises(StoreCorruptionError):
            follower.apply_replicated(dict(shipped[1], lsn=99))
        assert follower.apply_replicated(shipped[1]) is True
        assert follower.last_lsn == primary.last_lsn
        assert (
            follower.current_state_digest()
            == primary.current_state_digest()
        )
        # A lower-epoch record after the follower advanced is a stale
        # writer: refused.
        follower.fence(7)
        with pytest.raises(FencedError):
            follower.apply_replicated(
                dict(shipped[1], lsn=3, epoch=0)
            )
        primary.close()
        follower.close()

    def test_applied_records_are_durable_on_the_follower(self, tmp_path):
        primary = _store(tmp_path, "p")
        primary.recover()
        primary.append_put_db("d", AUDIT_SPEC)
        shipped = primary.records_since(0)
        follower = _store(tmp_path, "f")
        follower.recover()
        for record in shipped:
            follower.apply_replicated(record)
        follower.close()
        again = TenantStore(str(tmp_path / "f"), StorePolicy())
        recovered = again.recover()
        assert recovered.last_lsn == primary.last_lsn
        assert recovered.state_digest == primary.current_state_digest()
        primary.close()
        again.close()

    def test_state_transfer_bootstraps_a_blank_follower(self, tmp_path):
        primary = _store(tmp_path, "p")
        primary.recover()
        primary.bump_epoch()
        primary.append_put_db("d", AUDIT_SPEC)
        primary.append_mutate("d", [["Audit", "b", "2"]], [])
        transfer = primary.state_transfer()
        assert transfer["lsn"] == primary.last_lsn
        assert transfer["epoch"] == 1

        follower = _store(tmp_path, "f")
        follower.recover()
        follower.install_state(
            transfer["databases"], transfer["lsn"], transfer["epoch"]
        )
        assert follower.last_lsn == primary.last_lsn
        assert follower.epoch == 1
        assert (
            follower.current_state_digest()
            == primary.current_state_digest()
        )
        # The bootstrap is itself durable: a crash right after it
        # recovers to the installed state, not to blank.
        follower.close()
        again = TenantStore(str(tmp_path / "f"), StorePolicy())
        recovered = again.recover()
        assert recovered.last_lsn == primary.last_lsn
        assert recovered.epoch == 1
        primary.close()
        again.close()

    def test_wait_for_lsn_blocks_until_the_append(self, tmp_path):
        st = _store(tmp_path)
        st.recover()
        assert st.wait_for_lsn(1, timeout_s=0.05) is False
        done = []

        def appender():
            time.sleep(0.05)
            st.append_put_db("d", AUDIT_SPEC)
            done.append(True)

        thread = threading.Thread(target=appender)
        thread.start()
        assert st.wait_for_lsn(1, timeout_s=5.0) is True
        thread.join()
        st.close()


# ----------------------------------------------------------------------
# Service handlers: roles, the pull plane, staleness
# ----------------------------------------------------------------------


class TestRoleGate:
    def test_follower_rejects_mutations_with_the_primary_url(
        self, tmp_path
    ):
        primary = _recovered_service(tmp_path, "p")
        primary.register_db("d", AUDIT_SPEC)
        follower = _follower_service(
            tmp_path, upstream="http://primary:1234"
        )
        status, body, _ = follower.register_db("d", AUDIT_SPEC)
        assert status == 403
        assert body["error"] == "not-primary"
        assert body["primary_url"] == "http://primary:1234"
        status, body, _ = follower.handle_mutate(
            "d", {"insert": [["Audit", "b", "2"]]}
        )
        assert status == 403 and body["error"] == "not-primary"
        primary.close()
        follower.close()

    def test_reads_are_served_on_a_fresh_follower(self, tmp_path):
        primary = _recovered_service(tmp_path, "p")
        primary.register_db("emp", EMPLOYEE_SPEC)
        follower = _follower_service(tmp_path)
        for record in primary.store.records_since(0):
            follower.apply_replicated(record)
        # A follower serves only while its feed provably fresh: give
        # it a client whose last pull just happened.
        client = ReplicaClient(
            follower, ReplicaConfig(upstream="http://primary:1")
        )
        client.last_pull_at = time.monotonic()
        follower._replica = client
        status, body, headers = follower.handle_cqa(
            {"db": "emp", "query": "Q(X) :- Employee(X, Y)"}
        )
        assert status == 200
        assert body["answers"] == [["page"], ["smith"], ["stowe"]]
        # Follower 200s carry the staleness stamp alongside the LSN.
        assert "stale_s" in body and "X-Stale-S" in headers
        follower._replica = None
        primary.close()
        follower.close()


class TestPullPlane:
    def test_pull_ships_records_and_tracks_the_follower(self, tmp_path):
        svc = _recovered_service(tmp_path, "p")
        svc.register_db("d", AUDIT_SPEC)
        svc.handle_mutate("d", {"insert": [["Audit", "b", "2"]]})
        status, body, _ = svc.handle_replica_pull(
            {"from_lsn": 0, "epoch": 0, "follower": "f1"}
        )
        assert status == 200
        assert [r["lsn"] for r in body["records"]] == [1, 2]
        assert body["last_lsn"] == 2 and body["epoch"] == 0
        followers = svc.replication()["followers"]
        assert followers["f1"]["acked_lsn"] == 0
        assert followers["f1"]["lag_records"] == 2
        # The next pull acks the shipped prefix: lag drops to zero.
        status, body, _ = svc.handle_replica_pull(
            {"from_lsn": 2, "epoch": 0, "follower": "f1"}
        )
        assert status == 200 and body["records"] == []
        assert svc.replication()["followers"]["f1"]["lag_records"] == 0
        svc.close()

    def test_pull_past_compaction_answers_a_bootstrap(self, tmp_path):
        svc = CQAService(
            store=_store(tmp_path, "p", compact_every=2)
        )
        svc.recover()
        svc.register_db("d", AUDIT_SPEC)
        svc.handle_mutate("d", {"insert": [["Audit", "b", "2"]]})
        status, body, _ = svc.handle_replica_pull(
            {"from_lsn": 0, "epoch": 0, "follower": "f1"}
        )
        assert status == 200 and "bootstrap" in body
        assert body["bootstrap"]["lsn"] == svc.store.last_lsn
        assert "d" in body["bootstrap"]["databases"]
        svc.close()

    def test_pull_validation(self, tmp_path):
        svc = _recovered_service(tmp_path, "p")
        assert svc.handle_replica_pull({"from_lsn": -1})[0] == 400
        assert svc.handle_replica_pull({"from_lsn": "x"})[0] == 400
        assert (
            svc.handle_replica_pull(
                {"from_lsn": 0, "wait_s": "soon"}
            )[0]
            == 400
        )
        no_store = CQAService()
        assert no_store.handle_replica_pull({"from_lsn": 0})[0] == 400
        svc.close()

    def test_higher_epoch_pull_self_fences_the_primary(self, tmp_path):
        svc = _recovered_service(tmp_path, "p")
        svc.register_db("d", AUDIT_SPEC)
        status, body, _ = svc.handle_replica_pull(
            {"from_lsn": 0, "epoch": 5, "follower": "newer"}
        )
        assert status == 409 and body["error"] == "fenced"
        assert svc.role == "fenced"
        # The demotion is effective: writes refuse from here on.
        status, body, _ = svc.handle_mutate(
            "d", {"insert": [["Audit", "b", "2"]]}
        )
        assert status == 403 and body["error"] == "not-primary"
        svc.close()

    def test_pull_against_a_follower_redirects(self, tmp_path):
        follower = _follower_service(
            tmp_path, upstream="http://primary:1"
        )
        status, body, _ = follower.handle_replica_pull(
            {"from_lsn": 0, "epoch": 0}
        )
        assert status == 403 and body["error"] == "not-primary"
        assert body["primary_url"] == "http://primary:1"
        follower.close()

    def test_long_poll_returns_early_on_an_append(self, tmp_path):
        svc = _recovered_service(tmp_path, "p")
        svc.register_db("d", AUDIT_SPEC)
        result = {}

        def puller():
            result["handled"] = svc.handle_replica_pull(
                {"from_lsn": 1, "epoch": 0, "wait_s": 5.0}
            )

        thread = threading.Thread(target=puller)
        started = time.monotonic()
        thread.start()
        time.sleep(0.05)
        svc.handle_mutate("d", {"insert": [["Audit", "b", "2"]]})
        thread.join(timeout=10.0)
        assert time.monotonic() - started < 5.0
        status, body, _ = result["handled"]
        assert status == 200
        assert [r["lsn"] for r in body["records"]] == [2]
        svc.close()


class TestPromotionAndFencing:
    def test_promote_bumps_the_epoch_and_takes_writes(self, tmp_path):
        primary = _recovered_service(tmp_path, "p")
        primary.register_db("d", AUDIT_SPEC)
        follower = _follower_service(tmp_path)
        for record in primary.store.records_since(0):
            follower.apply_replicated(record)
        status, body, _ = follower.handle_replica_promote()
        assert status == 200
        assert body["role"] == "primary" and body["epoch"] == 1
        assert body["promotion_ms"] >= 0.0
        assert follower.role == "primary" and follower.phase == "ready"
        # Writes flow, stamped with the new epoch.
        status, body, _ = follower.handle_mutate(
            "d", {"insert": [["Audit", "b", "2"]]}
        )
        assert status == 200
        assert follower.store.records_since(1)[-1]["epoch"] == 1
        # Promotion is idempotent.
        status, body, _ = follower.handle_replica_promote()
        assert status == 200 and body.get("already_primary")
        primary.close()
        follower.close()

    def test_fence_demotes_and_refuses_stale_epochs(self, tmp_path):
        svc = _recovered_service(tmp_path, "p")
        svc.register_db("d", AUDIT_SPEC)
        # Fencing with an epoch we already hold is refused: you cannot
        # fence the highest-epoch node.
        svc.store.bump_epoch()
        status, body, _ = svc.handle_replica_fence({"epoch": 1})
        assert status == 409 and body["error"] == "stale-epoch"
        assert svc.role == "primary"
        status, body, _ = svc.handle_replica_fence({"epoch": 2})
        assert status == 200 and body["role"] == "fenced"
        assert svc.role == "fenced"
        status, body, _ = svc.handle_mutate(
            "d", {"insert": [["Audit", "b", "2"]]}
        )
        assert status == 403
        # A fenced node refuses promotion: its claim would split-brain.
        status, body, _ = svc.handle_replica_promote()
        assert status == 409 and body["error"] == "fenced"
        assert svc.handle_replica_fence({"epoch": 0})[0] == 400
        svc.close()

    def test_promoted_epoch_fences_the_restarted_ex_primary(
        self, tmp_path
    ):
        """The split-brain core: after promotion, the ex-primary's
        store refuses the new-epoch stream's past — and a pull carrying
        the new epoch demotes it on contact."""
        old = _recovered_service(tmp_path, "old")
        old.register_db("d", AUDIT_SPEC)
        new = _follower_service(tmp_path, "new")
        for record in old.store.records_since(0):
            new.apply_replicated(record)
        new.handle_replica_promote()
        status, _, _ = old.handle_replica_pull(
            {"from_lsn": new.store.last_lsn, "epoch": new.store.epoch}
        )
        assert status == 409
        assert old.role == "fenced"
        with pytest.raises(FencedError):
            old.store.append_mutate("d", [["Audit", "z", "9"]], [])
        old.close()
        new.close()

    def test_fenced_ex_primary_recovers_fenced_after_restart(
        self, tmp_path
    ):
        """The durable latch at the service layer: restart over a
        fenced directory yields role 'fenced' — mutations 403 and
        reads shed — never a primary acking at its old epoch."""
        svc = _recovered_service(tmp_path, "p")
        svc.register_db("d", AUDIT_SPEC)
        status, _, _ = svc.handle_replica_fence({"epoch": 2})
        assert status == 200
        svc.close()
        svc2 = CQAService(store=_store(tmp_path, "p"))
        svc2.recover()
        assert svc2.role == "fenced"
        status, body, _ = svc2.handle_mutate(
            "d", {"insert": [["Audit", "b", "2"]]}
        )
        assert status == 403 and body["error"] == "not-primary"
        status, body, _ = svc2.handle_cqa(
            {"db": "d", "query": "Q(K) :- Audit(K, V)"}
        )
        assert status == 503 and body["error"] == "stale-read"
        assert body["reason"] == "fenced"
        # With no pull feed, staleness is unknowable — never 0.0.
        assert "stale_s" not in body
        svc2.close()


class TestLowerEpochRejoin:
    """A fenced ex-primary rejoining the promoted lineage as a follower
    holds writes that lineage never had: its pull gets a bootstrap."""

    @staticmethod
    def _diverge(tmp_path, lost, **policy):
        """A acks LSN 1-3, which B replicates, then LSN 4.. (*lost*
        writes) that B never sees; B is promoted (epoch record at LSN
        4), acks b0 at LSN 5, and A is fenced.  Returns B and b0's LSN.
        """
        a = _recovered_service(tmp_path, "a", **policy)
        b = _follower_service(tmp_path, "b")
        a.register_db("d", AUDIT_SPEC)
        inserts = [{"insert": [["Audit", f"a{i}", "v"]]} for i in range(9)]
        for payload in inserts[:2]:
            a.handle_mutate("d", payload)
        for record in a.store.records_since(0):
            assert b.apply_replicated(record)
        for payload in inserts[2:2 + lost]:
            a.handle_mutate("d", payload)
        assert b.handle_replica_promote()[0] == 200
        status, body, _ = b.handle_mutate(
            "d", {"insert": [["Audit", "b0", "v"]]}
        )
        assert status == 200 and body["lsn"] == 5
        assert a.handle_replica_fence({"epoch": b.store.epoch})[0] == 200
        a.close()
        return b, body["lsn"]

    @staticmethod
    def _rejoin(tmp_path, b, monkeypatch, **policy):
        """Restart A from its directory as B's follower (not pulling)."""
        a = _recovered_service(tmp_path, "a", **policy)
        assert a.role == "fenced"
        a._role = "follower"
        monkeypatch.setattr(
            replica_module,
            "json_request",
            lambda *args: b.handle_replica_pull(args[4])[:2],
        )
        a._replica = ReplicaClient(a, ReplicaConfig(upstream="b:1"))
        return a

    def test_lower_epoch_pull_bootstraps_onto_the_new_lineage(
        self, tmp_path, monkeypatch
    ):
        b, acked = self._diverge(tmp_path, lost=2)
        a = self._rejoin(tmp_path, b, monkeypatch)
        a._replica.pull_once(wait_s=0.0)
        assert a._replica.bootstraps == 1
        assert a.store.fenced is None and a.store.epoch == 1
        status, body, _ = a.handle_cqa(
            {"db": "d", "query": "Q(K) :- Audit(K, V)", "min_lsn": acked}
        )
        assert status == 200 and body["as_of_lsn"] == acked
        assert body["answers"] == [["a"], ["a0"], ["a1"], ["b0"]]
        # Caught up on the same epoch, the next pull ships the tail.
        assert a._replica.pull_once(wait_s=0.0) == 0
        assert a._replica.bootstraps == 1
        a.close()
        b.close()

    def test_bootstrap_replaces_history_past_its_lsn_durably(
        self, tmp_path, monkeypatch
    ):
        """A compacted at LSN 4 and 8 and logged 9; B's state is at LSN
        5.  After the bootstrap and a restart A holds B's state: no
        snapshot or WAL record of its own history survives past 5."""
        b, _ = self._diverge(tmp_path, lost=6, compact_every=4)
        a = self._rejoin(tmp_path, b, monkeypatch, compact_every=4)
        a._replica.pull_once(wait_s=0.0)
        a.close()
        again = _recovered_service(tmp_path, "a", compact_every=4)
        assert again.store.last_lsn == 5 and again.store.epoch == 1
        assert (
            again.store.current_state_digest()
            == b.store.current_state_digest()
        )
        again.close()
        b.close()

    def test_a_crash_inside_the_bootstrap_never_mixes_lineages(
        self, tmp_path, monkeypatch
    ):
        """A logged LSN 6-7 past B's LSN 5 and holds no snapshot: a kill
        right after the bootstrap's snapshot is written must not replay
        A's 6-7 on top of B's state."""
        b, _ = self._diverge(tmp_path, lost=4)
        write_snapshot = store_module.write_snapshot

        def killed(*args, **kwargs):
            write_snapshot(*args, **kwargs)
            raise KeyboardInterrupt("killed after the snapshot write")

        monkeypatch.setattr(store_module, "write_snapshot", killed)
        a = self._rejoin(tmp_path, b, monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            a._replica.pull_once(wait_s=0.0)
        a.close()
        again = _recovered_service(tmp_path, "a")
        assert again.store.last_lsn == 5
        assert (
            again.store.current_state_digest()
            == b.store.current_state_digest()
        )
        again.close()
        b.close()


class TestStalenessContract:
    def test_reads_stamp_as_of_lsn(self, tmp_path):
        svc = _recovered_service(tmp_path, "p")
        svc.register_db("emp", EMPLOYEE_SPEC)
        status, body, headers = svc.handle_cqa(
            {"db": "emp", "query": "Q(X) :- Employee(X, Y)"}
        )
        assert status == 200
        assert body["as_of_lsn"] == 1
        assert headers["X-As-Of-LSN"] == "1"
        svc.close()

    def test_satisfied_min_lsn_is_served(self, tmp_path):
        svc = _recovered_service(tmp_path, "p")
        svc.register_db("emp", EMPLOYEE_SPEC)
        status, body, _ = svc.handle_cqa(
            {
                "db": "emp",
                "query": "Q(X) :- Employee(X, Y)",
                "min_lsn": 1,
            }
        )
        assert status == 200 and body["as_of_lsn"] >= 1
        svc.close()

    def test_unsatisfiable_min_lsn_sheds_with_the_primary_url(
        self, tmp_path
    ):
        follower = _follower_service(
            tmp_path, upstream="http://primary:1"
        )
        # A fresh feed so the follower is not 'replication-stalled'.
        client = ReplicaClient(
            follower, ReplicaConfig(upstream="http://primary:1")
        )
        client.last_pull_at = time.monotonic()
        follower._replica = client
        status, body, headers = follower.handle_cqa(
            {
                "db": "emp",
                "query": "Q(X) :- Employee(X, Y)",
                "min_lsn": 50,
                "timeout_s": 0.05,
            }
        )
        assert status == 503
        assert body["error"] == "stale-read"
        assert body["reason"] == "behind-min-lsn"
        assert body["min_lsn"] == 50 and body["as_of_lsn"] == 0
        assert body["primary_url"] == "http://primary:1"
        assert "Retry-After" in headers
        follower._replica = None
        follower.close()

    def test_silent_feed_sheds_replication_stalled(self, tmp_path):
        follower = _follower_service(tmp_path)
        primary = _recovered_service(tmp_path, "p")
        primary.register_db("emp", EMPLOYEE_SPEC)
        for record in primary.store.records_since(0):
            follower.apply_replicated(record)
        # No replica client has ever pulled: freshness is unprovable,
        # so even a lag-free read must shed rather than guess — the
        # *lag-bounded* replica contract applies to every read.
        client = ReplicaClient(
            follower, ReplicaConfig(upstream="http://primary:1")
        )
        follower._replica = client
        status, body, _ = follower.handle_cqa(
            {
                "db": "emp",
                "query": "Q(X) :- Employee(X, Y)",
                "min_lsn": 1,
            }
        )
        assert status == 503
        assert body["reason"] == "replication-stalled"
        status, body, _ = follower.handle_cqa(
            {"db": "emp", "query": "Q(X) :- Employee(X, Y)"}
        )
        assert status == 503
        assert body["reason"] == "replication-stalled"
        follower._replica = None
        follower.close()
        primary.close()

    def test_a_pull_whose_apply_fails_proves_no_freshness(
        self, tmp_path, monkeypatch
    ):
        """An upstream that keeps answering with a record past a gap:
        every pull's apply raises, so the feed proves nothing, and
        once ``max_stale_s`` has passed the reads shed
        ``replication-stalled`` instead of serving ``stale_s: 0.0``."""
        primary = _recovered_service(tmp_path, "p")
        primary.register_db("emp", EMPLOYEE_SPEC)
        bodies = [{"records": primary.store.records_since(0),
                   "last_lsn": 1, "epoch": 0}]
        gapped = {"op": "mutate", "db": "emp", "insert": [],
                  "delete": [], "lsn": 99, "epoch": 0}
        monkeypatch.setattr(
            replica_module, "json_request",
            lambda *args: (200, bodies.pop(0) if bodies else {
                "records": [dict(gapped)], "last_lsn": 99, "epoch": 0,
            }),
        )
        now = [0.0]
        follower = _follower_service(tmp_path)
        follower._max_stale_s = 1.0
        client = ReplicaClient(
            follower, ReplicaConfig(upstream="http://primary:1"),
            clock=lambda: now[0],
        )
        follower._replica = client
        read = {"db": "emp", "query": "Q(X) :- Employee(X, Y)"}
        assert client.pull_once() == 1
        status, body, _ = follower.handle_cqa(read)
        assert status == 200 and body["stale_s"] == 0.0
        for _ in range(3):
            now[0] += 0.6
            with pytest.raises(StoreCorruptionError, match="gap"):
                client.pull_once()
        status, body, _ = follower.handle_cqa(read)
        assert status == 503
        assert body["reason"] == "replication-stalled"
        assert body["as_of_lsn"] == 1
        follower._replica = None
        follower.close()
        primary.close()

    def test_fenced_node_sheds_reads(self, tmp_path):
        """Fencing stops the pull client, so freshness is unknowable:
        every read sheds (typed 'fenced') instead of aging forever
        behind a fabricated ``stale_s: 0.0``."""
        svc = _recovered_service(tmp_path, "p")
        svc.register_db("emp", EMPLOYEE_SPEC)
        assert svc.handle_replica_fence({"epoch": 7})[0] == 200
        status, body, _ = svc.handle_cqa(
            {"db": "emp", "query": "Q(X) :- Employee(X, Y)"}
        )
        assert status == 503
        assert body["error"] == "stale-read"
        assert body["reason"] == "fenced"
        assert "stale_s" not in body
        svc.close()

    def test_min_lsn_validation(self, tmp_path):
        svc = _recovered_service(tmp_path, "p")
        svc.register_db("emp", EMPLOYEE_SPEC)
        status, body, _ = svc.handle_cqa(
            {
                "db": "emp",
                "query": "Q(X) :- Employee(X, Y)",
                "min_lsn": -2,
            }
        )
        assert status == 400
        svc.close()

    def test_json_booleans_are_not_lsns_or_epochs(self, tmp_path):
        """``true`` and ``false`` are 400s in every integer field, where
        they used to be read as 1 and 0."""
        svc = _recovered_service(tmp_path, "p")
        svc.register_db("emp", EMPLOYEE_SPEC)
        for flag in (True, False):
            status, body, _ = svc.handle_cqa({
                "db": "emp",
                "query": "Q(X) :- Employee(X, Y)",
                "min_lsn": flag,
            })
            assert status == 400
            assert body["error"] == "'min_lsn' must be a non-negative integer"
            status, body, _ = svc.handle_replica_pull({"from_lsn": flag})
            assert status == 400
            assert body["error"] == "'from_lsn' must be a non-negative integer"
            status, body, _ = svc.handle_replica_pull(
                {"from_lsn": 0, "epoch": flag}
            )
            assert status == 400
            assert body["error"] == "'epoch' must be a non-negative integer"
            status, body, _ = svc.handle_replica_fence({"epoch": flag})
            assert status == 400
            assert body["error"] == "'epoch' must be a positive integer"
        # None of them fenced the store or moved its epoch.
        assert svc.store.fenced is None and svc.store.epoch == 0
        assert svc.handle_replica_pull({"from_lsn": 0})[0] == 200
        svc.close()


class TestDrain:
    def test_draining_healthz_503s_but_requests_still_serve(
        self, tmp_path
    ):
        svc = _recovered_service(tmp_path, "p")
        svc.register_db("emp", EMPLOYEE_SPEC)
        svc.begin_drain()
        svc.begin_drain()  # idempotent
        status, body, _ = svc.health()
        assert status == 503
        assert body["status"] == "draining"
        assert body["phase"] == "draining"
        # In-flight and straggler traffic completes during the window.
        status, body, _ = svc.handle_cqa(
            {"db": "emp", "query": "Q(X) :- Employee(X, Y)"}
        )
        assert status == 200
        svc.close()


# ----------------------------------------------------------------------
# End to end: sockets, a live pull loop, a real promotion
# ----------------------------------------------------------------------


def _wait_until(predicate, timeout_s=30.0, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval_s)
    return False


class TestPullLoopResilience:
    def test_pull_loop_survives_unexpected_errors(self, tmp_path):
        """Any exception in a pull — not just the typed store errors —
        must leave the daemon thread alive and retrying, with the
        failure recorded, not kill replication silently.  That holds
        with a live plane installed too, where each failure is also a
        ``replica.loop_error`` event."""
        self._survives(tmp_path, "bare")
        with live(LivePlane()) as plane:
            self._survives(tmp_path, "live")
        records = plane.events.records(kind="replica.loop_error")
        assert len(records) >= 3
        assert "ValueError" in records[0]["error"]

    @staticmethod
    def _survives(tmp_path, name):
        follower = _follower_service(tmp_path, name)
        client = ReplicaClient(
            follower,
            ReplicaConfig(
                upstream="http://127.0.0.1:1",
                backoff_s=0.01,
                poll_interval_s=0.01,
            ),
        )
        calls = []

        def boom(wait_s=None):
            calls.append(1)
            raise ValueError("malformed pull body")

        client.pull_once = boom
        before = client.pull_errors
        client.start()
        assert _wait_until(lambda: len(calls) >= 3)
        assert client.running
        assert "ValueError" in (client.last_error or "")
        assert client.pull_errors > before
        client.stop()
        follower.close()

    def test_a_body_that_is_not_json_comes_back_raw(self, tmp_path):
        """The replica plane's one request helper, which the pull loop
        and ``repro replica`` share, hands back a non-JSON body as
        ``{"raw": text}``; the pull counts it as a refusal."""

        class Teapot(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                self.send_response(418)
                self.end_headers()
                self.wfile.write(b"not json")

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Teapot)
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        follower = _follower_service(tmp_path)
        try:
            url = f"http://127.0.0.1:{server.server_port}"
            assert replica_module.json_request(
                *replica_module.parse_server_url(url), "POST", "/x", {}
            ) == (418, {"raw": "not json"})
            client = ReplicaClient(
                follower, ReplicaConfig(upstream=url, backoff_s=0.0)
            )
            assert client.pull_once(wait_s=0.0) == 0
            assert client.last_error == "pull refused: 418 {'raw': 'not json'}"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10.0)
            follower.close()
        assert not thread.is_alive()
        with pytest.raises(ValueError, match="cannot parse server URL"):
            replica_module.parse_server_url("/v1")


class TestEndToEndReplication:
    def test_follower_catches_up_promotes_and_fences_upstream(
        self, tmp_path
    ):
        primary = _recovered_service(tmp_path, "p")
        primary.register_db("emp", EMPLOYEE_SPEC)
        primary.register_db("d", AUDIT_SPEC)
        harness = _ServerHarness(primary, ServerConfig(port=0))
        with harness as server:
            follower = CQAService(store=_store(tmp_path, "f"))
            follower.recover()
            follower.start_follower(ReplicaConfig(
                upstream=f"http://127.0.0.1:{server.port}",
                follower_id="f1",
                wait_s=0.2,
                poll_interval_s=0.02,
            ))
            assert follower.phase == "catching-up"
            assert _wait_until(lambda: follower.phase == "ready")
            # Read-your-writes across the pair: mutate the primary,
            # then read on the follower with min_lsn = the acked lsn.
            status, body, _ = primary.handle_mutate(
                "d", {"insert": [["Audit", "b", "2"]]}
            )
            assert status == 200
            acked = body["lsn"]
            status, body, _ = follower.handle_cqa(
                {
                    "db": "d",
                    "query": "Q(K) :- Audit(K, V)",
                    "min_lsn": acked,
                    "timeout_s": 10.0,
                }
            )
            assert status == 200, body
            assert body["as_of_lsn"] >= acked
            assert ["b"] in body["answers"]
            # Primary-side lag bookkeeping saw the follower.
            assert "f1" in (primary.replication().get("followers") or {})
            # Promote the follower; its pull loop stops and the epoch
            # advances durably.
            status, body, _ = follower.handle_replica_promote()
            assert status == 200 and body["epoch"] == 1
            assert follower.role == "primary"
            assert follower._replica is None
            # The ex-primary fences on first contact with the new
            # epoch, after which its mutations refuse.
            status, _ = harness.request(
                "POST",
                "/v1/replica/pull",
                {"from_lsn": follower.store.last_lsn, "epoch": 1},
            )
            assert status == 409
            status, body = harness.request(
                "POST",
                "/v1/db/d/mutate",
                {"insert": [["Audit", "z", "9"]]},
            )
            assert status == 403 and body["error"] == "not-primary"
            follower.close()
        primary.close()

    def test_http_replica_plane_and_status(self, tmp_path):
        svc = _recovered_service(tmp_path, "p")
        svc.register_db("d", AUDIT_SPEC)
        harness = _ServerHarness(svc, ServerConfig(port=0))
        with harness:
            status, body = harness.request("GET", "/v1/replica/status")
            assert status == 200
            assert body["role"] == "primary" and body["epoch"] == 0
            status, body = harness.request(
                "POST", "/v1/replica/pull", {"from_lsn": 0, "epoch": 0}
            )
            assert status == 200 and len(body["records"]) == 1
            status, body = harness.request(
                "POST", "/v1/replica/fence", {"epoch": 4}
            )
            assert status == 200 and body["role"] == "fenced"
            status, body = harness.request("GET", "/status")
            assert body["role"] == "fenced"
            assert body["replication"]["fenced_by"] == 4
            status, _ = harness.request("POST", "/v1/replica/nope", {})
            assert status == 405
        svc.close()
