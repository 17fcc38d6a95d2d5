"""Durable tenant state: WAL framing, snapshots, recovery, crash-survival.

The contract under test is the acknowledged-prefix property: after a
crash at *any* byte — torn frame, killed process, injected storage
fault — recovery yields exactly the state produced by every
acknowledged mutation and no unacknowledged one.  Torn tails are
truncated; mid-log corruption (acknowledged records with bit rot) is
refused, never silently dropped.
"""

import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
import zlib

import pytest

from repro.runtime.faults import FaultPlan, inject
from repro.serve import CQAService
from repro.serve.specs import PayloadError, parse_database, spec_of_instance
from repro.serve.store import (
    RecoveredState,
    StoreCorruptionError,
    StorePolicy,
    StoreWriteError,
    TenantStore,
    apply_record,
    inspect_store,
    verify_store,
)
from repro.serve.store.snapshot import (
    list_snapshots,
    load_latest_snapshot,
    prune_snapshots,
    state_digest,
    write_snapshot,
)
from repro.serve.store.wal import (
    WriteAheadLog,
    _encode_frame,
    scan_wal,
    truncate_wal,
)

EMPLOYEE_SPEC = {
    "relations": {
        "Employee": {
            "columns": ["Name", "Salary"],
            "key": ["Name"],
            "rows": [
                ["page", "5K"],
                ["page", "8K"],
                ["smith", "3K"],
            ],
        },
        # The mutation workload's target: untouched by CQA queries.
        "Audit": {"columns": ["K", "V"], "rows": []},
    },
    "constraints": {"fd": ["Employee: Name -> Salary"]},
}


def _store(tmp_path, **policy):
    policy.setdefault("fsync", "always")
    return TenantStore(str(tmp_path), StorePolicy(**policy))


def _recovered_digest(tmp_path) -> str:
    st = TenantStore(str(tmp_path), StorePolicy())
    try:
        return st.recover().state_digest
    finally:
        st.close()


# ----------------------------------------------------------------------
# WAL framing and scan classification
# ----------------------------------------------------------------------


class TestWalFraming:
    def test_append_scan_round_trip(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, fsync="always").open()
        records = [
            {"lsn": i, "op": "put_db", "db": f"d{i}", "spec": {"x": i}}
            for i in range(1, 6)
        ]
        for record in records:
            wal.append(record)
        wal.close()
        scan = scan_wal(path)
        assert scan.clean
        assert scan.records == records
        assert scan.good_bytes == scan.total_bytes == os.path.getsize(path)

    def test_torn_header_tail_is_torn_not_corrupt(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, fsync="always").open()
        wal.append({"lsn": 1, "op": "del_db", "db": "a"})
        wal.close()
        good = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(b"\x09\x00\x00")  # 3 of 8 header bytes
        scan = scan_wal(path)
        assert scan.torn and not scan.corrupt
        assert scan.good_bytes == good
        assert len(scan.records) == 1

    def test_torn_payload_tail(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, fsync="always").open()
        wal.append({"lsn": 1, "op": "del_db", "db": "a"})
        wal.close()
        good = os.path.getsize(path)
        frame = _encode_frame({"lsn": 2, "op": "del_db", "db": "b"})
        with open(path, "ab") as handle:
            handle.write(frame[: len(frame) - 3])
        scan = scan_wal(path)
        assert scan.torn and not scan.corrupt
        assert scan.good_bytes == good

    def test_bad_final_frame_at_eof_is_a_tear(self, tmp_path):
        # A complete-looking frame failing CRC at exact EOF is the
        # signature of a short write that landed inside the payload.
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, fsync="always").open()
        wal.append({"lsn": 1, "op": "del_db", "db": "a"})
        wal.append({"lsn": 2, "op": "del_db", "db": "b"})
        wal.close()
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.seek(size - 2)
            byte = handle.read(1)[0]
            handle.seek(size - 2)
            handle.write(bytes([byte ^ 0xFF]))
        scan = scan_wal(path)
        assert scan.torn and not scan.corrupt
        assert len(scan.records) == 1

    def test_bad_frame_with_data_behind_is_corruption(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, fsync="always").open()
        wal.append({"lsn": 1, "op": "del_db", "db": "a"})
        wal.append({"lsn": 2, "op": "del_db", "db": "b"})
        wal.close()
        with open(path, "r+b") as handle:
            handle.seek(10)  # inside the first frame's payload
            byte = handle.read(1)[0]
            handle.seek(10)
            handle.write(bytes([byte ^ 0x01]))
        scan = scan_wal(path)
        assert scan.corrupt and not scan.torn
        assert scan.good_bytes == 0 and not scan.records

    def test_lsn_regression_is_flagged(self, tmp_path):
        path = tmp_path / "wal.log"
        with open(path, "wb") as handle:
            handle.write(_encode_frame({"lsn": 2, "op": "del_db", "db": "a"}))
            handle.write(_encode_frame({"lsn": 2, "op": "del_db", "db": "b"}))
        scan = scan_wal(path)
        assert scan.torn  # second frame is the last one → tear, not rot
        assert len(scan.records) == 1

    def test_truncate_wal_cuts_and_reports(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, fsync="always").open()
        wal.append({"lsn": 1, "op": "del_db", "db": "a"})
        wal.close()
        good = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(b"junk")
        assert truncate_wal(path, good) == 4
        assert os.path.getsize(path) == good
        assert truncate_wal(path, good) == 0  # idempotent

    def test_missing_file_scans_clean_and_empty(self, tmp_path):
        scan = scan_wal(tmp_path / "absent.log")
        assert scan.clean and not scan.records and scan.total_bytes == 0


class TestFsyncPolicies:
    def test_unknown_policy_is_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path / "w", fsync="sometimes")
        with pytest.raises(ValueError):
            WriteAheadLog(tmp_path / "w", fsync_interval=0)

    @pytest.mark.parametrize(
        "policy,interval,appends,expected",
        [
            ("always", 16, 5, 5),
            ("interval", 2, 5, 2),  # after the 2nd and 4th append
            ("never", 16, 5, 0),
        ],
    )
    def test_fsync_cadence(
        self, tmp_path, monkeypatch, policy, interval, appends, expected
    ):
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd))
        )
        wal = WriteAheadLog(
            tmp_path / "wal.log", fsync=policy, fsync_interval=interval
        ).open()
        calls.clear()  # open() fsyncs the directory
        for i in range(appends):
            wal.append({"lsn": i + 1, "op": "del_db", "db": "x"})
        assert len(calls) == expected
        wal.close()  # close flushes whatever is pending


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------


class TestSnapshots:
    def test_write_load_round_trip(self, tmp_path):
        specs = {"emp": EMPLOYEE_SPEC}
        written = write_snapshot(tmp_path, specs, lsn=7)
        loaded = load_latest_snapshot(tmp_path)
        assert loaded is not None
        assert loaded.lsn == 7
        assert loaded.digest == written.digest
        assert loaded.specs == specs
        assert os.path.basename(written.path).startswith("snap_000000000007_")

    def test_digest_is_content_addressed(self, tmp_path):
        d1, per_db = state_digest({"emp": EMPLOYEE_SPEC})
        d2, _ = state_digest({"emp": json.loads(json.dumps(EMPLOYEE_SPEC))})
        assert d1 == d2
        assert set(per_db) == {"emp"}
        assert set(per_db["emp"]) == {"instance", "constraints"}
        mutated = json.loads(json.dumps(EMPLOYEE_SPEC))
        mutated["relations"]["Employee"]["rows"].pop()
        d3, _ = state_digest({"emp": mutated})
        assert d3 != d1

    def test_corrupt_snapshot_falls_back_a_generation(self, tmp_path):
        write_snapshot(tmp_path, {"a": EMPLOYEE_SPEC}, lsn=3)
        newer = write_snapshot(tmp_path, {"b": EMPLOYEE_SPEC}, lsn=9)
        with open(newer.path, "r+", encoding="utf-8") as handle:
            document = json.load(handle)
            document["databases"]["b"]["relations"]["Employee"][
                "rows"
            ].append(["mallory", "0K"])
            handle.seek(0)
            json.dump(document, handle)
            handle.truncate()
        loaded = load_latest_snapshot(tmp_path)
        assert loaded is not None and loaded.lsn == 3
        assert set(loaded.specs) == {"a"}

    def test_prune_keeps_newest(self, tmp_path):
        for lsn in (1, 2, 3, 4):
            write_snapshot(tmp_path, {"a": EMPLOYEE_SPEC}, lsn=lsn)
        removed = prune_snapshots(tmp_path, keep=2)
        assert removed == 2
        remaining = [lsn for lsn, _ in list_snapshots(tmp_path)]
        assert remaining == [4, 3]


# ----------------------------------------------------------------------
# TenantStore: recovery, compaction, corruption refusal
# ----------------------------------------------------------------------


class TestTenantStore:
    def test_recover_empty_directory(self, tmp_path):
        st = _store(tmp_path)
        recovered = st.recover()
        assert isinstance(recovered, RecoveredState)
        assert recovered.last_lsn == 0 and not recovered.specs
        st.close()

    def test_restart_reproduces_the_exact_state(self, tmp_path):
        st = _store(tmp_path)
        st.recover()
        st.append_put_db("emp", EMPLOYEE_SPEC)
        st.append_mutate("emp", insert=[["Audit", "k1", "v1"]], delete=[])
        st.append_mutate(
            "emp", insert=[], delete=[["Employee", "page", "8K"]]
        )
        live = st.current_state_digest()
        st.close()
        st2 = _store(tmp_path)
        recovered = st2.recover()
        assert recovered.state_digest == live
        assert recovered.records_replayed == 3
        assert recovered.last_lsn == 3
        rows = recovered.specs["emp"]["relations"]["Employee"]["rows"]
        assert ["page", "8K"] not in rows
        st2.close()

    def test_compaction_folds_and_resets(self, tmp_path):
        st = _store(tmp_path, compact_every=4)
        st.recover()
        st.append_put_db("emp", EMPLOYEE_SPEC)
        for i in range(3):  # 4th record triggers compaction
            st.append_mutate(
                "emp", insert=[["Audit", f"k{i}", "v"]], delete=[]
            )
        stats = st.stats()
        assert stats["snapshot"]["lsn"] == 4
        assert stats["last_compaction"]["records_folded"] == 4
        assert stats["wal"]["records_since_snapshot"] == 0
        live = st.current_state_digest()
        st.close()
        assert _recovered_digest(tmp_path) == live

    def test_crash_between_snapshot_and_wal_reset_is_harmless(
        self, tmp_path
    ):
        # Simulate by snapshotting at the current lsn while leaving the
        # WAL untouched: replay must skip the folded records.
        st = _store(tmp_path)
        st.recover()
        st.append_put_db("emp", EMPLOYEE_SPEC)
        st.append_mutate("emp", insert=[["Audit", "k", "v"]], delete=[])
        live = st.current_state_digest()
        write_snapshot(str(tmp_path), st._specs, lsn=2)
        st.close()
        st2 = _store(tmp_path)
        recovered = st2.recover()
        assert recovered.state_digest == live
        assert recovered.records_replayed == 0  # all folded
        st2.close()

    @staticmethod
    def _two_generations(tmp_path, mutations):
        """LSN 1 registers, the rest insert one Audit row each; with
        compact_every=4 the snapshots sit at LSN 4 and 8."""
        st = TenantStore(
            str(tmp_path), StorePolicy(fsync="never", compact_every=4)
        )
        st.recover()
        st.append_put_db("emp", EMPLOYEE_SPEC)
        for i in range(mutations):
            st.append_mutate("emp", insert=[["Audit", f"k{i}", "v"]],
                             delete=[])
        st.close()
        return dict(list_snapshots(tmp_path))[8]

    @staticmethod
    def _break_digest(path):
        with open(path, "r+", encoding="utf-8") as handle:
            document = json.load(handle)
            document["databases"]["emp"]["relations"]["Audit"][
                "rows"
            ].append(["mallory", "v"])
            handle.seek(0)
            json.dump(document, handle)
            handle.truncate()

    @pytest.mark.parametrize("damage", ["corrupt", "deleted"])
    def test_fallback_past_acknowledged_writes_is_refused(
        self, tmp_path, damage
    ):
        newest = self._two_generations(tmp_path, 9)  # WAL holds 9-10
        if damage == "corrupt":
            self._break_digest(newest)
        else:
            os.remove(newest)
        with pytest.raises(StoreCorruptionError, match=r"lsn 4"):
            _store(tmp_path).recover()
        report = verify_store(tmp_path)
        assert not report["ok"] and report["problems"]
        # Forensics mode proceeds from LSN 4, and says what it lost.
        st = TenantStore(str(tmp_path), StorePolicy(allow_corruption=True))
        recovered = st.recover()
        assert recovered.last_lsn == 10 and recovered.snapshot_lsn == 4
        rows = recovered.specs["emp"]["relations"]["Audit"]["rows"]
        assert len(rows) == 5  # of 9 acknowledged
        assert any("neither a readable snapshot" in problem
                   for problem in recovered.problems)
        st.close()

    def test_empty_wal_behind_a_corrupt_snapshot_is_refused(
        self, tmp_path
    ):
        newest = self._two_generations(tmp_path, 7)  # LSN 8 compacted
        assert scan_wal(tmp_path / "wal.log").records == []
        self._break_digest(newest)
        with pytest.raises(StoreCorruptionError, match=r"up to lsn 8"):
            _store(tmp_path).recover()
        report = verify_store(tmp_path)
        assert not report["ok"] and report["last_lsn"] == 4

    def test_mid_log_corruption_is_refused(self, tmp_path):
        st = _store(tmp_path)
        st.recover()
        st.append_put_db("a", EMPLOYEE_SPEC)
        st.append_put_db("b", EMPLOYEE_SPEC)
        st.close()
        wal = tmp_path / "wal.log"
        with open(wal, "r+b") as handle:
            handle.seek(12)
            byte = handle.read(1)[0]
            handle.seek(12)
            handle.write(bytes([byte ^ 0x01]))
        st2 = _store(tmp_path)
        with pytest.raises(StoreCorruptionError):
            st2.recover()
        report = verify_store(tmp_path)
        assert not report["ok"] and report["problems"]
        # Forensics mode recovers the clean prefix, explicitly.
        st3 = TenantStore(
            str(tmp_path), StorePolicy(allow_corruption=True)
        )
        recovered = st3.recover()
        assert recovered.corrupt_bytes_dropped > 0
        assert recovered.problems
        st3.close()

    def test_failed_wal_refuses_until_restart(self, tmp_path):
        st = _store(tmp_path)
        st.recover()
        st.append_put_db("a", EMPLOYEE_SPEC)
        st._wal.failed = "disk on fire"
        with pytest.raises(StoreWriteError):
            st.append_put_db("b", EMPLOYEE_SPEC)
        assert st.failed is not None
        st.close()
        st2 = _store(tmp_path)
        recovered = st2.recover()
        assert set(recovered.specs) == {"a"}
        assert st2.failed is None
        st2.close()

    def test_inspect_and_verify_reports(self, tmp_path):
        st = _store(tmp_path, compact_every=3)
        st.recover()
        st.append_put_db("emp", EMPLOYEE_SPEC)
        st.append_mutate("emp", insert=[["Audit", "k", "v"]], delete=[])
        st.append_mutate("emp", insert=[["Audit", "k2", "v"]], delete=[])
        st.append_mutate("emp", insert=[["Audit", "k3", "v"]], delete=[])
        st.close()
        inspected = inspect_store(tmp_path)
        assert inspected["wal"]["by_op"] == {"mutate": 1}  # post-compact
        assert inspected["snapshots"][0]["lsn"] == 3
        report = verify_store(tmp_path)
        assert report["ok"] and report["last_lsn"] == 4
        assert report["databases"]["emp"]["facts"] == 3 + 3

    def test_apply_record_rejects_unknown_shapes(self):
        with pytest.raises(StoreCorruptionError):
            apply_record({}, {"lsn": 1, "op": "chmod", "db": "a"})
        with pytest.raises(StoreCorruptionError):
            apply_record(
                {}, {"lsn": 1, "op": "mutate", "db": "ghost", "insert": []}
            )

    def test_a_mutate_against_an_unknown_database_writes_nothing(
        self, tmp_path
    ):
        """Refused before the append: the next record takes the same
        LSN and the directory recovers cleanly."""
        st = _store(tmp_path)
        st.recover()
        with pytest.raises(StoreCorruptionError, match="unknown database"):
            st.apply_replicated({
                "op": "mutate", "db": "ghost", "insert": [], "delete": [],
                "lsn": 1, "epoch": 0,
            })
        assert st.last_lsn == 0
        assert st.append_put_db("emp", EMPLOYEE_SPEC) == 1
        live = st.current_state_digest()
        st.close()
        assert verify_store(tmp_path)["ok"]
        st = _store(tmp_path)
        recovered = st.recover()
        assert recovered.last_lsn == 1 and recovered.records_replayed == 1
        assert recovered.state_digest == live
        st.close()

    def test_an_insert_into_an_unknown_relation_changes_nothing(
        self, tmp_path
    ):
        """Refused whole: the record's deletes do not leave the mirror
        first, and nothing reaches the WAL."""
        st = _store(tmp_path)
        st.recover()
        st.append_put_db("emp", EMPLOYEE_SPEC)
        before = st.current_state_digest()
        with pytest.raises(StoreCorruptionError, match="unknown relation"):
            st.apply_replicated({
                "op": "mutate", "db": "emp", "insert": [["Ghost", "x"]],
                "delete": [["Employee", "smith", "3K"]],
                "lsn": 2, "epoch": 0,
            })
        assert st.current_state_digest() == before
        assert st.last_lsn == 1
        assert st.append_mutate(
            "emp", insert=[["Audit", "k", "v"]], delete=[]
        ) == 2
        live = st.current_state_digest()
        st.close()
        assert verify_store(tmp_path)["ok"]
        st = _store(tmp_path)
        recovered = st.recover()
        assert recovered.last_lsn == 2 and recovered.state_digest == live
        rows = recovered.specs["emp"]["relations"]["Employee"]["rows"]
        assert ["smith", "3K"] in rows
        st.close()


# ----------------------------------------------------------------------
# Seeded storage faults (FaultPlan)
# ----------------------------------------------------------------------


class TestStorageFaults:
    def test_short_write_fails_unacked_and_recovery_truncates(
        self, tmp_path
    ):
        st = _store(tmp_path)
        st.recover()
        st.append_put_db("a", EMPLOYEE_SPEC)
        plan = FaultPlan(
            seed=7, storage_short_write_rate=1.0, max_storage_faults=1
        )
        with inject(plan):
            with pytest.raises(StoreWriteError):
                st.append_put_db("b", EMPLOYEE_SPEC)
            with pytest.raises(StoreWriteError):
                st.append_put_db("c", EMPLOYEE_SPEC)  # crash-only
        assert plan.storage_faults_injected == 1
        st.close()
        st2 = _store(tmp_path)
        recovered = st2.recover()
        assert set(recovered.specs) == {"a"}  # exactly the acked prefix
        assert recovered.torn_bytes_truncated > 0
        st2.close()

    def test_silent_bitflip_is_caught_at_recovery(self, tmp_path):
        st = _store(tmp_path)
        st.recover()
        with inject(
            FaultPlan(
                seed=3, storage_bitflip_rate=1.0, max_storage_faults=1
            )
        ):
            st.append_put_db("a", EMPLOYEE_SPEC)  # acked, corrupted
        st.append_put_db("b", EMPLOYEE_SPEC)
        st.close()
        st2 = _store(tmp_path)
        # An acknowledged record is unrecoverable: refuse, don't hide.
        with pytest.raises(StoreCorruptionError):
            st2.recover()

    def test_fsync_failure_refuses_the_ack(self, tmp_path):
        st = _store(tmp_path)
        st.recover()
        with inject(
            FaultPlan(
                seed=1,
                storage_fsync_fail_rate=1.0,
                max_storage_faults=1,
            )
        ):
            with pytest.raises(StoreWriteError):
                st.append_put_db("a", EMPLOYEE_SPEC)
        assert st.failed is not None
        st.close()

    def test_failed_epoch_fsync_fails_the_log(self, tmp_path):
        """The epoch record is written before its forced fsync fails:
        no later record may reuse its LSN, or recovery would drop that
        record as a torn tail."""
        st = _store(tmp_path, fsync="never")
        st.recover()
        st.append_put_db("a", EMPLOYEE_SPEC)
        with inject(
            FaultPlan(
                seed=1, storage_fsync_fail_rate=1.0, max_storage_faults=1
            )
        ):
            with pytest.raises(StoreWriteError):
                st.bump_epoch()
        assert st.epoch == 0 and st.last_lsn == 1
        with pytest.raises(StoreWriteError):
            st.append_mutate("a", [["Audit", "k", "v"]], [])
        st.close()
        report = verify_store(tmp_path)
        assert report["ok"] and not report["repairable"]

    def test_same_seed_same_fault_schedule(self, tmp_path):
        def drive(seed):
            plan = FaultPlan(
                seed=seed,
                storage_short_write_rate=0.3,
                max_storage_faults=None,
            )
            outcomes = []
            with inject(plan):
                wal = WriteAheadLog(
                    tmp_path / f"wal-{seed}-{len(os.listdir(tmp_path))}",
                    fsync="never",
                ).open()
                for i in range(20):
                    if wal.failed is not None:
                        outcomes.append("refused")
                        continue
                    try:
                        wal.append(
                            {"lsn": i + 1, "op": "del_db", "db": "x"}
                        )
                        outcomes.append("ok")
                    except StoreWriteError:
                        outcomes.append("fault")
                wal.close()
            return outcomes

        first, second = drive(99), drive(99)
        assert first == second
        assert "fault" in first

    def test_plan_snapshot_restore_round_trips_storage_state(self):
        plan = FaultPlan(
            seed=5,
            storage_short_write_rate=0.5,
            storage_bitflip_rate=0.25,
            storage_fsync_fail_rate=0.125,
            max_storage_faults=3,
        )
        plan._on_storage_write(b"x" * 64)
        restored = FaultPlan.restore(plan.snapshot())
        assert restored.storage_short_write_rate == 0.5
        assert restored.storage_bitflip_rate == 0.25
        assert restored.storage_fsync_fail_rate == 0.125
        assert restored.max_storage_faults == 3
        assert restored.storage_writes == plan.storage_writes
        assert restored.storage_faults_injected == (
            plan.storage_faults_injected
        )
        # Identical RNG stream from here on.
        assert restored._on_storage_write(
            b"y" * 64
        ) == plan._on_storage_write(b"y" * 64)

    def test_restore_accepts_a_snapshot_with_replica_fault_keys(self):
        """Envelopes recorded before the replica network faults were
        removed carry their (all-zero) knobs and counters."""
        plan = FaultPlan(seed=7, storage_short_write_rate=0.5)
        plan._on_storage_write(b"x" * 64)
        snapshot = dict(
            plan.snapshot(),
            replica_drop_rate=0.0,
            replica_stall_rate=0.0,
            replica_stall_s=0.5,
            replica_dup_rate=0.0,
            max_replica_faults=None,
            replica_pulls_seen=0,
            replica_faults_injected=0,
        )
        restored = FaultPlan.restore(snapshot)
        assert restored.snapshot() == plan.snapshot()
        assert restored._on_storage_write(
            b"y" * 64
        ) == plan._on_storage_write(b"y" * 64)


# ----------------------------------------------------------------------
# The acknowledged-prefix property, byte by byte
# ----------------------------------------------------------------------


class TestAckedPrefixProperty:
    def test_recovery_at_every_seeded_truncation_offset(self, tmp_path):
        """Kill the writer at seeded random byte offsets: recovery must
        yield exactly the complete-frame prefix, never refuse, never
        resurrect a torn suffix."""
        base = tmp_path / "base"
        base.mkdir()
        st = _store(base)
        st.recover()
        st.append_put_db("emp", EMPLOYEE_SPEC)
        for i in range(12):
            st.append_mutate(
                "emp",
                insert=[["Audit", f"k{i:03d}", f"v{i}"]],
                delete=[["Audit", f"k{i - 1:03d}", f"v{i - 1}"]]
                if i % 3 == 2
                else [],
            )
        st.close()
        wal_bytes = (base / "wal.log").read_bytes()
        scan = scan_wal(base / "wal.log")
        assert scan.clean and len(scan.records) == 13

        # Frame boundaries (canonical encoding is deterministic).
        ends, offset = [], 0
        for record in scan.records:
            offset += len(_encode_frame(record))
            ends.append(offset)
        assert offset == len(wal_bytes)

        rng = random.Random(20260808)
        offsets = sorted(
            {0, 1, len(wal_bytes)}
            | {rng.randrange(len(wal_bytes)) for _ in range(30)}
            | {end for end in ends[:4]}  # exact frame boundaries
            | {ends[0] + 3}  # mid-header
        )
        for cut in offsets:
            trial = tmp_path / f"cut{cut:05d}"
            trial.mkdir()
            (trial / "wal.log").write_bytes(wal_bytes[:cut])
            expected_specs = {}
            for record, end in zip(scan.records, ends):
                if end <= cut:
                    apply_record(expected_specs, record)
            expected, _ = state_digest(expected_specs)
            st2 = TenantStore(str(trial), StorePolicy())
            recovered = st2.recover()  # must never refuse a pure cut
            assert recovered.state_digest == expected, f"offset {cut}"
            complete = sum(1 for end in ends if end <= cut)
            assert recovered.records_replayed == complete
            st2.close()


# ----------------------------------------------------------------------
# Service wiring: phase gate, durable acks, restart equivalence
# ----------------------------------------------------------------------


class TestServiceDurability:
    def test_phase_gate_and_recovery(self, tmp_path):
        svc = CQAService(store=_store(tmp_path))
        assert svc.phase == "recovering"
        status, body, _ = svc.health()
        assert status == 503 and body["phase"] == "recovering"
        status, body, _ = svc.register_db("emp", EMPLOYEE_SPEC)
        assert status == 503
        status, body, _ = svc.handle_cqa(
            {"db": "emp", "query": "Q(X) :- Employee(X, Y)"}
        )
        assert status == 503 and body["phase"] == "recovering"
        info = svc.recover()
        assert info["phase"] == "ready" and svc.phase == "ready"
        status, body, _ = svc.health()
        assert status == 200 and body["phase"] == "ready"
        assert "store" in body
        svc.close()

    def test_acked_mutations_survive_restart(self, tmp_path):
        svc = CQAService(store=_store(tmp_path))
        svc.recover()
        status, body, _ = svc.register_db("emp", EMPLOYEE_SPEC)
        assert status == 200 and body["lsn"] == 1
        status, body, _ = svc.handle_mutate(
            "emp",
            {
                "insert": [["Audit", "a1", "v1"], ["Audit", "a2", "v2"]],
                "delete": [["Employee", "page", "8K"]],
            },
        )
        assert status == 200 and body["lsn"] == 2
        assert body["inserted"] == 2 and body["deleted"] == 1
        status, answers_before, _ = svc.handle_cqa(
            {"db": "emp", "query": "Q(X) :- Employee(X, Y)"}
        )
        svc.close()

        svc2 = CQAService(store=_store(tmp_path))
        svc2.recover()
        status, answers_after, _ = svc2.handle_cqa(
            {"db": "emp", "query": "Q(X) :- Employee(X, Y)"}
        )
        assert answers_after["answers"] == answers_before["answers"]
        status, body, _ = svc2.handle_cqa(
            {"db": "emp", "query": "Q(K) :- Audit(K, V)"}
        )
        assert body["answers"] == [["a1"], ["a2"]]
        status, body, _ = svc2.remove_db("emp")
        assert status == 200 and body["lsn"] == 3
        svc2.close()

        svc3 = CQAService(store=_store(tmp_path))
        svc3.recover()
        status, body, _ = svc3.list_dbs()
        assert body["databases"] == {}
        svc3.close()

    def test_mutate_validation(self, tmp_path):
        svc = CQAService(store=_store(tmp_path))
        svc.recover()
        svc.register_db("emp", EMPLOYEE_SPEC)
        status, body, _ = svc.handle_mutate("emp", {})
        assert status == 400
        status, body, _ = svc.handle_mutate(
            "emp", {"insert": [["Ghost", "x"]]}
        )
        assert status == 400 and "Ghost" in body["error"]
        status, body, _ = svc.handle_mutate(
            "emp", {"insert": [["Audit", "only-one-value"]]}
        )
        assert status == 400 and "2 values" in body["error"]
        status, body, _ = svc.handle_mutate(
            "ghost", {"insert": [["Audit", "k", "v"]]}
        )
        assert status == 404
        # Nothing landed in the WAL for any refused mutation.
        assert svc.store.stats()["last_lsn"] == 1
        svc.close()

    def test_store_failure_is_503_and_never_acked(self, tmp_path):
        svc = CQAService(store=_store(tmp_path))
        svc.recover()
        svc.register_db("emp", EMPLOYEE_SPEC)
        with inject(
            FaultPlan(
                seed=7,
                storage_short_write_rate=1.0,
                max_storage_faults=1,
            )
        ):
            status, body, _ = svc.handle_mutate(
                "emp", {"insert": [["Audit", "lost", "x"]]}
            )
        assert status == 503 and body["error"] == "store-unavailable"
        status, health, _ = svc.health()
        assert health["status"] == "degraded"
        svc.close()
        # The refused mutation must NOT be present after restart...
        svc2 = CQAService(store=_store(tmp_path))
        svc2.recover()
        status, body, _ = svc2.handle_cqa(
            {"db": "emp", "query": "Q(K) :- Audit(K, V)"}
        )
        assert body["answers"] == []
        # ...and the registry itself survived.
        status, body, _ = svc2.list_dbs()
        assert "emp" in body["databases"]
        svc2.close()

    def test_register_instance_round_trips_durably(self, tmp_path):
        db = parse_database(EMPLOYEE_SPEC)
        spec = spec_of_instance(
            db, {"fd": ["Employee: Name -> Salary"]}
        )
        svc = CQAService(store=_store(tmp_path))
        svc.recover()
        svc.register_instance(
            "emp",
            db,
            (),
            constraint_spec={"fd": ["Employee: Name -> Salary"]},
        )
        svc.close()
        svc2 = CQAService(store=_store(tmp_path))
        recovered = svc2.recover()
        assert recovered["databases"] == 1
        status, body, _ = svc2.list_dbs()
        assert body["databases"]["emp"]["facts"] == len(db)
        assert body["databases"]["emp"]["constraints"] == 1
        svc2.close()
        # And the rendered spec itself re-parses to the same instance.
        assert len(parse_database(spec)) == len(db)

    def test_spec_of_instance_rejects_non_json_values(self):
        from repro.relational.database import fact

        db = parse_database(EMPLOYEE_SPEC).insert(
            [fact("Audit", "k", object())]
        )
        with pytest.raises(PayloadError):
            spec_of_instance(db)


# ----------------------------------------------------------------------
# SIGKILL the real server mid-storm (not just SIGTERM drain)
# ----------------------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _wait_ready(port, deadline_s=30.0) -> None:
    import http.client

    start = time.monotonic()
    while time.monotonic() - start < deadline_s:
        try:
            conn = http.client.HTTPConnection(
                "127.0.0.1", port, timeout=2.0
            )
            conn.request("GET", "/healthz")
            if conn.getresponse().status == 200:
                conn.close()
                return
            conn.close()
        except OSError:
            pass
        time.sleep(0.1)
    raise AssertionError("server never became ready")


@pytest.mark.skipif(
    sys.platform == "win32", reason="SIGKILL semantics are POSIX"
)
class TestSigkillCrashRecovery:
    def test_kill9_mid_storm_recovers_every_acked_mutation(
        self, tmp_path
    ):
        import http.client

        data_dir = tmp_path / "data"
        port = _free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )

        def spawn():
            return subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--port", str(port),
                    "--workers", "0",
                    "--data-dir", str(data_dir),
                    "--fsync", "always",
                ],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )

        server = spawn()
        try:
            _wait_ready(port)
            conn = http.client.HTTPConnection(
                "127.0.0.1", port, timeout=10.0
            )
            body = json.dumps(EMPLOYEE_SPEC)
            conn.request(
                "PUT", "/v1/db/emp", body=body,
                headers={"Content-Type": "application/json"},
            )
            assert conn.getresponse().status == 200

            acked = []
            stop = threading.Event()

            def storm():
                i = 0
                mutate = http.client.HTTPConnection(
                    "127.0.0.1", port, timeout=10.0
                )
                while not stop.is_set():
                    i += 1
                    payload = json.dumps(
                        {"insert": [["Audit", f"row{i:05d}", "v"]]}
                    )
                    try:
                        mutate.request(
                            "POST", "/v1/db/emp/mutate", body=payload,
                            headers={
                                "Content-Type": "application/json"
                            },
                        )
                        response = mutate.getresponse()
                        parsed = json.loads(response.read() or b"{}")
                        if response.status == 200 and "lsn" in parsed:
                            acked.append((parsed["lsn"], f"row{i:05d}"))
                    except (OSError, http.client.HTTPException):
                        return  # the kill landed

            thread = threading.Thread(target=storm)
            thread.start()
            deadline = time.monotonic() + 20.0
            while len(acked) < 25 and time.monotonic() < deadline:
                time.sleep(0.02)
            os.kill(server.pid, signal.SIGKILL)  # no drain, no mercy
            server.wait(timeout=10.0)
            stop.set()
            thread.join(timeout=10.0)
            assert len(acked) >= 25, "storm never got going"
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=10.0)

        # Offline verification and in-process recovery must both hold
        # every acknowledged row.
        report = verify_store(data_dir)
        assert report["ok"], report["problems"]
        max_lsn = max(lsn for lsn, _ in acked)
        assert report["last_lsn"] >= max_lsn
        svc = CQAService(store=_store(data_dir))
        svc.recover()
        status, body, _ = svc.handle_cqa(
            {"db": "emp", "query": "Q(K) :- Audit(K, V)"}
        )
        recovered_rows = {row[0] for row in body["answers"]}
        missing = [
            row for _, row in acked if row not in recovered_rows
        ]
        assert not missing, (
            f"{len(missing)} acknowledged mutation(s) lost: "
            f"{missing[:5]}"
        )
        svc.close()
