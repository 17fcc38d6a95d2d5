"""Property tests for the durable store and the replication stream.

Two laws Hypothesis searches for counterexamples to:

* **Truncation fixed point** — for a WAL damaged at *any* seeded
  offset (bit flip or tear), one ``scan → truncate(good_bytes) →
  scan`` pass reaches a fixed point: the second scan is clean, keeps
  exactly the records the first scan salvaged, and truncating again
  removes nothing.  This is why recovery is crash-safe under repeated
  crashes — re-running it never makes the log worse.
* **Replay equivalence** — a follower that applies a shipped record
  stream through :meth:`TenantStore.apply_replicated` converges to the
  same state digest, LSN, and epoch as the primary that produced the
  stream, for any interleaving of put/mutate/delete/epoch records.
  This is the correctness core of WAL shipping: byte-level replication
  and logical replay agree.
* **Registry agreement** — the service's live registry and its store's
  spec mirror hold the same instances after every request, on the
  primary, on a follower fed the stream, and after a restart, with
  compactions landing mid-sequence and values that compare equal
  across types (``1``, ``1.0``, ``True``).
"""

import os

from hypothesis import given, settings, strategies as st

from repro.observability.flight import constraints_digest, instance_digest
from repro.serve import CQAService
from repro.serve.store import StorePolicy, TenantStore
from repro.serve.store.snapshot import state_digest
from repro.serve.store.wal import scan_wal, truncate_wal

SPEC = {
    "relations": {
        "Audit": {
            "columns": ["K", "V"],
            "key": ["K"],
            "rows": [],
        }
    },
    "constraints": {"fd": ["Audit: K -> V"]},
}


def _populate(store, n_records):
    store.append_put_db("d", SPEC)
    for i in range(n_records):
        store.append_mutate("d", [["Audit", f"k{i}", f"v{i}"]], [])


# ----------------------------------------------------------------------
# scan → truncate → scan is a fixed point under seeded damage
# ----------------------------------------------------------------------


@given(
    n_records=st.integers(min_value=0, max_value=6),
    damage_at=st.floats(min_value=0.0, max_value=1.0),
    flip=st.integers(min_value=1, max_value=255),
    tear=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_truncate_then_scan_is_a_fixed_point(
    tmp_path_factory, n_records, damage_at, flip, tear
):
    directory = str(tmp_path_factory.mktemp("walprop"))
    store = TenantStore(directory, StorePolicy(fsync="never"))
    store.recover()
    _populate(store, n_records)
    store.close()
    wal_path = os.path.join(directory, "wal.log")
    with open(wal_path, "rb") as handle:
        data = handle.read()
    offset = min(int(damage_at * len(data)), len(data) - 1)
    if tear:
        damaged = data[:offset]  # torn tail at an arbitrary byte
    else:
        damaged = (
            data[:offset]
            + bytes([data[offset] ^ flip])
            + data[offset + 1:]
        )  # single-byte rot at an arbitrary byte
    with open(wal_path, "wb") as handle:
        handle.write(damaged)

    first = scan_wal(wal_path)
    # Salvaged records form an LSN-contiguous prefix of the original.
    assert [r["lsn"] for r in first.records] == list(
        range(1, len(first.records) + 1)
    )
    truncate_wal(wal_path, first.good_bytes)
    second = scan_wal(wal_path)
    assert second.clean
    assert second.records == first.records
    assert second.good_bytes == first.good_bytes
    assert second.total_bytes == first.good_bytes
    # Idempotent: a second truncation removes nothing.
    assert truncate_wal(wal_path, second.good_bytes) == 0
    assert scan_wal(wal_path).records == first.records


# ----------------------------------------------------------------------
# follower replay of the shipped stream == primary recovery
# ----------------------------------------------------------------------

_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("mutate"),
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=0, max_value=9),
        ),
        st.tuples(st.just("delete"), st.integers(0, 9), st.just(0)),
        st.tuples(st.just("epoch"), st.just(0), st.just(0)),
    ),
    min_size=0,
    max_size=12,
)


@given(ops=_OPS)
@settings(max_examples=40, deadline=None)
def test_follower_replay_matches_primary_recovery(
    tmp_path_factory, ops
):
    root = tmp_path_factory.mktemp("shipprop")
    primary = TenantStore(
        str(root / "primary"), StorePolicy(fsync="never")
    )
    primary.recover()
    primary.append_put_db("d", SPEC)
    for op, a, b in ops:
        if op == "mutate":
            primary.append_mutate(
                "d", [["Audit", f"k{a}", f"v{b}"]], []
            )
        elif op == "delete":
            # Deleting a possibly-absent fact must replicate cleanly.
            primary.append_mutate(
                "d", [], [["Audit", f"k{a}", f"v{a}"]]
            )
        else:
            primary.bump_epoch()
    shipped = primary.records_since(0)
    assert shipped is not None  # no compaction at these sizes

    os.makedirs(str(root / "follower"), exist_ok=True)
    follower = TenantStore(
        str(root / "follower"), StorePolicy(fsync="never")
    )
    follower.recover()
    for record in shipped:
        assert follower.apply_replicated(record) is True
    assert follower.last_lsn == primary.last_lsn
    assert follower.epoch == primary.epoch
    assert (
        follower.current_state_digest()
        == primary.current_state_digest()
    )
    # And the follower's own durability holds: recovering its data
    # directory reproduces the same digest — shipped bytes, applied
    # state, and recovered state all agree.
    follower.close()
    recovered = TenantStore(
        str(root / "follower"), StorePolicy(fsync="never")
    )
    state = recovered.recover()
    assert state.state_digest == primary.current_state_digest()
    assert state.last_lsn == primary.last_lsn
    assert state.epoch == primary.epoch
    primary.close()
    recovered.close()


# ----------------------------------------------------------------------
# the service's registry == its store's mirror, everywhere
# ----------------------------------------------------------------------

_FACTS = st.lists(
    st.tuples(
        st.sampled_from(["k0", "k1"]),
        st.sampled_from([1, 1.0, True, None, "1", -0.0]),
    ).map(lambda kv: ["Audit", *kv]),
    max_size=2,
)
_NAMES = st.sampled_from(["d", "e"])
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("register"), _NAMES, _FACTS),
        st.tuples(st.just("mutate"), _NAMES, _FACTS, _FACTS),
        st.tuples(st.just("remove"), _NAMES),
        st.tuples(st.just("epoch")),
    ),
    max_size=14,
)


def _service(directory):
    svc = CQAService(
        store=TenantStore(directory, StorePolicy(fsync="never",
                                                 compact_every=3))
    )
    svc.recover()
    return svc


def _digests(svc):
    """``(registry per-db digests, store per-db digests)``."""
    with svc._lock:
        registry = {
            name: {
                "instance": instance_digest(entry.db),
                "constraints": constraints_digest(entry.constraints),
            }
            for name, entry in svc._databases.items()
        }
    mirror = state_digest(svc.store.state_transfer()["databases"])[1]
    return registry, mirror


def _ship(primary, follower):
    records = primary.store.records_since(follower.store.last_lsn)
    if records is None:  # compaction folded the range
        follower.install_replica_state(primary.store.state_transfer())
        return
    for record in records:
        assert follower.apply_replicated(record) is True


@given(steps=_STEPS)
@settings(max_examples=100, deadline=None)
def test_registry_and_store_agree_everywhere(tmp_path_factory, steps):
    root = tmp_path_factory.mktemp("registry")
    primary = _service(str(root / "primary"))
    follower = _service(str(root / "follower"))
    for step in steps:
        if step[0] == "register":
            spec = dict(SPEC, relations={"Audit": dict(
                SPEC["relations"]["Audit"],
                rows=[values for _, *values in step[2]],
            )})
            status = primary.register_db(step[1], spec)[0]
        elif step[0] == "mutate":
            status = primary.handle_mutate(
                step[1], {"insert": step[2], "delete": step[3]}
            )[0]
        elif step[0] == "remove":
            status = primary.remove_db(step[1])[0]
        else:
            status = 200
            primary.store.bump_epoch()
        assert status in (200, 400, 404)
        registry, mirror = _digests(primary)
        assert registry == mirror
        _ship(primary, follower)
    expected = _digests(primary)[0]
    assert _digests(follower) == (expected, expected)
    primary.close()
    follower.close()
    restarted = _service(str(root / "primary"))
    assert _digests(restarted) == (expected, expected)
    restarted.close()
