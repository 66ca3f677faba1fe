"""Fault injection: every crash point recovers to pre-op or post-op state.

The driver runs a fixed operation script against a durable database whose
filesystem seam is wrapped by :class:`FaultyFS` (``tests/conftest.py``).
A **golden pass** counts every filesystem operation the script performs
and records the database fingerprint (object count + full-sweep ids)
before and after each logical operation.  The **crash passes** then rerun
the identical script once per filesystem operation index — crashing there,
under each applicable page-cache survival mode — recover the directory,
and assert the recovered fingerprint equals *exactly* the pre-op or the
post-op fingerprint of the in-flight operation.  Never anything else.

This enumerates every crash point the durability design distinguishes:
mid-WAL-append (a torn record), after the append but before the fsync
(cache lost / partially lost / flushed), mid-checkpoint (page-file
appends, store manifests, superblock flips, the checkpoint manifest,
WAL resets, generation pruning), and — for the staged multi-shard
operations — between the pending record, the per-shard appends and their
fsyncs.  A second enumeration crosses two incremental checkpoints.

The seeded fuzz suite interleaves random mutations, checkpoints, crashes
and reopens, and fails with a replayable one-op-per-line log (mirroring
``tests/api/test_sharding_properties.py``).  A separate pass regression-
tests the non-WAL :meth:`ShardedDatabase.save` atomic-commit discipline,
one test crashes recovery itself to pin that recovery is restartable, and
the last section pins the paged stores underneath: a store left a
generation ahead rolls back to the one the manifest names, and a crashed
``repro repair`` never harms its source.
"""

import json
import shutil

import numpy as np
import pytest

from repro.api import DurableBackend, ShardedDatabase, create_backend
from repro.api.durability import CHECKPOINT_MANIFEST_NAME
from repro.api.sharding import SHARD_MANIFEST_NAME
from repro.geometry.box import HyperRectangle
from repro.recovery import repair_store
from repro.storage.pagefile import SUPERBLOCK_NAME, PagedStore
from repro.storage.pages import decode_superblock

DIMENSIONS = 3
INITIAL_OBJECTS = 20

SCENARIOS = [
    pytest.param("plain", None, None, id="plain"),
    pytest.param("sharded", 2, "hash", id="sharded-2-hash"),
    pytest.param("sharded", 4, "spatial", id="sharded-4-spatial"),
]


def make_box(rng):
    lows = rng.random(DIMENSIONS) * 0.7
    return HyperRectangle(lows, np.minimum(lows + 0.25, 1.0))


def make_pairs(count, seed, first_id=0):
    rng = np.random.default_rng(seed)
    return [(first_id + offset, make_box(rng)) for offset in range(count)]


def build_inner(layout, shards, router):
    if layout == "plain":
        inner = create_backend("ac", DIMENSIONS)
    else:
        inner = ShardedDatabase.create("ac", DIMENSIONS, shards=shards, router=router)
    inner.bulk_load(make_pairs(INITIAL_OBJECTS, seed=100))
    return inner


def make_script():
    """The deterministic operation script of the systematic crash pass.

    Touches every WAL record kind, both the single-record and the staged
    multi-shard paths, and an explicit mid-sequence checkpoint.
    """
    return [
        ("insert", 200, make_pairs(1, seed=200, first_id=200)[0][1]),
        ("delete", 3),
        ("bulk_load", make_pairs(8, seed=210, first_id=210)),
        ("delete_bulk", [0, 1, 210, 9_999]),
        ("checkpoint",),
        ("insert", 300, make_pairs(1, seed=300, first_id=300)[0][1]),
        ("reorganize",),
        ("delete_bulk", [2, 4, 6, 211, 212]),
        ("bulk_load", make_pairs(5, seed=310, first_id=310)),
    ]


def apply_op(db, op):
    kind = op[0]
    if kind == "insert":
        db.insert(op[1], op[2])
    elif kind == "delete":
        db.delete(op[1])
    elif kind == "bulk_load":
        db.bulk_load(op[1])
    elif kind == "delete_bulk":
        db.delete_bulk(op[1])
    elif kind == "checkpoint":
        db.checkpoint()
    elif kind == "reorganize":
        db.reorganize()
    else:  # pragma: no cover - script typo guard
        raise ValueError(kind)


def fingerprint(db):
    """State identity: object count plus the full ascending id sweep.

    A plain backend returns ids in exploration order; canonicalise to
    ascending so fingerprints compare across differently-clustered states.
    """
    result = db.execute(HyperRectangle.unit(DIMENSIONS))
    return (db.n_objects, tuple(sorted(result.ids.tolist())))


# ----------------------------------------------------------------------
# Systematic enumeration
# ----------------------------------------------------------------------
@pytest.mark.parametrize("layout, shards, router", SCENARIOS)
def test_every_crash_point_recovers_to_pre_or_post_state(
    layout, shards, router, tmp_path, faulty_fs_cls, injected_crash_cls
):
    script = make_script()
    # Golden pass: count filesystem operations, record the fingerprint at
    # every operation boundary (fingerprint queries never touch the FS, so
    # the crash passes see the identical operation sequence).
    golden_fs = faulty_fs_cls()
    golden = DurableBackend.create(
        build_inner(layout, shards, router), tmp_path / "golden", fs=golden_fs
    )
    fingerprints = [fingerprint(golden)]
    for op in script:
        apply_op(golden, op)
        fingerprints.append(fingerprint(golden))
    # Capture the count before close(): its final sync is an operation the
    # crash passes never reach.
    total_ops = golden_fs.ops
    golden.close()
    assert total_ops > 20, "the script must exercise a real spread of crash points"

    checked = 0
    for crash_at in range(total_ops):
        op_kind = golden_fs.op_log[crash_at][0]
        # Survival modes only matter where unsynced bytes can exist.
        modes = ("none", "half", "all") if op_kind in ("write", "fsync") else ("none",)
        for mode in modes:
            wal_dir = tmp_path / f"crash-{crash_at}-{mode}"
            fs = faulty_fs_cls(crash_at=crash_at, mode=mode)
            applied = -1  # -1: crashed inside create() itself
            try:
                db = DurableBackend.create(
                    build_inner(layout, shards, router), wal_dir, fs=fs
                )
                applied = 0
                for position, op in enumerate(script):
                    apply_op(db, op)
                    applied = position + 1
            except injected_crash_cls:
                pass
            else:  # pragma: no cover - enumeration bug guard
                pytest.fail(
                    f"crash point {crash_at} ({op_kind}) never fired; the "
                    "crash pass diverged from the golden pass"
                )
            spec = f"crash_at={crash_at} ({op_kind}), mode={mode}, applied={applied}"
            try:
                recovered = DurableBackend.recover(wal_dir)
            except ValueError as error:
                # Only legitimate before the very first checkpoint commits:
                # the durable database never existed.
                assert applied == -1, f"recovery failed after {spec}: {error}"
                continue
            got = fingerprint(recovered)
            recovered.close()
            if applied == -1:
                allowed = {fingerprints[0]}
            else:
                allowed = {fingerprints[applied], fingerprints[applied + 1]}
            assert got in allowed, (
                f"DIVERGED at {spec}: recovered {got[0]} objects, expected "
                f"pre-op {fingerprints[max(applied, 0)][0]} or post-op "
                f"{fingerprints[min(max(applied, 0) + 1, len(script))][0]};\n"
                f"in-flight op: {script[applied] if 0 <= applied < len(script) else 'create'}\n"
                f"got ids:  {got[1]}\n"
                f"allowed: {sorted(allowed)}"
            )
            checked += 1
    # Every enumerated crash point after creation must have been verified.
    assert checked > total_ops * 0.5


# ----------------------------------------------------------------------
# Crash during recovery: recovery is restartable
# ----------------------------------------------------------------------
def test_crash_during_recovery_is_restartable(
    tmp_path, faulty_fs_cls, injected_crash_cls
):
    # Produce a crashed directory with a WAL tail to replay.
    fs = faulty_fs_cls()
    db = DurableBackend.create(build_inner("plain", None, None), tmp_path / "db", fs=fs)
    db.insert(400, make_pairs(1, seed=400, first_id=400)[0][1])
    db.delete(5)
    fs.crash_at = fs.ops + 1  # die inside the next operation's fsync
    with pytest.raises(injected_crash_cls):
        db.insert(401, make_pairs(1, seed=401, first_id=401)[0][1])

    # Golden recovery on a copy: the expected fingerprint and op count.
    golden_dir = tmp_path / "golden"
    shutil.copytree(tmp_path / "db", golden_dir)
    counting = faulty_fs_cls()
    golden = DurableBackend.recover(golden_dir, fs=counting)
    expected = fingerprint(golden)
    golden.close()
    assert counting.ops > 5

    for crash_at in range(counting.ops):
        replica = tmp_path / f"replica-{crash_at}"
        shutil.copytree(tmp_path / "db", replica)
        with pytest.raises(injected_crash_cls):
            DurableBackend.recover(replica, fs=faulty_fs_cls(crash_at=crash_at))
        recovered = DurableBackend.recover(replica)
        got = fingerprint(recovered)
        recovered.close()
        assert got == expected, (
            f"second recovery diverged after a crash at recovery op "
            f"{crash_at}: got {got}, expected {expected}"
        )


# ----------------------------------------------------------------------
# Non-WAL ShardedDatabase.save: the atomic-commit regression
# ----------------------------------------------------------------------
def test_sharded_save_crash_leaves_the_old_or_the_new_snapshot(
    tmp_path, faulty_fs_cls, injected_crash_cls
):
    db = ShardedDatabase.create("ac", DIMENSIONS, shards=3, router="spatial")
    db.bulk_load(make_pairs(30, seed=500))
    target = tmp_path / "snapshot"
    db.save(target)
    state_old = fingerprint(ShardedDatabase.open(target))
    db.bulk_load(make_pairs(6, seed=510, first_id=600))
    db.delete(1)
    state_new = fingerprint(db)
    assert state_new != state_old

    counting = faulty_fs_cls()
    replica = tmp_path / "counting"
    shutil.copytree(target, replica)
    db.save(replica, fs=counting)
    assert counting.ops > 5

    for crash_at in range(counting.ops):
        for mode in ("none", "half"):
            replica = tmp_path / f"save-{crash_at}-{mode}"
            shutil.copytree(target, replica)
            with pytest.raises(injected_crash_cls):
                db.save(replica, fs=faulty_fs_cls(crash_at=crash_at, mode=mode))
            reopened = fingerprint(ShardedDatabase.open(replica))
            assert reopened in (state_old, state_new), (
                f"DIVERGED: save crashed at op {crash_at} "
                f"({counting.op_log[crash_at][0]}, mode={mode}) and reopened "
                f"to {reopened[0]} objects — neither the old nor the new "
                "snapshot"
            )


def test_sharded_first_save_crash_never_leaves_a_readable_torn_snapshot(
    tmp_path, faulty_fs_cls, injected_crash_cls
):
    db = ShardedDatabase.create("ac", DIMENSIONS, shards=2, router="hash")
    db.bulk_load(make_pairs(20, seed=520))
    counting = faulty_fs_cls()
    db.save(tmp_path / "counting", fs=counting)
    state = fingerprint(db)
    for crash_at in range(counting.ops):
        target = tmp_path / f"first-{crash_at}"
        with pytest.raises(injected_crash_cls):
            db.save(target, fs=faulty_fs_cls(crash_at=crash_at))
        try:
            reopened = ShardedDatabase.open(target)
        except (FileNotFoundError, ValueError):
            continue  # no committed snapshot — the clean, expected outcome
        assert fingerprint(reopened) == state, (
            f"first save crashed at op {crash_at} but reopened to a state "
            "other than the committed one"
        )


# ----------------------------------------------------------------------
# Seeded crash/reopen fuzz with a replayable failure log
# ----------------------------------------------------------------------
FUZZ_CASES = [
    pytest.param(layout, shards, router, seed, id=f"{name}-s{seed}")
    for (layout, shards, router, name), seeds in (
        (("plain", None, None, "plain"), (0, 1, 2)),
        (("sharded", 2, "spatial", "sharded-2-spatial"), (0, 1)),
        (("sharded", 4, "hash", "sharded-4-hash"), (0, 1)),
    )
    for seed in seeds
]

FUZZ_STEPS = 40


class OpLog:
    """Operation recorder whose ``str`` is the replayable failure log."""

    def __init__(self, header):
        self.lines = [header]

    def record(self, line):
        self.lines.append(line)

    def fail(self, message):
        return "\n".join([*self.lines, message])


@pytest.mark.parametrize("layout, shards, router, seed", FUZZ_CASES)
def test_crash_reopen_fuzz_never_leaves_an_intermediate_state(
    layout, shards, router, seed, tmp_path, faulty_fs_cls, injected_crash_cls
):
    rng = np.random.default_rng(5_000 + seed)
    log = OpLog(f"fuzz layout={layout} shards={shards} router={router} seed={seed}")
    wal_dir = tmp_path / "db"
    fs = faulty_fs_cls()
    db = DurableBackend.create(build_inner(layout, shards, router), wal_dir, fs=fs)
    boxes = dict(make_pairs(INITIAL_OBJECTS, seed=100))
    alive = set(boxes)
    next_id = 1_000
    crashes = 0

    for step in range(FUZZ_STEPS):
        choice = rng.random()
        if choice < 0.30:
            count = int(rng.integers(1, 6))
            batch = []
            for _ in range(count):
                batch.append((next_id, make_box(rng)))
                next_id += 1
            op = ("bulk_load" if count > 1 else "insert", [i for i, _ in batch])
            post = alive | {object_id for object_id, _ in batch}
            runner = (
                (lambda: db.bulk_load(batch))
                if count > 1
                else (lambda: db.insert(batch[0][0], batch[0][1]))
            )
            for object_id, box in batch:
                boxes[object_id] = box
        elif choice < 0.45 and alive:
            victim = int(rng.choice(sorted(alive)))
            op = ("delete", victim)
            post = alive - {victim}
            runner = lambda: db.delete(victim)  # noqa: E731
        elif choice < 0.60 and alive:
            count = int(rng.integers(1, max(len(alive) // 3, 2)))
            doomed = [int(x) for x in rng.choice(sorted(alive), size=count, replace=False)]
            doomed.append(next_id + 77_000)  # absent on purpose
            op = ("delete_bulk", doomed)
            post = alive - set(doomed)
            runner = lambda: db.delete_bulk(doomed)  # noqa: E731
        elif choice < 0.75:
            op = ("checkpoint",)
            post = set(alive)
            runner = db.checkpoint
        elif choice < 0.85:
            op = ("reorganize",)
            post = set(alive)
            runner = db.reorganize
        else:
            op = ("clean_reopen",)
            post = set(alive)

            def runner():
                nonlocal db, fs
                db.close()
                fs = faulty_fs_cls()
                db = DurableBackend.recover(wal_dir, fs=fs)

        # Arming is sticky: a budget that overshoots the current operation
        # stays live and fires inside a later one, so every schedule
        # actually crashes somewhere.
        armed = rng.random() < 0.3
        if armed:
            fs.crash_at = fs.ops + int(rng.integers(0, 10))
        log.record(f"step {step}: {op!r} crash_armed={armed}")
        try:
            runner()
        except injected_crash_cls:
            crashes += 1
            fs = faulty_fs_cls()
            db = DurableBackend.recover(wal_dir, fs=fs)
            got = sorted(db.execute(HyperRectangle.unit(DIMENSIONS)).ids.tolist())
            pre_ids, post_ids = sorted(alive), sorted(post)
            if got != pre_ids and got != post_ids:
                pytest.fail(
                    log.fail(
                        f"DIVERGED after crash at step {step} {op!r}: "
                        f"recovered={got} pre={pre_ids} post={post_ids}"
                    )
                )
            log.record(f"step {step}: recovered to {'post' if got == post_ids else 'pre'}-op")
            alive = set(got)
        else:
            alive = post
        if db.n_objects != len(alive):
            pytest.fail(
                log.fail(
                    f"DIVERGED at step {step}: n_objects={db.n_objects} "
                    f"expected {len(alive)}"
                )
            )

    final = sorted(db.execute(HyperRectangle.unit(DIMENSIONS)).ids.tolist())
    if final != sorted(alive):
        pytest.fail(log.fail(f"DIVERGED at final sweep: {final} != {sorted(alive)}"))
    # The schedule must actually have crashed somewhere, or the suite
    # silently degenerates into a plain property test.
    assert crashes >= 1, log.fail("no crash fired; adjust the fuzz schedule")


def test_op_log_renders_replayable_lines():
    log = OpLog("fuzz seed=0")
    log.record("step 0: ('insert', [1000])")
    message = log.fail("DIVERGED at step 1")
    assert message.splitlines() == [
        "fuzz seed=0",
        "step 0: ('insert', [1000])",
        "DIVERGED at step 1",
    ]


# ----------------------------------------------------------------------
# Two incremental checkpoints: the append path of the paged stores
# ----------------------------------------------------------------------
INCREMENTAL_SCENARIOS = [
    pytest.param("plain", None, None, id="plain"),
    pytest.param("sharded", 2, "spatial", id="sharded-2-spatial"),
]


def make_incremental_script():
    """Crosses two checkpoints with mutations between and after.

    The creation checkpoint writes every cluster (a fresh store); the two
    explicit ones are incremental over small dirty sets.  The tail
    mutations leave a WAL segment to replay over whichever checkpoint
    survived.
    """
    return [
        ("insert", 200, make_pairs(1, seed=200, first_id=200)[0][1]),
        ("bulk_load", make_pairs(8, seed=210, first_id=210)),
        ("checkpoint",),
        ("delete", 3),
        ("insert", 300, make_pairs(1, seed=300, first_id=300)[0][1]),
        ("checkpoint",),
        ("delete_bulk", [0, 1, 210, 9_999]),
        ("bulk_load", make_pairs(4, seed=310, first_id=310)),
    ]


@pytest.mark.parametrize("layout, shards, router", INCREMENTAL_SCENARIOS)
def test_every_crash_point_across_incremental_checkpoints(
    layout, shards, router, tmp_path, faulty_fs_cls, injected_crash_cls
):
    script = make_incremental_script()
    golden_fs = faulty_fs_cls()
    golden = DurableBackend.create(
        build_inner(layout, shards, router), tmp_path / "golden", fs=golden_fs
    )
    fingerprints = [fingerprint(golden)]
    for op in script:
        apply_op(golden, op)
        fingerprints.append(fingerprint(golden))
    total_ops = golden_fs.ops
    golden.close()
    assert total_ops > 20, "the script must exercise a real spread of crash points"

    checked = 0
    for crash_at in range(total_ops):
        op_kind = golden_fs.op_log[crash_at][0]
        modes = ("none", "half", "all") if op_kind in ("write", "fsync") else ("none",)
        for mode in modes:
            wal_dir = tmp_path / f"crash-{crash_at}-{mode}"
            fs = faulty_fs_cls(crash_at=crash_at, mode=mode)
            applied = -1
            try:
                db = DurableBackend.create(
                    build_inner(layout, shards, router), wal_dir, fs=fs
                )
                applied = 0
                for position, op in enumerate(script):
                    apply_op(db, op)
                    applied = position + 1
            except injected_crash_cls:
                pass
            else:  # pragma: no cover - enumeration bug guard
                pytest.fail(
                    f"crash point {crash_at} ({op_kind}) never fired; the "
                    "crash pass diverged from the golden pass"
                )
            spec = f"crash_at={crash_at} ({op_kind}), mode={mode}, applied={applied}"
            try:
                recovered = DurableBackend.recover(wal_dir)
            except ValueError as error:
                assert applied == -1, f"recovery failed after {spec}: {error}"
                continue
            got = fingerprint(recovered)
            recovered.close()
            if applied == -1:
                allowed = {fingerprints[0]}
            else:
                allowed = {fingerprints[applied], fingerprints[applied + 1]}
            assert got in allowed, (
                f"DIVERGED at {spec}: recovered {got[0]} objects, expected "
                f"pre-op {fingerprints[max(applied, 0)][0]} or post-op "
                f"{fingerprints[min(max(applied, 0) + 1, len(script))][0]};\n"
                f"in-flight op: {script[applied] if 0 <= applied < len(script) else 'create'}\n"
                f"got ids:  {got[1]}\n"
                f"allowed: {sorted(allowed)}"
            )
            checked += 1
    assert checked > total_ops * 0.5


# ----------------------------------------------------------------------
# The paged stores underneath: rollback to the committed generation
# ----------------------------------------------------------------------
def superblock_generation(directory):
    return decode_superblock((directory / SUPERBLOCK_NAME).read_bytes()).generation


def crash_at_barrier(faulty_fs_cls, label):
    """A fault-injection filesystem that dies at the named barrier."""

    class BarrierCrash(faulty_fs_cls):
        def barrier(self, name):
            if name == label:
                self.crash_at = self.ops
            super().barrier(name)

    return BarrierCrash()


def test_recovery_rolls_a_store_back_to_the_manifest_generation(
    tmp_path, faulty_fs_cls, injected_crash_cls
):
    wal_dir = tmp_path / "db"
    db = DurableBackend.create(build_inner("plain", None, None), wal_dir)
    db.insert(400, make_pairs(1, seed=400, first_id=400)[0][1])
    expected = fingerprint(db)
    committed = superblock_generation(wal_dir / "pages-000")
    db.close()
    # Die at the payload barrier of recovery's checkpoint: the store has
    # committed a new generation (its superblock moved), the checkpoint
    # manifest has not, and nothing is pruned yet.
    with pytest.raises(injected_crash_cls):
        DurableBackend.recover(
            wal_dir, fs=crash_at_barrier(faulty_fs_cls, "checkpoint-payload")
        )
    store = wal_dir / "pages-000"
    assert superblock_generation(store) == committed + 1
    manifest = json.loads((wal_dir / CHECKPOINT_MANIFEST_NAME).read_text())
    assert manifest["stores"][0]["generation"] == committed

    recovered = DurableBackend.recover(wal_dir)
    assert fingerprint(recovered) == expected
    recovered.close()
    # Recovery rolled the store back before its own checkpoint moved it
    # on: exactly one generation survives, the one the manifest names.
    manifest = json.loads((wal_dir / CHECKPOINT_MANIFEST_NAME).read_text())
    generation = manifest["stores"][0]["generation"]
    assert superblock_generation(store) == generation
    assert sorted(path.name for path in store.glob("manifest-*.json")) == [
        f"manifest-{generation:06d}.json"
    ]


def test_sharded_open_uses_the_manifest_generation_not_the_superblock(
    tmp_path, faulty_fs_cls, injected_crash_cls
):
    db = ShardedDatabase.create("ac", DIMENSIONS, shards=2, router="hash")
    db.bulk_load(make_pairs(20, seed=530))
    target = tmp_path / "snapshot"
    db.save(target)
    state_old = fingerprint(ShardedDatabase.open(target))
    db.bulk_load(make_pairs(5, seed=540, first_id=700))
    with pytest.raises(injected_crash_cls):
        db.save(target, fs=crash_at_barrier(faulty_fs_cls, "sharded-save-commit"))
    manifest = json.loads((target / SHARD_MANIFEST_NAME).read_text())
    for entry in manifest["shards"]:
        # Every store committed its new generation; the manifest did not.
        assert superblock_generation(target / entry["store"]) == entry["generation"] + 1
    assert fingerprint(ShardedDatabase.open(target)) == state_old


# ----------------------------------------------------------------------
# Crash during repair: the source survives, the torn destination is inert
# ----------------------------------------------------------------------
def test_every_repair_crash_point_leaves_source_repairable(
    tmp_path, faulty_fs_cls, injected_crash_cls
):
    db = DurableBackend.create(build_inner("plain", None, None), tmp_path / "wal")
    db.bulk_load(make_pairs(40, seed=600, first_id=600))
    db.checkpoint()
    db.close()
    source = tmp_path / "wal" / "pages-000"
    expected = fingerprint(PagedStore.open(source).load_index())
    source_bytes = sorted(
        (entry.name, entry.read_bytes()) for entry in source.iterdir()
    )

    counting = faulty_fs_cls()
    golden_report = repair_store(source, tmp_path / "golden", fs=counting)
    assert golden_report.lossless
    assert counting.ops > 5

    for crash_at in range(counting.ops):
        destination = tmp_path / f"torn-{crash_at}"
        with pytest.raises(injected_crash_cls):
            repair_store(
                source, destination, fs=faulty_fs_cls(crash_at=crash_at)
            )
        # Repair reads the source and only writes the destination.
        assert (
            sorted((entry.name, entry.read_bytes()) for entry in source.iterdir())
            == source_bytes
        ), f"repair crash at op {crash_at} mutated the source store"
        # A torn destination never reopens to a partial state: either no
        # generation committed (the open is refused) or — if the crash
        # fired after the superblock flip — it holds the full salvage.
        try:
            torn = PagedStore.open(destination)
        except (FileNotFoundError, ValueError):
            pass
        else:
            assert fingerprint(torn.load_index()) == expected, (
                f"repair crash at op {crash_at} committed a partial generation"
            )
        # And a rerun into a fresh destination always completes.
        retry = tmp_path / f"retry-{crash_at}"
        report = repair_store(source, retry, fs=faulty_fs_cls())
        assert report.lossless
        assert fingerprint(PagedStore.open(retry).load_index()) == expected
