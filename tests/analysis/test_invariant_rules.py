"""Unit tests for the invariant rules (RL001-RL008).

Every rule is exercised four ways on small fixture modules written under
a path where the rule applies: it fires on a violating snippet, stays
silent on the compliant equivalent, honors a justified suppression, and
rejects a suppression without a justification (the violation stays AND
an ``RL000`` meta-diagnostic is added).  Rule-specific edge cases (seam
receivers, capability guards, composite exemptions, alias tracking)
follow in per-rule classes.
"""

import pytest

from repro.analysis import META_CODE, run_lint


def lint_snippet(tmp_path, relative, source, select=None):
    """Write *source* at tmp_path/*relative* and lint that one file."""
    target = tmp_path / relative
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source, encoding="utf-8")
    return run_lint([target], select=select)


def codes_of(report):
    return [diagnostic.code for diagnostic in report.sorted_diagnostics()]


def with_comment_above(source, line, comment):
    """Insert a standalone comment line immediately above 1-based *line*."""
    lines = source.splitlines()
    lines.insert(line - 1, comment)
    return "\n".join(lines) + "\n"


#: Per rule: a path where the rule applies, a minimal violating module
#: (with the 1-based line of the violation), and its compliant twin.
RULE_FIXTURES = {
    "RL001": dict(
        path="repro/storage/swapfile.py",
        bad="import os\n\n\ndef swap(path):\n    os.replace(path, path)\n",
        flag_line=5,
        good="def swap(path, fs):\n    fs.replace(path, path)\n",
    ),
    "RL002": dict(
        path="repro/engine/gadget.py",
        bad="def drop(backend: SpatialBackend, ids):\n    return backend.delete_bulk(ids)\n",
        flag_line=2,
        good=(
            "def drop(backend: SpatialBackend, ids):\n"
            "    if backend.capabilities.supports_delete_bulk:\n"
            "        return backend.delete_bulk(ids)\n"
            "    return 0\n"
        ),
    ),
    "RL003": dict(
        path="repro/evaluation/probe.py",
        bad="def is_durable(backend):\n    return isinstance(backend, DurableBackend)\n",
        flag_line=2,
        good=(
            "def is_durable(backend):\n"
            '    return getattr(backend, "group_commit", None) is not None\n'
        ),
    ),
    "RL004": dict(
        path="repro/engine/timer.py",
        bad="import time\n\n\ndef stamp():\n    return time.time()\n",
        flag_line=5,
        good="import time\n\n\ndef stamp():\n    return time.perf_counter()\n",
    ),
    "RL005": dict(
        path="repro/api/serving.py",
        bad=(
            "def tick(wal, futures, value):\n"
            "    with wal.group_commit():\n"
            "        for future in futures:\n"
            "            future.set_result(value)\n"
        ),
        flag_line=4,
        good=(
            "def tick(wal, futures, value):\n"
            "    with wal.group_commit():\n"
            "        deferred = list(futures)\n"
            "    for future in deferred:\n"
            "        future.set_result(value)\n"
        ),
    ),
    "RL006": dict(
        path="repro/engine/guard.py",
        bad=(
            "def swallow(task):\n"
            "    try:\n"
            "        task()\n"
            "    except ValueError:\n"
            "        pass\n"
        ),
        flag_line=4,
        good=(
            "def swallow(task):\n"
            "    try:\n"
            "        task()\n"
            "    except ValueError:\n"
            "        return False\n"
            "    return True\n"
        ),
    ),
    "RL007": dict(
        path="repro/api/replication.py",
        bad=(
            "import socket\n\n\n"
            "def ship(address, payload):\n"
            "    connection = socket.create_connection(address)\n"
            "    connection.sendall(payload)\n"
        ),
        flag_line=5,
        good=(
            "import socket\n\n\n"
            "class ReplicaServer:\n"
            "    def listen(self, host, port):\n"
            "        return socket.create_server((host, port))\n"
        ),
    ),
    "RL008": dict(
        path="repro/engine/framing.py",
        bad=(
            "def frame(payload):\n"
            "    header = struct.pack('<I', len(payload))\n"
            "    return header + payload\n"
        ),
        flag_line=2,
        good=(
            "from repro.storage.pages import encode_page\n\n\n"
            "def frame(payload):\n"
            "    return encode_page(payload)\n"
        ),
    ),
}

ALL_CODES = sorted(RULE_FIXTURES)


class TestEveryRule:
    @pytest.mark.parametrize("code", ALL_CODES)
    def test_fires_on_violation(self, tmp_path, code):
        fixture = RULE_FIXTURES[code]
        report = lint_snippet(tmp_path, fixture["path"], fixture["bad"])
        assert codes_of(report) == [code]
        (diagnostic,) = report.diagnostics
        assert diagnostic.line == fixture["flag_line"]

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_silent_on_compliant_equivalent(self, tmp_path, code):
        fixture = RULE_FIXTURES[code]
        report = lint_snippet(tmp_path, fixture["path"], fixture["good"])
        assert report.diagnostics == []
        assert report.exit_code == 0

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_justified_suppression_is_honored(self, tmp_path, code):
        fixture = RULE_FIXTURES[code]
        source = with_comment_above(
            fixture["bad"],
            fixture["flag_line"],
            f"# repro-lint: disable={code} -- fixture: intentional violation",
        )
        report = lint_snippet(tmp_path, fixture["path"], source)
        assert report.diagnostics == []
        assert report.suppressed == 1
        assert report.exit_code == 0

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_unjustified_suppression_is_rejected(self, tmp_path, code):
        fixture = RULE_FIXTURES[code]
        source = with_comment_above(
            fixture["bad"], fixture["flag_line"], f"# repro-lint: disable={code}"
        )
        report = lint_snippet(tmp_path, fixture["path"], source)
        assert code in codes_of(report), "the violation must survive"
        assert META_CODE in codes_of(report), "the bad suppression must be reported"
        assert report.suppressed == 0

    @pytest.mark.parametrize("code", ALL_CODES)
    def test_trailing_suppression_is_honored(self, tmp_path, code):
        fixture = RULE_FIXTURES[code]
        lines = fixture["bad"].splitlines()
        lines[fixture["flag_line"] - 1] += f"  # repro-lint: disable={code} -- fixture exemption"
        report = lint_snippet(tmp_path, fixture["path"], "\n".join(lines) + "\n")
        assert report.diagnostics == []
        assert report.suppressed == 1


class TestSeamDiscipline:
    """RL001: raw file operations in the durability-critical modules."""

    def test_same_code_outside_scoped_files_is_ignored(self, tmp_path):
        fixture = RULE_FIXTURES["RL001"]
        report = lint_snippet(tmp_path, "repro/evaluation/report.py", fixture["bad"])
        assert report.diagnostics == []

    def test_filesystem_class_is_exempt(self, tmp_path):
        source = (
            "import os\n\n\n"
            "class FileSystem:\n"
            "    def replace(self, source, destination):\n"
            "        os.replace(source, destination)\n"
        )
        report = lint_snippet(tmp_path, "repro/storage/seam.py", source)
        assert report.diagnostics == []

    def test_seam_receivers_are_exempt(self, tmp_path):
        source = (
            "def prepare(self, directory):\n"
            "    self._fs.mkdir(directory)\n"
            "    self._fs.write_text(directory)\n"
        )
        report = lint_snippet(tmp_path, "repro/storage/prep.py", source)
        assert report.diagnostics == []

    def test_path_mutation_methods_are_flagged(self, tmp_path):
        source = "def prepare(directory):\n    directory.mkdir(parents=True)\n"
        report = lint_snippet(tmp_path, "repro/storage/prep.py", source)
        assert codes_of(report) == ["RL001"]

    def test_read_only_open_is_allowed_write_open_is_not(self, tmp_path):
        reader = 'def load(path):\n    with open(path, "rb") as handle:\n        return handle\n'
        writer = 'def dump(path):\n    with open(path, "wb") as handle:\n        return handle\n'
        assert lint_snippet(tmp_path, "repro/storage/io_r.py", reader).diagnostics == []
        assert codes_of(lint_snippet(tmp_path, "repro/storage/io_w.py", writer)) == ["RL001"]

    def test_api_durability_and_sharding_are_in_scope(self, tmp_path):
        fixture = RULE_FIXTURES["RL001"]
        for name in ("durability.py", "executor.py", "server.py", "sharding.py"):
            report = lint_snippet(tmp_path, f"repro/api/{name}", fixture["bad"], select=["RL001"])
            assert codes_of(report) == ["RL001"], name


class TestCapabilityGating:
    """RL002: optional backend operations behind capability checks."""

    def test_require_call_counts_as_guard(self, tmp_path):
        source = (
            "def persist(backend: SpatialBackend, path):\n"
            '    backend.capabilities.require("persistence")\n'
            "    return backend.save(path)\n"
        )
        report = lint_snippet(tmp_path, "repro/engine/persist.py", source)
        assert report.diagnostics == []

    def test_guard_for_a_different_capability_does_not_count(self, tmp_path):
        source = (
            "def persist(backend: SpatialBackend, path, ids):\n"
            "    if backend.capabilities.supports_delete_bulk:\n"
            "        backend.delete_bulk(ids)\n"
            "    return backend.save(path)\n"
        )
        report = lint_snippet(tmp_path, "repro/engine/persist.py", source)
        assert codes_of(report) == ["RL002"]
        (diagnostic,) = report.diagnostics
        assert "supports_persistence" in diagnostic.message

    def test_untyped_receiver_is_not_flagged(self, tmp_path):
        source = "def drop(backend, ids):\n    return backend.delete_bulk(ids)\n"
        report = lint_snippet(tmp_path, "repro/engine/gadget.py", source)
        assert report.diagnostics == []

    def test_self_attribute_bound_to_protocol_parameter_is_tracked(self, tmp_path):
        source = (
            "class Facade:\n"
            "    def __init__(self, backend: SpatialBackend):\n"
            "        self._backend = backend\n\n"
            "    def snapshot(self):\n"
            "        return self._backend.snapshot()\n"
        )
        report = lint_snippet(tmp_path, "repro/api/facade.py", source)
        assert codes_of(report) == ["RL002"]

    def test_annotated_local_is_tracked(self, tmp_path):
        source = (
            "def rebuild(registry, ids):\n"
            '    backend: SpatialBackend = registry.create("adaptive")\n'
            "    backend.reorganize()\n"
        )
        report = lint_snippet(tmp_path, "repro/engine/rebuild.py", source)
        assert codes_of(report) == ["RL002"]


class TestNoIsinstanceProbing:
    """RL003: capability dispatch instead of concrete-class probes."""

    def test_assert_narrowing_is_exempt(self, tmp_path):
        source = "def check(backend):\n    assert isinstance(backend, DurableBackend)\n"
        report = lint_snippet(tmp_path, "repro/evaluation/probe.py", source)
        assert report.diagnostics == []

    def test_composites_may_dispatch_on_each_other_in_api(self, tmp_path):
        source = "def fan_out(backend):\n    return isinstance(backend, ShardedDatabase)\n"
        assert lint_snippet(tmp_path, "repro/api/glue.py", source).diagnostics == []
        report = lint_snippet(tmp_path, "repro/engine/glue.py", source)
        assert codes_of(report) == ["RL003"]

    def test_leaf_backend_probe_in_api_is_flagged(self, tmp_path):
        source = "def fast_path(backend):\n    return isinstance(backend, SequentialScan)\n"
        report = lint_snippet(tmp_path, "repro/api/glue.py", source)
        assert codes_of(report) == ["RL003"]

    def test_registry_and_tests_are_exempt(self, tmp_path):
        fixture = RULE_FIXTURES["RL003"]
        assert lint_snippet(tmp_path, "repro/api/registry.py", fixture["bad"]).diagnostics == []
        assert lint_snippet(tmp_path, "tests/api/probe.py", fixture["bad"]).diagnostics == []

    def test_tuple_second_argument_is_inspected(self, tmp_path):
        source = "def check(backend):\n    return isinstance(backend, (int, RStarTree))\n"
        report = lint_snippet(tmp_path, "repro/evaluation/probe.py", source)
        assert codes_of(report) == ["RL003"]


class TestDeterminism:
    """RL004: no wall clocks, no shared-state randomness."""

    @pytest.mark.parametrize(
        "expression",
        ["time.time()", "time.time_ns()", "datetime.datetime.now()", "datetime.date.today()"],
    )
    def test_wall_clock_reads_are_flagged(self, tmp_path, expression):
        source = f"def stamp():\n    return {expression}\n"
        report = lint_snippet(tmp_path, "repro/engine/timer.py", source)
        assert codes_of(report) == ["RL004"]

    @pytest.mark.parametrize("expression", ["random.random()", "np.random.rand(3)"])
    def test_shared_state_randomness_is_flagged(self, tmp_path, expression):
        source = f"def draw():\n    return {expression}\n"
        report = lint_snippet(tmp_path, "repro/engine/draw.py", source)
        assert codes_of(report) == ["RL004"]

    @pytest.mark.parametrize(
        "expression",
        ["time.perf_counter()", "np.random.default_rng(7)", "random.Random(7)"],
    )
    def test_seeded_and_monotonic_alternatives_pass(self, tmp_path, expression):
        source = f"def draw():\n    return {expression}\n"
        report = lint_snippet(tmp_path, "repro/engine/draw.py", source)
        assert report.diagnostics == []

    def test_rule_only_covers_repro_packages(self, tmp_path):
        fixture = RULE_FIXTURES["RL004"]
        report = lint_snippet(tmp_path, "scripts/timer.py", fixture["bad"])
        assert report.diagnostics == []


class TestFsyncBeforeAck:
    """RL005: futures resolve only after the group-commit barrier."""

    def test_resolution_before_the_barrier_is_flagged(self, tmp_path):
        source = (
            "def tick(wal, future, value):\n"
            "    future.set_result(value)\n"
            "    with wal.group_commit():\n"
            "        pass\n"
        )
        report = lint_snippet(tmp_path, "repro/api/serving.py", source, select=["RL005"])
        assert codes_of(report) == ["RL005"]

    def test_barrier_alias_via_getattr_is_tracked(self, tmp_path):
        source = (
            "def tick(backend, future, value):\n"
            '    group = getattr(backend, "group_commit", None)\n'
            "    with group():\n"
            "        future.set_exception(value)\n"
        )
        report = lint_snippet(tmp_path, "repro/api/serving.py", source)
        assert codes_of(report) == ["RL005"]

    def test_function_without_a_barrier_may_resolve_futures(self, tmp_path):
        source = "def deliver(future, value):\n    future.set_result(value)\n"
        report = lint_snippet(tmp_path, "repro/api/serving.py", source)
        assert report.diagnostics == []

    def test_other_api_modules_are_out_of_scope(self, tmp_path):
        fixture = RULE_FIXTURES["RL005"]
        report = lint_snippet(tmp_path, "repro/api/database.py", fixture["bad"])
        assert report.diagnostics == []


class TestExceptionHygiene:
    """RL006: no bare except, no silent pass."""

    def test_bare_except_is_flagged_even_when_it_acts(self, tmp_path):
        source = (
            "def guard(task):\n"
            "    try:\n"
            "        task()\n"
            "    except:\n"
            "        raise RuntimeError\n"
        )
        report = lint_snippet(tmp_path, "repro/engine/guard.py", source)
        assert codes_of(report) == ["RL006"]

    def test_bare_silent_handler_is_flagged_twice(self, tmp_path):
        source = "def guard(task):\n    try:\n        task()\n    except:\n        pass\n"
        report = lint_snippet(tmp_path, "repro/engine/guard.py", source)
        assert codes_of(report) == ["RL006", "RL006"]

    def test_narrow_handler_that_acts_passes(self, tmp_path):
        source = (
            "def guard(task):\n"
            "    try:\n"
            "        task()\n"
            "    except ValueError:\n"
            "        return False\n"
            "    return True\n"
        )
        report = lint_snippet(tmp_path, "repro/engine/guard.py", source)
        assert report.diagnostics == []


class TestReplicationSeam:
    """RL007: sockets in the transport layer, file writes through the seam."""

    def test_socket_use_in_replica_server_is_exempt(self, tmp_path):
        source = (
            "import socket\n\n\n"
            "class ReplicaServer:\n"
            "    def listen(self, host, port):\n"
            "        return socket.create_server((host, port))\n"
        )
        report = lint_snippet(tmp_path, "repro/api/replication.py", source)
        assert report.diagnostics == []

    def test_recv_helpers_live_in_the_wire_module(self, tmp_path):
        source = (
            "import socket\n\n\n"
            "def recv_exact(connection: socket.socket, count):\n"
            "    return connection.recv(count)\n"
        )
        assert lint_snippet(tmp_path, "repro/wire.py", source).diagnostics == []
        report = lint_snippet(tmp_path, "repro/api/replication.py", source)
        assert codes_of(report) == ["RL007"]

    def test_raw_file_write_is_flagged(self, tmp_path):
        source = "import os\n\n\ndef commit(path):\n    os.replace(path, path)\n"
        report = lint_snippet(tmp_path, "repro/api/replication.py", source)
        assert codes_of(report) == ["RL007"]

    def test_seam_receiver_write_passes(self, tmp_path):
        source = "def commit(self, path, data):\n    self._fs.write_file(path, data)\n"
        report = lint_snippet(tmp_path, "repro/api/replication.py", source)
        assert report.diagnostics == []

    def test_read_only_open_is_allowed_write_open_is_not(self, tmp_path):
        reader = 'def load(path):\n    with open(path, "rb") as handle:\n        return handle\n'
        writer = 'def dump(path):\n    with open(path, "wb") as handle:\n        return handle\n'
        assert lint_snippet(tmp_path, "repro/api/replication.py", reader).diagnostics == []
        report = lint_snippet(tmp_path, "repro/api/replication.py", writer)
        assert codes_of(report) == ["RL007"]

    def test_other_api_modules_are_out_of_scope(self, tmp_path):
        fixture = RULE_FIXTURES["RL007"]
        report = lint_snippet(tmp_path, "repro/api/serving.py", fixture["bad"])
        assert report.diagnostics == []

    def test_wire_client_and_readers_are_exempt(self, tmp_path):
        source = (
            "import socket\n\n\n"
            "class Connection:\n"
            "    def _connect(self, address):\n"
            "        return socket.create_connection(address)\n\n\n"
            "def recv_exact(connection: socket.socket, count):\n"
            "    return connection.recv(count)\n\n\n"
            "def recv_frame(connection: socket.socket, codec):\n"
            "    return recv_exact(connection, 8)\n"
        )
        report = lint_snippet(tmp_path, "repro/wire.py", source)
        assert report.diagnostics == []

    def test_other_top_level_modules_are_out_of_scope(self, tmp_path):
        fixture = RULE_FIXTURES["RL007"]
        report = lint_snippet(tmp_path, "repro/cli.py", fixture["bad"])
        assert report.diagnostics == []

    def test_stray_socket_use_in_server_is_flagged(self, tmp_path):
        fixture = RULE_FIXTURES["RL007"]
        report = lint_snippet(tmp_path, "repro/api/server.py", fixture["bad"])
        assert codes_of(report) == ["RL007"]

    def test_transport_scopes_are_per_file(self, tmp_path):
        # Connection is a wire.py scope and ReplicaServer a replication.py
        # one; elsewhere the same class name buys no exemption, and
        # server.py has no socket scope at all.
        client = (
            "import socket\n\n\n"
            "class Connection:\n"
            "    def connect(self, address):\n"
            "        return socket.create_connection(address)\n"
        )
        listener = (
            "import socket\n\n\n"
            "class ReplicaServer:\n"
            "    def listen(self, host, port):\n"
            "        return socket.create_server((host, port))\n"
        )
        remote = client.replace("Connection", "RemoteDatabase")
        assert codes_of(lint_snippet(tmp_path, "repro/api/replication.py", client)) == ["RL007"]
        assert codes_of(lint_snippet(tmp_path, "repro/api/server.py", client)) == ["RL007"]
        assert codes_of(lint_snippet(tmp_path, "repro/api/server.py", remote)) == ["RL007"]
        assert codes_of(lint_snippet(tmp_path, "repro/wire.py", listener)) == ["RL007"]


class TestMetaDiagnostics:
    """RL000: problems with the lint pass itself."""

    def test_unknown_rule_code_in_suppression(self, tmp_path):
        source = "# repro-lint: disable=RL999 -- no such rule\nVALUE = 1\n"
        report = lint_snippet(tmp_path, "repro/engine/config.py", source)
        assert codes_of(report) == [META_CODE]
        (diagnostic,) = report.diagnostics
        assert "RL999" in diagnostic.message

    def test_meta_code_itself_cannot_be_suppressed(self, tmp_path):
        # disable=RL000 is not a registered rule code, so the comment is
        # itself reported rather than silencing anything.
        source = "# repro-lint: disable=RL000 -- nice try\nVALUE = 1\n"
        report = lint_snippet(tmp_path, "repro/engine/config.py", source)
        assert codes_of(report) == [META_CODE]

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/engine/broken.py", "def broken(:\n")
        assert codes_of(report) == [META_CODE]
        assert "does not parse" in report.diagnostics[0].message

    def test_suppression_inside_string_literal_is_ignored(self, tmp_path):
        source = 'MESSAGE = "# repro-lint: disable=RL001 -- not a comment"\n'
        report = lint_snippet(tmp_path, "repro/engine/config.py", source)
        assert report.diagnostics == []
        assert report.suppressed == 0


class TestBinaryCodecConfinement:
    """RL008: raw struct packing stays in the codec modules."""

    CODEC_SOURCE = (
        "import struct\n\n\n"
        "def encode(value):\n"
        "    return struct.pack('<I', value)\n"
    )

    @pytest.mark.parametrize(
        "relative",
        [
            "repro/wire.py",
            "repro/storage/wal.py",
            "repro/storage/pages.py",
        ],
    )
    def test_codec_modules_are_exempt(self, tmp_path, relative):
        report = lint_snippet(tmp_path, relative, self.CODEC_SOURCE, select=["RL008"])
        assert report.diagnostics == []

    @pytest.mark.parametrize("relative", ["repro/api/replication.py", "repro/api/server.py"])
    def test_wire_speaking_api_modules_are_covered(self, tmp_path, relative):
        report = lint_snippet(tmp_path, relative, self.CODEC_SOURCE, select=["RL008"])
        assert codes_of(report) == ["RL008", "RL008"]

    def test_same_name_outside_repro_is_ignored(self, tmp_path):
        report = lint_snippet(tmp_path, "scripts/framing.py", self.CODEC_SOURCE)
        assert report.diagnostics == []

    def test_import_and_every_use_are_flagged(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/engine/framing.py", self.CODEC_SOURCE)
        assert codes_of(report) == ["RL008", "RL008"]
        assert [d.line for d in report.diagnostics] == [1, 5]

    def test_from_import_is_flagged(self, tmp_path):
        source = "from struct import pack\n\n\ndef encode(value):\n    return pack('<I', value)\n"
        report = lint_snippet(tmp_path, "repro/engine/framing.py", source)
        assert codes_of(report) == ["RL008"]

    def test_non_codec_storage_module_is_covered(self, tmp_path):
        report = lint_snippet(tmp_path, "repro/storage/disk.py", self.CODEC_SOURCE)
        assert codes_of(report) == ["RL008", "RL008"]
