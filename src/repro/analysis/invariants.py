"""The repository's invariant rules (RL001-RL008).

Each rule encodes a convention the codebase depends on but no stock tool
enforces; every one of them has been violated at least once and caught
only in review (see the PR 4/5 review-hardening notes in CHANGES.md).
The rules are deliberately approximate — they reason about names and
source order, not types or data flow — because the conventions they
guard are *textual* disciplines: the reviewer's eye they replace also
worked line by line.  Intentional exceptions carry a justified
``# repro-lint: disable=...`` suppression instead of weakening a rule.
"""

from __future__ import annotations

import ast
from pathlib import PurePath
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.rules import (
    Rule,
    adjacent_parts as _adjacent,
    annotation_mentions,
    dotted_name,
    function_nodes,
    register_rule,
    terminal_name,
)


def _in_repro(path: PurePath) -> bool:
    return "repro" in path.parts


def _repro_module(path: PurePath) -> str:
    """The path below the innermost ``repro`` directory (``"api/server.py"``)."""
    parts = path.parts
    if "repro" not in parts:
        return ""
    return "/".join(parts[len(parts) - parts[::-1].index("repro") :])


# ----------------------------------------------------------------------
# RL001: seam discipline in the durability-critical modules
# ----------------------------------------------------------------------
@register_rule
class SeamDisciplineRule(Rule):
    """Durability-critical file operations must flow through ``FileSystem``.

    ``FaultyFS`` (tests/conftest.py) substitutes the seam to enumerate
    crash points; a raw ``os.replace`` / ``shutil.rmtree`` / ``open(...,
    "w")`` in ``storage/`` or in ``api/durability.py`` / ``api/sharding.py``
    is invisible to fault injection, so the crash-recovery suite silently
    stops covering it.  Only the ``FileSystem`` class itself (the
    ``REAL_FS`` implementation) may touch the real calls.
    """

    code = "RL001"
    name = "seam-discipline"
    description = (
        "file operations in storage/ and api/durability.py|sharding.py must "
        "go through the FileSystem seam so FaultyFS can enumerate crash points"
    )

    _OS_FUNCTIONS = frozenset(
        {
            "replace",
            "rename",
            "fsync",
            "fdatasync",
            "remove",
            "unlink",
            "truncate",
            "ftruncate",
            "rmdir",
            "mkdir",
            "makedirs",
        }
    )
    _SHUTIL_FUNCTIONS = frozenset({"rmtree", "move", "copy", "copy2", "copyfile", "copytree"})
    _PATH_METHODS = frozenset({"write_text", "write_bytes", "unlink", "touch", "rmdir", "mkdir"})
    #: Receivers that *are* the seam: ``fs.mkdir(...)``, ``self._fs.replace``.
    _SEAM_RECEIVERS = frozenset({"fs", "_fs", "REAL_FS"})

    def applies_to(self, path: PurePath) -> bool:
        parts = path.parts
        if _adjacent(parts, "repro", "storage"):
            return True
        return _adjacent(parts, "repro", "api") and path.name in {
            "durability.py",
            "executor.py",
            "server.py",
            "sharding.py",
        }

    def check(self, tree: ast.Module, path: PurePath) -> List[Diagnostic]:
        diagnostics: List[Diagnostic] = []
        rule = self

        class Visitor(ast.NodeVisitor):
            def visit_ClassDef(self, node: ast.ClassDef) -> None:
                if node.name == "FileSystem":
                    return  # the seam implementation itself
                self.generic_visit(node)

            def visit_Attribute(self, node: ast.Attribute) -> None:
                dotted = dotted_name(node)
                root, _, attr = dotted.partition(".")
                if root == "os" and attr in rule._OS_FUNCTIONS:
                    diagnostics.append(rule._flag(path, node, dotted))
                elif root == "shutil" and attr in rule._SHUTIL_FUNCTIONS:
                    diagnostics.append(rule._flag(path, node, dotted))
                self.generic_visit(node)

            def visit_Call(self, node: ast.Call) -> None:
                if isinstance(node.func, ast.Name) and node.func.id == "open":
                    if not rule._is_read_only_open(node):
                        diagnostics.append(rule._flag(path, node, "open"))
                elif isinstance(node.func, ast.Attribute):
                    attr = node.func.attr
                    receiver = terminal_name(node.func.value)
                    if attr in rule._PATH_METHODS and receiver not in rule._SEAM_RECEIVERS:
                        diagnostics.append(rule._flag(path, node, f"{receiver}.{attr}"))
                self.generic_visit(node)

        Visitor().visit(tree)
        return diagnostics

    @staticmethod
    def _is_read_only_open(node: ast.Call) -> bool:
        """``open(path)`` and ``open(path, "rb")`` are reads; writes are not."""
        mode = None
        if len(node.args) >= 2:
            mode = node.args[1]
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        if mode is None:
            return True
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return set(mode.value) <= set("rbt")
        return False

    def _flag(self, path: PurePath, node: ast.AST, operation: str) -> Diagnostic:
        return self.diagnostic(
            path,
            node,
            f"raw file operation '{operation}' outside the FileSystem seam; "
            "route it through the fs parameter so FaultyFS covers it",
        )


# ----------------------------------------------------------------------
# RL002: capability gating of optional backend operations
# ----------------------------------------------------------------------
@register_rule
class CapabilityGatingRule(Rule):
    """Optional operations on protocol-typed backends must be gated.

    ``delete_bulk`` / ``save`` / ``snapshot`` / ``reorganize`` are
    advertised per backend through :class:`~repro.api.protocol.Capabilities`;
    calling one on a value typed only as ``SpatialBackend`` without first
    consulting ``capabilities.supports_*`` (or ``capabilities.require``)
    turns a contract violation into a late ``UnsupportedOperation`` deep
    inside serving code.  Deliberate pass-throughs carry a suppression.
    """

    code = "RL002"
    name = "capability-gating"
    description = (
        "delete_bulk/save/snapshot/reorganize on a SpatialBackend-typed value "
        "must be dominated by a capabilities.supports_* check"
    )

    #: Operation name -> the capability that must be consulted first.
    _OPS: Dict[str, str] = {
        "delete_bulk": "delete_bulk",
        "save": "persistence",
        "snapshot": "persistence",
        "reorganize": "reorganization",
    }

    def applies_to(self, path: PurePath) -> bool:
        return _in_repro(path)

    def check(self, tree: ast.Module, path: PurePath) -> List[Diagnostic]:
        diagnostics: List[Diagnostic] = []
        for scope, self_attrs in self._scopes(tree):
            self._check_scope(scope, self_attrs, path, diagnostics)
        return diagnostics

    # -- scope discovery ------------------------------------------------
    def _scopes(
        self, tree: ast.Module
    ) -> "List[Tuple[ast.FunctionDef | ast.AsyncFunctionDef, FrozenSet[str]]]":
        """Top-level checking scopes: methods (with their class's protocol
        attributes) and module-level functions."""
        scopes: "List[Tuple[ast.FunctionDef | ast.AsyncFunctionDef, FrozenSet[str]]]" = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append((node, frozenset()))
            elif isinstance(node, ast.ClassDef):
                attrs = frozenset(self._protocol_attributes(node))
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        scopes.append((member, attrs))
        return scopes

    @staticmethod
    def _protocol_params(fn: "ast.FunctionDef | ast.AsyncFunctionDef") -> Set[str]:
        params = list(fn.args.posonlyargs) + list(fn.args.args) + list(fn.args.kwonlyargs)
        return {
            arg.arg for arg in params if annotation_mentions(arg.annotation, "SpatialBackend")
        }

    def _protocol_attributes(self, cls: ast.ClassDef) -> Set[str]:
        """``self.X`` attributes bound to SpatialBackend-typed parameters."""
        attrs: Set[str] = set()
        for member in cls.body:
            if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if member.name != "__init__":
                continue
            params = self._protocol_params(member)
            for node in ast.walk(member):
                if not isinstance(node, ast.Assign):
                    continue
                if not (isinstance(node.value, ast.Name) and node.value.id in params):
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        attrs.add(target.attr)
        return attrs

    # -- per-scope analysis --------------------------------------------
    def _check_scope(
        self,
        fn: "ast.FunctionDef | ast.AsyncFunctionDef",
        self_attrs: FrozenSet[str],
        path: PurePath,
        diagnostics: List[Diagnostic],
    ) -> None:
        receivers = self._protocol_params(fn)
        for node in ast.walk(fn):
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if annotation_mentions(node.annotation, "SpatialBackend"):
                    receivers.add(node.target.id)
        guards = self._guards(fn)
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            operation = node.func.attr
            capability = self._OPS.get(operation)
            if capability is None:
                continue
            if not self._is_protocol_receiver(node.func.value, receivers, self_attrs):
                continue
            if any(line <= node.lineno and cap in (capability, "*") for line, cap in guards):
                continue
            diagnostics.append(
                self.diagnostic(
                    path,
                    node,
                    f"'{operation}' on a protocol-typed backend without a "
                    f"preceding capabilities.supports_{capability} check "
                    "(or capabilities.require)",
                )
            )

    @staticmethod
    def _guards(fn: "ast.FunctionDef | ast.AsyncFunctionDef") -> List[Tuple[int, str]]:
        """(line, capability) pairs for every capability consultation."""
        guards: List[Tuple[int, str]] = []
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and node.attr.startswith("supports_"):
                guards.append((node.lineno, node.attr[len("supports_") :]))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "require"
            ):
                if node.args and isinstance(node.args[0], ast.Constant):
                    guards.append((node.lineno, str(node.args[0].value)))
                else:
                    guards.append((node.lineno, "*"))
        return guards

    @staticmethod
    def _is_protocol_receiver(
        receiver: ast.AST, names: Set[str], self_attrs: FrozenSet[str]
    ) -> bool:
        if isinstance(receiver, ast.Name):
            return receiver.id in names
        if isinstance(receiver, ast.Attribute) and isinstance(receiver.value, ast.Name):
            return receiver.value.id == "self" and receiver.attr in self_attrs
        return False


# ----------------------------------------------------------------------
# RL003: no isinstance probing of concrete backends
# ----------------------------------------------------------------------
@register_rule
class NoIsinstanceProbingRule(Rule):
    """Dispatch on capabilities, not on concrete backend classes.

    ``isinstance(backend, AdaptiveClusteringIndex)`` couples call sites to
    one implementation and silently excludes every other backend that
    advertises the same capability.  The registry (which *defines* the
    concrete classes), test code, ``assert isinstance(...)`` narrowing,
    and the api-layer composites dispatching among themselves are exempt.
    """

    code = "RL003"
    name = "no-isinstance-probing"
    description = (
        "no isinstance(x, <concrete backend>) outside the registry and tests; "
        "dispatch through capabilities instead"
    )

    _BACKEND_CLASSES = frozenset(
        {
            "AdaptiveClusteringIndex",
            "SequentialScan",
            "RStarTree",
            "ShardedDatabase",
            "DurableBackend",
            "ReplicatedBackend",
        }
    )
    #: The api-layer composites may structurally dispatch on each other
    #: (e.g. DurableBackend fanning its WAL out per shard).
    _COMPOSITES = frozenset({"ShardedDatabase", "DurableBackend", "ReplicatedBackend"})

    def applies_to(self, path: PurePath) -> bool:
        if "tests" in path.parts or path.name.startswith("test_"):
            return False
        return path.name != "registry.py"

    def check(self, tree: ast.Module, path: PurePath) -> List[Diagnostic]:
        in_api = _adjacent(path.parts, "repro", "api")
        asserted: Set[ast.Call] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                for sub in ast.walk(node):
                    if self._is_isinstance(sub):
                        asserted.add(sub)
        diagnostics: List[Diagnostic] = []
        for node in ast.walk(tree):
            if not self._is_isinstance(node) or node in asserted:
                continue
            for class_name in self._probed_classes(node):
                if class_name not in self._BACKEND_CLASSES:
                    continue
                if in_api and class_name in self._COMPOSITES:
                    continue
                diagnostics.append(
                    self.diagnostic(
                        path,
                        node,
                        f"isinstance probe of concrete backend '{class_name}'; "
                        "dispatch through capabilities or the registry instead",
                    )
                )
        return diagnostics

    @staticmethod
    def _is_isinstance(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        )

    @staticmethod
    def _probed_classes(node: ast.Call) -> List[str]:
        target = node.args[1]
        candidates = list(target.elts) if isinstance(target, ast.Tuple) else [target]
        names = [terminal_name(candidate) for candidate in candidates]
        return [name for name in names if name]


# ----------------------------------------------------------------------
# RL004: determinism of measured paths
# ----------------------------------------------------------------------
@register_rule
class DeterminismRule(Rule):
    """No wall clocks or unseeded randomness inside ``src/repro``.

    Experiments must replay bit-identically from a seed: randomness goes
    through ``np.random.default_rng(seed)`` / ``random.Random(seed)`` and
    time through ``time.perf_counter`` or an injected clock.  The legacy
    global ``random`` / ``np.random`` APIs share hidden mutable state, and
    ``time.time()`` / ``datetime.now()`` read the wall clock.
    """

    code = "RL004"
    name = "determinism"
    description = (
        "no unseeded random / legacy np.random API and no wall-clock reads "
        "(time.time, datetime.now) in src/repro; inject clocks and seed rngs"
    )

    _WALL_CLOCKS = frozenset({"time.time", "time.time_ns"})
    _DATETIME_READS = frozenset({"now", "utcnow", "today"})
    #: Constructors of the seedable, modern numpy random API.
    _NP_RANDOM_ALLOWED = frozenset(
        {
            "default_rng",
            "Generator",
            "SeedSequence",
            "RandomState",
            "BitGenerator",
            "PCG64",
            "MT19937",
            "Philox",
            "SFC64",
        }
    )

    def applies_to(self, path: PurePath) -> bool:
        return _in_repro(path)

    def check(self, tree: ast.Module, path: PurePath) -> List[Diagnostic]:
        diagnostics: List[Diagnostic] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            dotted = dotted_name(node)
            message = self._violation(dotted)
            if message is not None:
                diagnostics.append(self.diagnostic(path, node, message))
        return diagnostics

    def _violation(self, dotted: str) -> "str | None":
        if dotted in self._WALL_CLOCKS:
            return f"wall-clock read '{dotted}'; use time.perf_counter or the injected clock"
        parts = dotted.split(".")
        if parts[0] == "datetime" and parts[-1] in self._DATETIME_READS and len(parts) >= 2:
            return f"wall-clock read '{dotted}'; measured paths must use an injected clock"
        if parts[0] == "random" and len(parts) == 2 and parts[1] != "Random":
            return (
                f"global random API '{dotted}' shares hidden state; "
                "construct random.Random(seed) instead"
            )
        if (
            parts[0] in {"np", "numpy"}
            and len(parts) == 3
            and parts[1] == "random"
            and parts[2] not in self._NP_RANDOM_ALLOWED
        ):
            return (
                f"legacy numpy random API '{dotted}'; "
                "use np.random.default_rng(seed) instead"
            )
        return None


# ----------------------------------------------------------------------
# RL005: fsync before acknowledgement
# ----------------------------------------------------------------------
@register_rule
class FsyncBeforeAckRule(Rule):
    """A future may resolve only after the group-commit barrier.

    In the serving tick, ``group_commit`` defers the WAL fsync to the end
    of its ``with`` block; resolving a client future inside (or before)
    that block acknowledges a mutation that a crash could still lose.
    Resolutions must be collected and delivered after the block exits —
    the deferred-resolution pattern ``_process_tick`` uses.
    """

    code = "RL005"
    name = "fsync-before-ack"
    description = (
        "in api/serving.py and api/durability.py, Future.set_result/"
        "set_exception may not run inside or before the group_commit barrier "
        "of the same function"
    )

    def applies_to(self, path: PurePath) -> bool:
        parts = path.parts
        return _adjacent(parts, "repro", "api") and path.name in {
            "serving.py",
            "durability.py",
            "replication.py",
        }

    def check(self, tree: ast.Module, path: PurePath) -> List[Diagnostic]:
        diagnostics: List[Diagnostic] = []
        for fn in function_nodes(tree):
            barrier_end = self._barrier_end(fn)
            if barrier_end == 0:
                continue
            for node in ast.walk(fn):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in {"set_result", "set_exception"}
                    and node.lineno <= barrier_end
                ):
                    diagnostics.append(
                        self.diagnostic(
                            path,
                            node,
                            f"'{node.func.attr}' inside/before the group_commit "
                            "barrier acknowledges an unsynced mutation; defer "
                            "the resolution until the barrier block exits",
                        )
                    )
        # A nested function can be visited through its enclosing scope too.
        return list(dict.fromkeys(diagnostics))

    def _barrier_end(self, fn: "ast.FunctionDef | ast.AsyncFunctionDef") -> int:
        aliases: Set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and self._mentions_group_commit(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        aliases.add(target.id)
        barrier_end = 0
        for node in ast.walk(fn):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    expr = item.context_expr
                    is_barrier = self._mentions_group_commit(expr) or (
                        isinstance(expr, ast.Call)
                        and isinstance(expr.func, ast.Name)
                        and expr.func.id in aliases
                    )
                    if is_barrier:
                        barrier_end = max(barrier_end, node.end_lineno or node.lineno)
            elif isinstance(node, ast.Call) and terminal_name(node.func) == "group_commit":
                barrier_end = max(barrier_end, node.lineno)
        return barrier_end

    @staticmethod
    def _mentions_group_commit(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Name, ast.Attribute)):
                if terminal_name(sub) == "group_commit":
                    return True
            elif isinstance(sub, ast.Constant):
                if isinstance(sub.value, str) and sub.value == "group_commit":
                    return True
        return False


# ----------------------------------------------------------------------
# RL006: exception hygiene
# ----------------------------------------------------------------------
@register_rule
class ExceptionHygieneRule(Rule):
    """No bare ``except:`` and no silently-passing handlers in src/repro.

    A bare ``except:`` catches ``KeyboardInterrupt`` and ``SystemExit``;
    an ``except ...: pass`` swallows the failure the durability machinery
    exists to surface.  Handle the narrowest exception and either act on
    it or let it propagate.
    """

    code = "RL006"
    name = "exception-hygiene"
    description = "no bare 'except:' and no 'except ...: pass' handlers in src/repro"

    def applies_to(self, path: PurePath) -> bool:
        return _in_repro(path)

    def check(self, tree: ast.Module, path: PurePath) -> List[Diagnostic]:
        diagnostics: List[Diagnostic] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                diagnostics.append(
                    self.diagnostic(
                        path,
                        node,
                        "bare 'except:' catches KeyboardInterrupt/SystemExit; "
                        "name the exceptions this handler is for",
                    )
                )
            if len(node.body) == 1 and isinstance(node.body[0], ast.Pass):
                diagnostics.append(
                    self.diagnostic(
                        path,
                        node,
                        "handler silently swallows the exception; act on it "
                        "or let it propagate",
                    )
                )
        return diagnostics


# ----------------------------------------------------------------------
# RL007: replication seam discipline
# ----------------------------------------------------------------------
@register_rule
class ReplicationSeamRule(Rule):
    """Wire I/O is confined to the wire module and the FileSystem seam.

    The wire-speaking modules touch two worlds the fault harness must be
    able to interpose on: the *wire* (sockets) and the *disk* (replica
    directories).  Raw socket calls are allowed only in the transport
    layer: in ``wire.py`` the blocking :class:`Connection` client and the
    ``recv_exact`` / ``recv_frame`` readers, in ``api/replication.py``
    the listening :class:`ReplicaServer`; ``api/server.py`` has no socket
    scope (its server speaks asyncio streams, its client is a
    ``Connection``) — so every other component stays transport-agnostic
    and testable in process.  Durability-critical file *writes* must flow
    through the ``FileSystem`` seam exactly as in the durability layer
    (RL001); a raw write would be invisible to ``FaultyFS`` and silently
    escape the crash-point enumeration of the fault suites.
    """

    code = "RL007"
    name = "replication-seam"
    description = (
        "in wire.py, api/replication.py and api/server.py, raw socket use "
        "is confined to the transport scopes and file writes must go "
        "through the FileSystem seam"
    )

    #: Per module, the transport layer: the only scopes that may touch sockets.
    _SOCKET_SCOPES = {
        "wire.py": frozenset({"Connection", "recv_exact", "recv_frame"}),
        "api/replication.py": frozenset({"ReplicaServer"}),
        "api/server.py": frozenset(),
    }
    _OS_FUNCTIONS = SeamDisciplineRule._OS_FUNCTIONS
    _SHUTIL_FUNCTIONS = SeamDisciplineRule._SHUTIL_FUNCTIONS
    _PATH_METHODS = SeamDisciplineRule._PATH_METHODS
    _SEAM_RECEIVERS = SeamDisciplineRule._SEAM_RECEIVERS

    def applies_to(self, path: PurePath) -> bool:
        return _repro_module(path) in self._SOCKET_SCOPES

    def check(self, tree: ast.Module, path: PurePath) -> List[Diagnostic]:
        scopes = self._SOCKET_SCOPES[_repro_module(path)]
        transport_spans = self._transport_spans(tree, scopes)
        diagnostics: List[Diagnostic] = []
        rule = self

        def in_transport(node: ast.AST) -> bool:
            line = getattr(node, "lineno", 0)
            return any(start <= line <= end for start, end in transport_spans)

        class Visitor(ast.NodeVisitor):
            def visit_Attribute(self, node: ast.Attribute) -> None:
                dotted = dotted_name(node)
                root, _, attr = dotted.partition(".")
                if root == "socket" and not in_transport(node):
                    diagnostics.append(
                        rule.diagnostic(
                            path,
                            node,
                            f"raw socket use '{dotted}' outside the transport "
                            "layer; route peer I/O through repro.wire",
                        )
                    )
                elif root == "os" and attr in rule._OS_FUNCTIONS:
                    diagnostics.append(rule._flag_file(path, node, dotted))
                elif root == "shutil" and attr in rule._SHUTIL_FUNCTIONS:
                    diagnostics.append(rule._flag_file(path, node, dotted))
                self.generic_visit(node)

            def visit_Call(self, node: ast.Call) -> None:
                if isinstance(node.func, ast.Name) and node.func.id == "open":
                    if not SeamDisciplineRule._is_read_only_open(node):
                        diagnostics.append(rule._flag_file(path, node, "open"))
                elif isinstance(node.func, ast.Attribute):
                    attr = node.func.attr
                    receiver = terminal_name(node.func.value)
                    if attr in rule._PATH_METHODS and receiver not in rule._SEAM_RECEIVERS:
                        diagnostics.append(rule._flag_file(path, node, f"{receiver}.{attr}"))
                self.generic_visit(node)

        Visitor().visit(tree)
        return diagnostics

    def _transport_spans(
        self, tree: ast.Module, scopes: "frozenset[str]"
    ) -> List[Tuple[int, int]]:
        spans: List[Tuple[int, int]] = []
        for node in tree.body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name in scopes:
                    spans.append((node.lineno, node.end_lineno or node.lineno))
        return spans

    def _flag_file(self, path: PurePath, node: ast.AST, operation: str) -> Diagnostic:
        return self.diagnostic(
            path,
            node,
            f"raw file operation '{operation}' outside the FileSystem seam; "
            "route it through the fs parameter so FaultyFS covers it",
        )


# ----------------------------------------------------------------------
# RL008: binary packing stays in the codec modules
# ----------------------------------------------------------------------
@register_rule
class BinaryCodecConfinementRule(Rule):
    """Raw ``struct`` packing is confined to the binary codec modules.

    The binary formats each live in exactly one module — the frame and
    message codec of the WAL, the replication wire and the serving wire
    in ``wire.py``, the WAL record bodies in ``storage/wal.py``, the
    page/superblock codec in ``storage/pages.py``.  Every byte layout has
    a version field, a CRC discipline and a reader that tolerates torn
    tails; a ``struct.pack`` sprinkled anywhere else creates a second,
    unversioned format that recovery and repair cannot validate.  Modules
    outside the allowlist compose the codecs instead of packing bytes
    themselves.
    """

    code = "RL008"
    name = "binary-codec-confinement"
    description = (
        "raw struct packing/unpacking is confined to the binary codec "
        "modules (wire.py, storage/wal.py, storage/pages.py); everything "
        "else composes their encode/decode functions"
    )

    #: Modules (below ``repro/``) that own a binary format.
    _CODEC_MODULES = frozenset({"wire.py", "storage/wal.py", "storage/pages.py"})

    def applies_to(self, path: PurePath) -> bool:
        return _in_repro(path) and _repro_module(path) not in self._CODEC_MODULES

    def check(self, tree: ast.Module, path: PurePath) -> List[Diagnostic]:
        diagnostics: List[Diagnostic] = []
        rule = self

        class Visitor(ast.NodeVisitor):
            def visit_Import(self, node: ast.Import) -> None:
                for alias in node.names:
                    if alias.name == "struct" or alias.name.startswith("struct."):
                        diagnostics.append(rule._flag(path, node, "import struct"))
                self.generic_visit(node)

            def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
                if node.module == "struct":
                    diagnostics.append(rule._flag(path, node, "from struct import ..."))
                self.generic_visit(node)

            def visit_Attribute(self, node: ast.Attribute) -> None:
                dotted = dotted_name(node)
                if dotted.partition(".")[0] == "struct":
                    diagnostics.append(rule._flag(path, node, dotted))
                self.generic_visit(node)

        Visitor().visit(tree)
        return diagnostics

    def _flag(self, path: PurePath, node: ast.AST, operation: str) -> Diagnostic:
        return self.diagnostic(
            path,
            node,
            f"raw binary packing ({operation!r}) outside the codec modules; "
            "give the byte layout a home in a codec module (wire.py, "
            "storage/pages.py, storage/wal.py) and compose its encode/decode "
            "functions here",
        )
