"""The untrusted service: reads tree proofs, drives the module, persists.

Every mutation pipeline runs under the service lock in one sqlite
transaction: it writes each tree edit and keeps the complement path that the
write returned.  ``Service._apply`` then hands the edited leaf and its path
to the module, which folds them itself, and stores the container record the
module seals; it is the only place the sealed root moves.  A handler returns
the module's ``UpdateResult`` as it is.  Any refusal raises, so the
transaction rolls back and the store never holds state it cannot re-prove.
A modify writes its content blobs before the module is asked, once they match
the request's content digest, so a failed blob write refuses the request
instead of following an acceptance the transaction can no longer undo.  The
service cannot check a signature, so a refused MODIFY's blobs are removed
with its rollback, all but those that were stored before it.

A query or write hands the module raw tree reads: the leaf that holds or
encloses an index and its complement path, which the module folds itself.
Evidence is keyed by the root it proves.  A container proof is cached under
the module root it was read under, so every root move retires it.  A
container's ACL tree is rebuilt in memory from its leaf rows and cached as a
read-only view under the ACL root its sealed record names; ACL proofs are
cached under the ACL root they prove, which container-tree writes leave
alone, so containers sharing an ACL share its view and proofs.  An ACL edit
rebuilds its own tree from the rows and writes the leaves back; its new root
is simply a new key.  The cache holds at most ``CACHE_ENTRIES`` entries.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from .iomt import Iomt, Leaf, TreeFullError, counter_digest, counter_value, leaf_digest
from .merkle import ZERO_DIGEST
from .module import (
    ContainerRecord,
    RecordProof,
    RequestEnvelope,
    RequestKind,
    TrustedModule,
    UpdateResult,
    VerifyResponse,
    VersionRecord,
)
from .storage import (
    ACL_HEIGHT,
    BlobSet,
    Storage,
    bulk_prepopulate,
    check_height,
    content_digest,
    initial_acl_leaf,
)

# Room for every ACL root in use and its callers' proofs; proofs for absent
# indices and retired container roots age out instead of piling up.
CACHE_ENTRIES = 1024


class ProtocolError(Exception):
    """Malformed request or evidence the service cannot assemble.

    Distinct from an authenticated denial: denials are module-tagged
    answers, protocol errors are not, so an error carries its message only.
    """


class _Rejected(Exception):
    """Internal: module said no; unwind the transaction, then report None."""


# The step labels each ``handle_*`` records, in the order an accepted request
# first records them (a refused one records a prefix).  The benchmarks read
# these names, so ``certificates`` and ``eq_certificate`` keep the names of the
# certificates they once made.
STEPS = {
    "create": ("record_lookup", "eq_certificate", "root_update", "persist_records"),
    "modify": ("record_lookup", "content_digest", "certificates", "root_update", "persist_records"),
    "acl_set": ("record_lookup", "certificates", "root_update", "persist_records"),
    "info": ("record_lookup", "certificates", "module_verify"),
    "fetch": ("record_lookup", "certificates", "module_verify"),
}


class StepClock:
    """Accumulates per-step service time for one operation, under the
    labels of :data:`STEPS`.

    Uses the monotonic wall clock: the benchmark drives the service as a
    single uncontended in-process caller, where wall time tracks service
    work, and process CPU clocks tick far too coarsely inside containers to
    resolve microsecond steps.
    """

    now = staticmethod(time.perf_counter_ns)

    def __init__(self) -> None:
        self.steps: dict[str, int] = {}

    def step(self, label: str) -> "_Step":
        return _Step(self.steps, label)


class _Step:
    """One timed step of a :class:`StepClock`: adds its time to ``steps[label]`` on exit."""

    __slots__ = ("steps", "label", "start")

    def __init__(self, steps: dict[str, int], label: str) -> None:
        self.steps, self.label = steps, label

    def __enter__(self) -> None:
        self.start = StepClock.now()

    def __exit__(self, *exc_info) -> None:
        self.steps[self.label] = self.steps.get(self.label, 0) + StepClock.now() - self.start


class CertCache:
    """Bounded cache of evidence, each entry tagged with the root it proves.

    An entry is served only to a lookup naming that same root as ``epoch``.
    Past ``CACHE_ENTRIES`` the least recently used entry is dropped, so
    entries for retired roots age out and no stream of distinct queries can
    grow it further.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict[tuple, object] = OrderedDict()

    def get(self, key: tuple, epoch: bytes) -> Optional[object]:
        entry = self._entries.get((epoch, key))
        if entry is not None:
            self._entries.move_to_end((epoch, key))
        return entry

    def put(self, key: tuple, epoch: bytes, entry: object) -> None:
        self._entries[(epoch, key)] = entry
        if len(self._entries) > CACHE_ENTRIES:
            self._entries.popitem(last=False)


@dataclass(frozen=True)
class InfoResult:
    response: VerifyResponse
    hints: Optional[dict] = None


@dataclass(frozen=True)
class FetchResult:
    """A verified answer; the content fields are set only for a full response."""

    response: VerifyResponse
    blobs: Optional[BlobSet] = None
    secret_commitment: Optional[bytes] = None


@dataclass(frozen=True)
class _Answer:
    """The module's answer to a query, and the version row and ACL view it was given."""

    response: VerifyResponse
    version_row: Optional[VersionRecord]
    acl: Optional[Iomt]  # the container's ACL view, loaded when the record exists


class Service:
    """Request pipelines over one storage instance and one trusted module.

    All module interactions and store accesses funnel through one lock, so
    pipelines execute in a total order; concurrent wire handlers simply
    queue.  The storage has no lock of its own and relies on this one.
    The service is untrusted, so a client signs nothing it says unless the
    module attested it: the ACL rows hinted beside a full INFO answer must
    rebuild to the ACL root that answer attests.  A creation and a new ACL
    grant make the same tree edit, :meth:`Iomt.insert`, on the container tree
    of ``height`` and on an ACL tree of ``storage.ACL_HEIGHT``.
    """

    def __init__(self, storage: Storage, module: TrustedModule, height: int) -> None:
        self.storage = storage
        self.module = module
        self.height = check_height("height", height)
        self._cache = CertCache()
        self._lock = threading.RLock()

    def container_tree(self) -> Iomt:
        return Iomt(self.height, self.storage.tree())

    def acl_tree(self, container_idx: int) -> Iomt:
        """The container's ACL tree, rebuilt in memory from one read of its leaves."""
        return Iomt.from_leaves(ACL_HEIGHT, self.storage.acl_leaves(container_idx))

    def _acl_view(self, record: ContainerRecord) -> Iomt:
        """The ACL tree ``record`` names, shared by every container on its root.

        A view is read-only.  Rows that rebuild to another root are served
        uncached, so the module refuses their proofs as it does any bad proof.
        """
        view = self._cache.get(("acl_view",), record.acl_root)
        if view is None:
            view = self.acl_tree(record.idx)
            if view.root == record.acl_root:
                self._cache.put(("acl_view",), record.acl_root, view)
        return view

    def prepopulate(self, count: int, owner_idx: int, state) -> bytes:
        with self._lock:
            return bulk_prepopulate(self.storage, self.height, count, owner_idx, state)

    # -- proof assembly ---------------------------------------------------------

    @staticmethod
    def _bump_counter(tree: Iomt, slot: int, leaf: Leaf, counter: int) -> list:
        """Write ``leaf`` with value ``counter``; the slot's complement path.

        A caller refused after this must raise :class:`_Rejected` to roll the
        write back.
        """
        return tree.set_leaf(slot, Leaf(leaf.idx, leaf.next_idx, counter_digest(counter)))

    def _record_proof(self, tree: Iomt, idx: int, cache_key: tuple, epoch: bytes) -> RecordProof:
        """The leaf holding ``idx``, or else the leaf enclosing it, and its path.

        ``epoch`` is the tree's root, the root the proof is cached under.
        """
        hit = self._cache.get(cache_key, epoch)
        if hit is not None:
            return hit
        # No encloser: the tree is empty, and absence is read against the zero root.
        slot, leaf = tree.locate(idx) or (0, None)
        proof = (leaf, tree.complement_path(slot))
        self._cache.put(cache_key, epoch, proof)
        return proof

    def _container_proof(self, idx: int) -> RecordProof:
        return self._record_proof(self.container_tree(), idx, ("container", idx), self.module.root)

    def _acl_proof(self, acl: Iomt, user_idx: int) -> RecordProof:
        """``user_idx``'s leaf in ``acl``, or the leaf enclosing it, and its path.

        Cached under the root of the tree it was read from, which is the
        root it proves even when that tree was rebuilt from damaged rows.
        """
        return self._record_proof(acl, user_idx, ("acl", user_idx), acl.root)

    def _hints(self, acl: Iomt) -> dict:
        """The ACL rows a client rebuilds to sign a grant; it checks them
        against the ACL root the module attests beside them."""
        rows = [[slot, leaf.idx, leaf.next_idx, leaf.val.hex()] for slot, leaf in acl.leaves()]
        return {"acl": rows}

    # -- mutation pipelines -------------------------------------------------------

    @contextmanager
    def _mutation(self, clock: StepClock) -> Iterator[Iomt]:
        """Serialize a mutation and group its writes in one transaction.

        Yields the container tree.  A :class:`_Rejected` raised inside rolls
        every write back and ends the block; the handler then returns ``None``.
        """
        with self._lock:
            try:
                with self.storage.transaction(commit_timer=clock.step("persist_records")):
                    yield self.container_tree()
            except _Rejected:
                pass

    def _apply(
        self, req: RequestEnvelope, leaf: Optional[Leaf], path, clock: StepClock, **evidence
    ) -> UpdateResult:
        """Have the module accept ``req`` and store the container record it seals.

        ``leaf`` and ``path`` are the leaf as it was before this request and its
        complement path.  The only place the sealed root moves; a refusal
        raises :class:`_Rejected`.
        """
        with clock.step("root_update"):
            result = self.module.apply_request(req, leaf, path, **evidence)
            if result is None:
                raise _Rejected()
        with clock.step("persist_records"):
            self.storage.record_put(result.record)
        return result

    def _existing(
        self, tree: Iomt, idx: int, clock: StepClock
    ) -> tuple[ContainerRecord, int, Leaf]:
        """The container's sealed record, slot and leaf; refused unless it exists."""
        with clock.step("record_lookup"):
            record = self.storage.record_get(idx)
            found = tree.locate(idx)
            if record is None or found is None or found[1].idx != idx:
                raise _Rejected()
            return (record, *found)

    def handle_create(
        self, req: RequestEnvelope, clock: Optional[StepClock] = None
    ) -> Optional[UpdateResult]:
        """Create a container: its leaf goes in after its encloser, at counter 1.

        The module accepts the relink and the new leaf in one root move.
        Returns ``None`` (store and sealed root untouched) when it rejects.
        """
        if req.kind != RequestKind.ACL or req.counter != 0:
            raise ProtocolError("creation must be an ACL-typed request with counter 0")
        owner = initial_acl_leaf(req.user_idx)
        if leaf_digest(owner) != req.value:  # a one-leaf tree's root is its leaf's digest
            raise ProtocolError("creation request names an unexpected ACL root")
        clock = clock or StepClock()
        with self._mutation(clock) as tree:
            with clock.step("record_lookup"):
                encloser = tree.locate(req.idx)
                if encloser is not None and encloser[1].idx == req.idx:
                    raise _Rejected()  # before any write or module call

            with clock.step("eq_certificate"):
                try:
                    leaf, path, slot_path = tree.insert(req.idx, counter_digest(1), encloser)
                except TreeFullError as exc:
                    raise ProtocolError(str(exc)) from exc

            result = self._apply(req, leaf, path, clock, slot_path=slot_path)
            with clock.step("persist_records"):
                self.storage.acl_put(req.idx, [(0, owner)])
            return result
        return None

    def handle_modify(
        self,
        req: RequestEnvelope,
        blobs: BlobSet,
        wrapped_secret: Optional[bytes] = None,
        secret_commitment: Optional[bytes] = None,
        clock: Optional[StepClock] = None,
    ) -> Optional[UpdateResult]:
        """Store a new version: content blobs, counter bump, version record.

        The blob files are written before the module is asked, so a full disk
        refuses the request instead of splitting the sealed root from the store.
        A request signed at another counter than the leaf holds is one the
        module refuses, so it is refused before its content is hashed or written.
        """
        if req.kind != RequestKind.CONTAINER:
            raise ProtocolError("content updates must be container-typed requests")
        if (wrapped_secret is None) != (secret_commitment is None):
            raise ProtocolError("wrapped secret and commitment must come together")
        clock = clock or StepClock()
        with self._mutation(clock) as tree:
            record, slot, leaf = self._existing(tree, req.idx, clock)
            if counter_value(leaf.val) != req.counter:
                raise _Rejected()

            with clock.step("content_digest"):
                commitment = secret_commitment if secret_commitment is not None else ZERO_DIGEST
                hashes = blobs.hashes()
                if content_digest(hashes, commitment) != req.value:
                    raise ProtocolError("request signature does not cover the supplied content")
                self.storage.blob_put(blobs, hashes)

            with clock.step("certificates"):
                path = self._bump_counter(tree, slot, leaf, record.counter + 1)
                acl_proof = self._acl_proof(self._acl_view(record), req.user_idx)

            result = self._apply(
                req, leaf, path, clock, acl_proof=acl_proof, record=record,
                secret=None if wrapped_secret is None else (wrapped_secret, commitment),
            )
            with clock.step("persist_records"):
                self.storage.version_put(replace(result.version, hashes=hashes))
            return result
        return None

    def handle_acl_set(
        self,
        req: RequestEnvelope,
        target_user: int,
        level: int,
        clock: Optional[StepClock] = None,
    ) -> Optional[UpdateResult]:
        """Change ``target_user``'s access level; requester must hold level 3."""
        if req.kind != RequestKind.ACL:
            raise ProtocolError("ACL changes must be ACL-typed requests")
        if level not in (0, 1, 2, 3):
            raise ProtocolError(f"access level {level} out of range")
        clock = clock or StepClock()
        with self._mutation(clock) as tree:
            record, slot, leaf = self._existing(tree, req.idx, clock)

            with clock.step("certificates"):
                acl = self.acl_tree(req.idx)  # edited below, so never a cached view
                acl_proof = self._acl_proof(acl, req.user_idx)
                path = self._bump_counter(tree, slot, leaf, record.counter + 1)

            with clock.step("root_update"):
                try:
                    new_acl_root = acl.upsert(target_user, counter_digest(level))
                except TreeFullError as exc:
                    raise ProtocolError(str(exc)) from exc
                if new_acl_root != req.value:
                    raise ProtocolError("request signature names a different ACL root: stale view")

            result = self._apply(req, leaf, path, clock, acl_proof=acl_proof, record=record)
            with clock.step("persist_records"):
                self.storage.acl_put(req.idx, acl.leaves())
            return result
        return None

    # -- query pipelines ----------------------------------------------------------

    def handle_info(
        self,
        idx: int,
        requested_version: int,
        nonce: bytes,
        user_idx: int,
        clock: Optional[StepClock] = None,
    ) -> InfoResult:
        """Assemble proofs and relay the module's answer for one query.

        Every reader gets a full response, a container before its first
        version included, so the counter and ACL root a writer signs from
        are always module-attested.  Hints (the ACL rows) ride only
        alongside full responses: never on denials, which must stay
        uninformative, nor on protocol errors.
        """
        clock = clock or StepClock()
        with self._lock:
            answer = self._verified_answer(idx, requested_version, nonce, user_idx, clock)
            hints = None if answer.response.denied else self._hints(answer.acl)
            return InfoResult(answer.response, hints=hints)

    def handle_fetch(
        self,
        idx: int,
        version: int,
        user_idx: int,
        nonce: bytes,
        clock: Optional[StepClock] = None,
    ) -> FetchResult:
        """A verified answer as for :meth:`handle_info`, plus the content.

        Blobs are read, and a stored secret is re-padded for the caller, only
        when the module's answer is a full response; a denial carries nothing
        else, so it looks the same for absent containers and unreadable ones.
        """
        clock = clock or StepClock()
        with self._lock:
            answer = self._verified_answer(idx, version, nonce, user_idx, clock, release=True)
            if answer.response.denied:
                return FetchResult(answer.response)
            # A full response attests the version row, which names the content.
            version_row = answer.version_row
            with clock.step("record_lookup"):
                blobs = self.storage.blob_get(version_row.hashes)
            return FetchResult(answer.response, blobs, version_row.secret_commitment)

    def _verified_answer(
        self, idx, requested_version, nonce, user_idx, clock, release=False
    ) -> _Answer:
        """Look up the rows, read the proofs and ask the module for its answer.

        A version of 0 is resolved here to the latest stored version.  With
        ``release``, the module re-pads the version's sealed secret for the caller.
        """
        with clock.step("record_lookup"):
            record = self.storage.record_get(idx)
            resolved, version_row = requested_version, None
            if record is not None:
                resolved = requested_version or record.version_count
                if 1 <= resolved <= record.version_count:
                    version_row = self.storage.version_get(idx, resolved)

        with clock.step("certificates"):
            container_proof = self._container_proof(idx)
            acl = acl_proof = None
            if record is not None:
                acl = self._acl_view(record)
                acl_proof = self._acl_proof(acl, user_idx)

        with clock.step("module_verify"):
            response = self.module.verify_container(
                user_idx, nonce, idx, resolved, container_proof,
                record=record, acl_proof=acl_proof, version=version_row, release=release,
            )
        if response is None:  # typically an unattestable version number
            raise ProtocolError("no proof exists for the requested version")
        return _Answer(response, version_row, acl)
