"""The untrusted service: assembles certificates, drives the module, persists.

Every mutation pipeline runs under the service lock in one sqlite
transaction: it writes each tree edit and has the module certify the edit
from the complement path that the write returned.  ``Service._apply`` then
asks the module to accept the request and stores the container record the
module seals; it is the only place the sealed root moves.  A handler returns
the module's ``UpdateResult`` as it is.  Any refusal raises, so the
transaction rolls back and the store never holds state it cannot re-prove.
Content blobs are written only after acceptance: the service cannot check a
signature, so writing earlier would store bytes for any peer.

Evidence is keyed by the root it proves.  A container proof is cached under
the module root it was minted under, so every root move retires it.  A
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
from dataclasses import dataclass
from typing import Iterator, Optional

from .iomt import Iomt, Leaf, TreeFullError, counter_digest, counter_value, leaf_digest
from .merkle import ZERO_DIGEST
from .module import (
    Certificate,
    RequestEnvelope,
    RequestKind,
    TrustedModule,
    UpdateResult,
    VerifyResponse,
)
from .storage import (
    BlobSet,
    ContainerRecord,
    Storage,
    VersionRecord,
    bulk_prepopulate,
    content_digest,
    initial_acl_leaf,
)

DEFAULT_ACL_HEIGHT = 8
# Room for every ACL root in use and its callers' proofs; proofs for absent
# indices and retired container roots age out instead of piling up.
CACHE_ENTRIES = 1024


class ProtocolError(Exception):
    """Malformed request or evidence the service cannot assemble.

    Distinct from an authenticated denial: denials are module-tagged
    answers, protocol errors are not.
    """

    def __init__(self, message: str, hints: Optional[dict] = None) -> None:
        super().__init__(message)
        self.hints = hints


class _Rejected(Exception):
    """Internal: module said no; unwind the transaction, then report None."""


class StepClock:
    """Accumulates per-step service time for one operation.

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

    verify: InfoResult
    blobs: Optional[BlobSet] = None
    secret_commitment: Optional[bytes] = None


@dataclass(frozen=True)
class _Answer:
    """The module's answer to a query and the rows it was given."""

    response: VerifyResponse
    record: Optional[ContainerRecord]
    version_row: Optional[VersionRecord]
    acl: Optional[Iomt]  # the container's ACL view, loaded when the record exists


class Service:
    """Request pipelines over one storage instance and one trusted module.

    All module interactions and store accesses funnel through one lock, so
    pipelines execute in a total order; concurrent wire handlers simply
    queue.  The storage has no lock of its own and relies on this one.
    """

    def __init__(
        self,
        storage: Storage,
        module: TrustedModule,
        height: int,
        acl_height: int = DEFAULT_ACL_HEIGHT,
    ) -> None:
        self.storage = storage
        self.module = module
        self.height = height
        self.acl_height = acl_height
        self._cache = CertCache()
        self._lock = threading.RLock()

    def container_tree(self) -> Iomt:
        return Iomt(self.height, self.storage.tree())

    def acl_tree(self, container_idx: int) -> Iomt:
        """The container's ACL tree, rebuilt in memory from one read of its leaves."""
        return Iomt.from_leaves(self.acl_height, self.storage.acl_leaves(container_idx))

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

    def _bump_counter(
        self, tree: Iomt, slot: int, leaf: Leaf, counter: int, path=None
    ) -> Certificate:
        """Write ``leaf`` with value ``counter``; the RU for that write, from its path.

        ``path`` is the slot's complement path if the caller has already read it.
        A caller refused after this must raise :class:`_Rejected` to roll the write back.
        """
        new_val = counter_digest(counter)
        path = tree.set_leaf(slot, Leaf(leaf.idx, leaf.next_idx, new_val), path)
        return self.module.certify_record_update(leaf, new_val, path)

    def _record_proof(
        self, tree: Iomt, idx: int, cache_key: tuple, epoch: bytes
    ) -> Optional[Certificate]:
        """RV for a present index, or the RV of value zero that proves its absence.

        ``epoch`` is the tree's root, the root the proof is cached under.
        """
        hit = self._cache.get(cache_key, epoch)
        if hit is not None:
            return hit
        found, absent_idx = tree.find_leaf(idx), None
        if found is None:
            found, absent_idx = tree.find_encloser(idx), idx
        # No encloser: the tree is empty, and absence is proved against the zero root.
        slot, leaf = found if found is not None else (0, None)
        proof = self.module.certify_record(leaf, tree.complement_path(slot), absent_idx=absent_idx)
        if proof is not None:
            self._cache.put(cache_key, epoch, proof)
        return proof

    def _container_proof(self, idx: int) -> Optional[Certificate]:
        return self._record_proof(self.container_tree(), idx, ("container", idx), self.module.root)

    def _acl_proof(self, acl: Iomt, user_idx: int) -> Optional[Certificate]:
        """RV of ``user_idx``'s level in ``acl``, or of value zero if it has no leaf.

        Cached under the root of the tree it was minted from, which is the
        root it proves even when that tree was rebuilt from damaged rows.
        """
        return self._record_proof(acl, user_idx, ("acl", user_idx), acl.root)

    @staticmethod
    def _access_level(acl: Iomt, user_idx: int) -> int:
        found = acl.find_leaf(user_idx)
        if found is None:
            return 0
        level = counter_value(found[1].val)
        return level if level is not None else 0

    def _hints(self, record: ContainerRecord, acl: Iomt) -> dict:
        return {
            "counter": record.counter,
            "acl_height": self.acl_height,
            "acl": [[slot, leaf.idx, leaf.next_idx, leaf.val.hex()] for slot, leaf in acl.leaves()],
        }

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
        self, req: RequestEnvelope, ru: Certificate, clock: StepClock, **evidence
    ) -> UpdateResult:
        """Have the module accept ``req`` and store the container record it seals.

        The only place the sealed root moves; a refusal raises :class:`_Rejected`.
        """
        with clock.step("root_update"):
            result = self.module.apply_request(req, ru, **evidence)
            if result is None:
                raise _Rejected()
        with clock.step("persist_records"):
            cert = result.record_cert
            self.storage.record_put(ContainerRecord(*cert.values, seal=cert.mac))
        return result

    def _existing(
        self, tree: Iomt, idx: int, clock: StepClock
    ) -> tuple[ContainerRecord, int, Leaf]:
        """The container's sealed record, slot and leaf; refused unless it exists."""
        with clock.step("record_lookup"):
            record = self.storage.record_get(idx)
            found = tree.find_leaf(idx)
            if record is None or found is None:
                raise _Rejected()
            return (record, *found)

    def handle_create(
        self, req: RequestEnvelope, clock: Optional[StepClock] = None
    ) -> Optional[UpdateResult]:
        """Create a container: placeholder insertion, then counter 0 -> 1.

        The module accepts both edits in one root move.  Returns ``None``
        (store and sealed root untouched) when the module rejects.
        """
        if req.kind != RequestKind.ACL or req.counter != 0:
            raise ProtocolError("creation must be an ACL-typed request with counter 0")
        owner = initial_acl_leaf(req.user_idx)
        if leaf_digest(owner) != req.value:  # a one-leaf tree's root is its leaf's digest
            raise ProtocolError("creation request names an unexpected ACL root")
        clock = clock or StepClock()
        with self._mutation(clock) as tree:
            with clock.step("record_lookup"):
                if tree.find_leaf(req.idx) is not None:
                    raise _Rejected()  # before any write or module call

            with clock.step("eq_certificate"):
                try:
                    plan = tree.placeholder_plan(req.idx)
                except TreeFullError as exc:
                    raise ProtocolError(str(exc)) from exc
                enc_path = None
                if plan.encloser_slot is not None:
                    enc_path = tree.set_leaf(plan.encloser_slot, plan.updated_encloser)
                # The placeholder's slot is written once, below, with the
                # created leaf; the equivalence's new root holds the placeholder,
                # so the path read here is still the slot's path at that write.
                placeholder_path = tree.complement_path(plan.placeholder_slot)
                equivalence = self.module.certify_root_equivalence(
                    plan.encloser_leaf, enc_path, req.idx, placeholder_path
                )
                if equivalence is None:
                    raise ProtocolError("module refused the placeholder equivalence proof")

            with clock.step("ru_certificate"):
                ru = self._bump_counter(
                    tree, plan.placeholder_slot, plan.placeholder_leaf, 1, placeholder_path
                )

            result = self._apply(req, ru, clock, equivalence=equivalence)
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
        """Store a new version: counter bump, version record, content blobs.

        The blob files are written only once the module has accepted.
        """
        if req.kind != RequestKind.CONTAINER:
            raise ProtocolError("content updates must be container-typed requests")
        if (wrapped_secret is None) != (secret_commitment is None):
            raise ProtocolError("wrapped secret and commitment must come together")
        clock = clock or StepClock()
        with self._mutation(clock) as tree:
            record, slot, leaf = self._existing(tree, req.idx, clock)

            with clock.step("content_digest"):
                commitment = secret_commitment if secret_commitment is not None else ZERO_DIGEST
                digest = content_digest(blobs.hashes(), commitment)
                if digest != req.value:
                    raise ProtocolError("request signature does not cover the supplied content")

            with clock.step("certificates"):
                ru = self._bump_counter(tree, slot, leaf, record.counter + 1)
                acl_proof = self._acl_proof(self._acl_view(record), req.user_idx)
                if acl_proof is None:
                    raise _Rejected()

            result = self._apply(
                req, ru, clock, acl_proof=acl_proof, record=record.as_certificate(),
                secret=None if wrapped_secret is None else (wrapped_secret, commitment),
            )
            with clock.step("persist_records"):
                self.storage.version_put(
                    VersionRecord(
                        idx=req.idx,
                        version=result.version_cert.values[1],
                        secret_commitment=commitment,
                        wrapped_secret=result.sealed_secret or ZERO_DIGEST,
                        content_digest=digest,
                        seal=result.version_cert.mac,
                        hashes=self.storage.blob_put(blobs),
                    )
                )
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
                ru = self._bump_counter(tree, slot, leaf, record.counter + 1)
                if acl_proof is None:
                    raise _Rejected()

            with clock.step("root_update"):
                try:
                    new_acl_root = acl.upsert(target_user, counter_digest(level))
                except TreeFullError as exc:
                    raise ProtocolError(str(exc)) from exc
                if new_acl_root != req.value:
                    raise ProtocolError("request signature names a different ACL root: stale view")

            result = self._apply(
                req, ru, clock, acl_proof=acl_proof, record=record.as_certificate()
            )
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

        Hints (current counter, ACL leaves) ride alongside full responses,
        and alongside protocol errors when the requester holds read access;
        they are never attached to denials, which must stay uninformative.
        """
        clock = clock or StepClock()
        with self._lock:
            answer = self._verified_answer(idx, requested_version, nonce, user_idx, clock)
            denied = answer.response.denied
            hints = None if denied else self._hints(answer.record, answer.acl)
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
            verify = InfoResult(response=answer.response)
            if answer.response.denied:
                return FetchResult(verify=verify)
            # A full response attests the version row, which names the content.
            version_row = answer.version_row
            with clock.step("record_lookup"):
                blobs = self.storage.blob_get(version_row.hashes)
            return FetchResult(
                verify=verify, blobs=blobs, secret_commitment=version_row.secret_commitment
            )

    def _verified_answer(
        self, idx, requested_version, nonce, user_idx, clock, release=False
    ) -> _Answer:
        """Look up the rows, certify the proofs and ask the module for its answer.

        A version of 0 is resolved here to the latest stored version.  With
        ``release``, the version's sealed secret goes to the module as well.
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
            if container_proof is None or (record is not None and acl_proof is None):
                raise ProtocolError("cannot assemble consistent proofs")

        with clock.step("module_verify"):
            secret = None
            if release and version_row is not None and version_row.wrapped_secret != ZERO_DIGEST:
                secret = (version_row.wrapped_secret, version_row.secret_commitment)
            response = self.module.verify_container(
                user_idx,
                nonce,
                resolved,
                container_proof,
                record=record.as_certificate() if record is not None else None,
                acl_proof=acl_proof,
                version_cert=version_row.as_certificate() if version_row is not None else None,
                secret=secret,
            )
        if response is None:
            # Typically an unattestable version number.  Reveal hints only to
            # callers the service can see hold read access.
            if acl is not None and self._access_level(acl, user_idx) >= 1:
                raise ProtocolError(
                    "no proof exists for the requested version", hints=self._hints(record, acl)
                )
            raise ProtocolError("no proof exists for the requested version")
        return _Answer(response, record, version_row, acl)
