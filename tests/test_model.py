"""Model-based test of the protocol: real clients against an in-process server.

A Hypothesis state machine drives creates, modifies (plain and encrypted),
ACL changes, queries and blob damage from the owner and from users at every
access level, and checks each outcome against a plain model: per container
the counter, each version's content and each user's level.  After every
step the sealed root must equal the store's root, and an absent index and a
caller without access must get the same denial.
"""

from __future__ import annotations

import json
import secrets
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from conftest import running_server
from tcr.client import ProtocolFailure, RepositoryClient, RequestRejected, UserCredential, Verdict
from tcr.storage import BlobSet

USERS = (1, 2, 3, 4)
INDICES = st.integers(1, 5)  # present and absent ones alike, in a 2^6-slot tree
ABSENT = 1000  # never created
VERSIONS = st.integers(0, 4)


@dataclass
class Container:
    counter: int
    levels: dict[int, int]
    versions: list[BlobSet] = field(default_factory=list)


class ProtocolMachine(RuleBasedStateMachine):
    rule_counts: Counter = Counter()

    # Hypothesis runs only some of the rules in each example, so every example
    # starts from containers 1..n, each created by its owner with one version.
    @initialize(owners=st.lists(st.sampled_from(USERS), min_size=1, max_size=3))
    def start(self, owners) -> None:
        self.directory = Path(tempfile.mkdtemp(prefix="tcr-model-"))
        keys = {user: secrets.token_bytes(32) for user in USERS}
        self._server = running_server(self.directory, keys)
        self.server = self._server.__enter__()
        port = self.server.server_address[1]
        self.clients = {
            user: RepositoryClient("127.0.0.1", port, UserCredential(user, key))
            for user, key in keys.items()
        }
        self.model: dict[int, Container] = {}
        self.damaged: set[tuple[int, int]] = set()
        self.writes = 0
        for idx, owner in enumerate(owners, start=1):
            self.create(idx, owner)
            self.write(idx, owner, False, b"")

    def teardown(self) -> None:
        if hasattr(self, "_server"):
            self._server.__exit__(None, None, None)
            shutil.rmtree(self.directory, ignore_errors=True)

    def level(self, idx: int, user: int) -> int:
        container = self.model.get(idx)
        return 0 if container is None else container.levels.get(user, 0)

    def count(self, name: str) -> None:
        type(self).rule_counts[name] += 1

    def pick(self, data, least_level: int) -> tuple[int, int]:
        """An index and a caller, as often as not one that holds ``least_level``
        on it, when any does."""
        able = [(idx, user) for idx, container in sorted(self.model.items())
                for user, level in sorted(container.levels.items()) if level >= least_level]
        if able and not data.draw(st.booleans()):  # the simplest draw is an able caller
            return data.draw(st.sampled_from(able))
        return data.draw(INDICES), data.draw(st.sampled_from(USERS))

    # -- writes -------------------------------------------------------------------

    @rule(idx=INDICES, user=st.sampled_from(USERS))
    def create(self, idx, user):
        if idx in self.model:
            self.count("create_refused")
            with_refusal(self.clients[user].create, idx)
        else:
            self.count("create")
            self.clients[user].create(idx)
            self.model[idx] = Container(counter=1, levels={user: 3})

    @rule(data=st.data(), encrypt=st.booleans(), image=st.binary(max_size=64))
    def modify(self, data, encrypt, image):
        self.write(*self.pick(data, 2), encrypt, image)

    def write(self, idx: int, user: int, encrypt: bool, image: bytes) -> None:
        self.writes += 1
        # Every version's image is new, so no two versions share a digest or a blob.
        blobs = BlobSet(b"%d:" % self.writes + image, b"FROM scratch\n", b"services: {}\n")
        if self.level(idx, user) < 2:
            self.count("modify_refused")
            with_refusal(self.clients[user].modify, idx, *blobs_of(blobs), encrypt=encrypt)
            return
        self.count("modify_encrypted" if encrypt else "modify")
        body = self.clients[user].modify(idx, *blobs_of(blobs), encrypt=encrypt)
        container = self.model[idx]
        container.versions.append(blobs)
        container.counter += 1
        assert body["version"] == len(container.versions)

    # Listed so the simplest draw grants another user read access: a revocation
    # of the owner's own access makes the container unusable for the rest of a run.
    @rule(data=st.data(), grantee=st.sampled_from((2, 3, 4, 1)), level=st.sampled_from((1, 2, 3, 0)))
    def acl_set(self, data, grantee, level):
        idx, user = self.pick(data, 3)
        if self.level(idx, user) < 3:
            self.count("acl_set_refused")
            with_refusal(self.clients[user].acl_set, idx, grantee, level)
            return
        self.count("acl_set")
        self.clients[user].acl_set(idx, grantee, level)
        container = self.model[idx]
        container.levels[grantee] = level
        container.counter += 1

    @precondition(lambda self: any(c.versions for c in self.model.values()))
    @rule(data=st.data())
    def damage_blob(self, data):
        self.count("damage_blob")
        idx = data.draw(st.sampled_from(sorted(i for i, c in self.model.items() if c.versions)))
        version = data.draw(st.integers(1, len(self.model[idx].versions)))
        storage = self.server.service.storage
        image = storage.version_get(idx, version).hashes[0]
        storage._blob_path(image).write_bytes(b"rotten")
        self.damaged.add((idx, version))

    # -- queries ------------------------------------------------------------------

    def expected(self, idx: int, user: int, version: int, fetch: bool) -> str:
        """``denied``, ``error`` (no such version to prove), ``invalid`` or ``verified``."""
        if self.level(idx, user) == 0:
            return "denied"
        latest = len(self.model[idx].versions)
        resolved = version or latest
        if (fetch or version) and not 1 <= resolved <= latest:
            return "error"
        return "invalid" if fetch and (idx, resolved) in self.damaged else "verified"

    @rule(data=st.data(), version=VERSIONS)
    def info(self, data, version):
        idx, user = self.pick(data, 1)
        expected = self.expected(idx, user, version, fetch=False)
        self.count(f"info_{expected}")
        if expected == "error":
            with_failure(self.clients[user].info, idx, version)
            return
        outcome = self.clients[user].info(idx, version)
        assert outcome.verdict == Verdict(expected)
        if expected == "verified":
            container = self.model[idx]
            response = outcome.response
            assert (response.counter, response.max_version) == (
                container.counter, len(container.versions)
            )
            assert outcome.hints is not None

    @rule(data=st.data(), version=VERSIONS)
    def fetch(self, data, version):
        idx, user = self.pick(data, 1)
        expected = self.expected(idx, user, version, fetch=True)
        self.count(f"fetch_{expected}")
        if expected == "error":
            with_failure(self.clients[user].fetch, idx, version)
            return
        outcome = self.clients[user].fetch(idx, version)
        assert outcome.verdict == Verdict(expected)
        if expected == "verified":
            versions = self.model[idx].versions
            assert outcome.blobs == versions[(version or len(versions)) - 1]

    # -- invariants ---------------------------------------------------------------

    @invariant()
    def sealed_root_matches_the_store(self):
        if hasattr(self, "server"):
            service = self.server.service
            assert service.module.root == service.container_tree().root

    @invariant()
    def absence_and_no_access_look_alike(self):
        if not hasattr(self, "server"):
            return
        unreadable = [(idx, user) for idx in sorted(self.model) for user in USERS
                      if self.level(idx, user) == 0]
        if not unreadable:
            return
        idx, user = unreadable[0]
        client = self.clients[user]
        nonce = secrets.token_bytes(32).hex()
        for op, payload in (("INFO", {"requested_version": 0}), ("FETCH", {"version": 0})):
            replies = [
                normalized(client._request(op, {**payload, "idx": asked, "nonce": nonce,
                                                "user": user}))
                for asked in (idx, ABSENT)
            ]
            assert replies[0] == replies[1], (op, replies)


def normalized(reply: tuple[str, dict]) -> bytes:
    """A reply's status and payload as JSON, with the two fields a denial
    must differ in, the index asked about and the MAC over it, blanked."""
    status, body = reply
    response = {**body.get("response", {}), "idx": None, "tag": None}
    return json.dumps([status, {**body, "response": response}], sort_keys=True).encode()


def blobs_of(blobs: BlobSet) -> tuple[bytes, bytes, bytes]:
    return blobs.image, blobs.build, blobs.compose


def with_refusal(call, *args, **kwargs) -> None:
    try:
        call(*args, **kwargs)
    except RequestRejected:
        return
    raise AssertionError(f"{call.__name__}{args} was accepted")


def with_failure(call, *args) -> None:
    try:
        call(*args)
    except ProtocolFailure:
        return
    raise AssertionError(f"{call.__name__}{args} was answered")


def test_protocol_matches_the_model():
    ProtocolMachine.rule_counts.clear()
    run_state_machine_as_test(
        ProtocolMachine,
        settings=settings(max_examples=80, stateful_step_count=40, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow]),
    )
    counts = ProtocolMachine.rule_counts
    print("rule counts:", dict(sorted(counts.items())))
    for name in ("create", "modify", "modify_encrypted", "acl_set", "damage_blob",
                 "info_verified", "info_denied", "fetch_verified", "fetch_denied", "fetch_invalid"):
        assert counts[name], name
