from __future__ import annotations

import secrets

import pytest

from tcr.client import UserCredential
from tcr.iomt import Iomt, IomtError, Leaf
from tcr.module import ModuleState, TrustedModule
from tcr.service import Service
from tcr.storage import Storage


def remove_placeholder(tree: Iomt, idx: int) -> bytes:
    """Exact inverse of ``tree.upsert(idx, ZERO_DIGEST)`` on an index that was absent."""
    found = tree.find_leaf(idx)
    if found is None:
        raise IomtError(f"index {idx} not present")
    slot, leaf = found
    if not leaf.is_placeholder:
        raise IomtError(f"index {idx} is not a placeholder")
    if leaf.idx == leaf.next_idx:
        tree.set_leaf(slot, None)
        return tree.root
    for pred_slot, pred in tree.leaves():
        if pred.next_idx == idx and pred_slot != slot:
            tree.set_leaf(pred_slot, Leaf(pred.idx, leaf.next_idx, pred.val))
            tree.set_leaf(slot, None)
            return tree.root
    raise IomtError(f"no predecessor links to {idx}: circular linkage broken")


def acl_hints(service: Service, idx: int) -> dict:
    """The hints an INFO reply carries for container ``idx``, ACL leaves included."""
    return service._hints(service.storage.record_get(idx), service.acl_tree(idx))


@pytest.fixture
def user_keys():
    return {i: secrets.token_bytes(32) for i in (1, 2, 3, 4)}


@pytest.fixture
def credentials(user_keys):
    return {i: UserCredential(i, key) for i, key in user_keys.items()}


@pytest.fixture
def storage(tmp_path):
    store = Storage(tmp_path / "repo.db", tmp_path / "blobs")
    yield store
    store.close()


@pytest.fixture
def module(user_keys):
    return TrustedModule(ModuleState.fresh(user_keys))


@pytest.fixture
def service(storage, module):
    return Service(storage, module, height=6)
