"""Tamper-evident container repository.

An untrusted service stores container images, build files, and compose
files; a minimal trusted module certifies every state change and query
answer against a single sealed Merkle root, so clients can verify content
integrity, catch improper denials, and keep secrets away from the service.
"""

from .client import (
    RepositoryClient,
    UserCredential,
    Verdict,
    check_info_response,
    unwrap_secret,
    wrap_secret,
    xor_blobs,
    xor_keystream,
)
from .iomt import Geometry, Iomt, Leaf, counter_digest, counter_value, encloses
from .merkle import Side, ZERO_DIGEST, compute_root, hmac_sha256, parent, sha256
from .module import (
    Certificate,
    CertKind,
    ModuleState,
    RequestEnvelope,
    RequestKind,
    TrustedModule,
    VerifyResponse,
    load_state,
    save_state,
)
from .service import ProtocolError, Service, StepClock
from .storage import BlobSet, ContainerRecord, Storage, VersionRecord, bulk_prepopulate

__version__ = "0.1.0"

__all__ = [
    "BlobSet",
    "Certificate",
    "CertKind",
    "ContainerRecord",
    "Geometry",
    "Iomt",
    "Leaf",
    "ModuleState",
    "ProtocolError",
    "RepositoryClient",
    "RequestEnvelope",
    "RequestKind",
    "Service",
    "Side",
    "StepClock",
    "Storage",
    "TrustedModule",
    "UserCredential",
    "Verdict",
    "VerifyResponse",
    "VersionRecord",
    "ZERO_DIGEST",
    "bulk_prepopulate",
    "check_info_response",
    "compute_root",
    "counter_digest",
    "counter_value",
    "encloses",
    "hmac_sha256",
    "load_state",
    "parent",
    "save_state",
    "sha256",
    "unwrap_secret",
    "wrap_secret",
    "xor_blobs",
    "xor_keystream",
]
