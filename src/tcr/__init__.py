"""Tamper-evident container repository.

An untrusted service stores container images, build files, and compose
files; a minimal trusted module certifies every state change and query
answer against a single sealed Merkle root, so clients can verify content
integrity, catch improper denials, and keep secrets away from the service.
"""

__version__ = "0.1.0"
