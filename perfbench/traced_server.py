"""tcr-server with spans around the public functions of every server-side layer.

Usage: ``traced_server.py SPANS_OUT [tcr-server arguments...]``

Layers: ``server`` (``RepositoryServer.dispatch``), ``service``
(``Service.handle_*``, each given a ``StepClock`` whose steps become
events), ``iomt`` (``Iomt``), ``storage`` (``Storage`` and
``SqliteTreeStore``) and ``module`` (``TrustedModule``).  A sqlite trace
callback records one event per SQL statement; ``CertCache.get`` records one
event per lookup and one per hit.  On SIGINT the server stops as usual and
the spans and events go to ``SPANS_OUT`` as gzipped JSON.
"""

from __future__ import annotations

import functools
import gzip
import json
import sqlite3
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import Tracer, public_methods  # noqa: E402

HANDLERS = ("handle_create", "handle_modify", "handle_acl_set", "handle_info", "handle_fetch")


def install(tracer: Tracer) -> None:
    from tcr import iomt, module, server, service, storage

    tracer.wrap_attrs(server.RepositoryServer, "server", ["dispatch"])

    for name in HANDLERS:
        handler = getattr(service.Service, name)

        @functools.wraps(handler)
        def with_clock(self, *args, _handler=handler, **kwargs):
            clock = kwargs.setdefault("clock", service.StepClock())
            try:
                return _handler(self, *args, **kwargs)
            finally:
                for label, ns in clock.steps.items():
                    tracer.event("step." + label, ns)

        setattr(service.Service, name, tracer.wrapped("service", f"Service.{name}", with_clock))

    cache_get = service.CertCache.get

    def counted_get(self, key, epoch):
        hit = cache_get(self, key, epoch)
        tracer.event("cache_get")
        if hit is not None:
            tracer.event("cache_hit")
        return hit

    service.CertCache.get = counted_get

    tracer.wrap_attrs(iomt.Iomt, "iomt", public_methods(iomt.Iomt) + ["root"])
    tracer.wrap_attrs(storage.Storage, "storage", public_methods(storage.Storage))
    tracer.wrap_attrs(storage.SqliteTreeStore, "storage", public_methods(storage.SqliteTreeStore))
    tracer.wrap_attrs(module.TrustedModule, "module", public_methods(module.TrustedModule))

    connect = sqlite3.connect

    def traced_connect(*args, **kwargs):
        conn = connect(*args, **kwargs)
        conn.set_trace_callback(lambda sql: tracer.event("sql", sql.split(None, 1)[0].upper()))
        return conn

    sqlite3.connect = traced_connect


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    tracer = Tracer()
    install(tracer)
    from tcr import server

    status = server.main(argv[1:])
    tracer.recording = False
    with gzip.open(out, "wt", compresslevel=1) as fp:
        json.dump({"spans": tracer.spans, "events": tracer.events}, fp)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
