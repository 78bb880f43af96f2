"""Primary/replica log shipping over the query service (PR 10).

Layers, bottom up:

* the log itself is every disk store's
  :class:`~repro.storage.wal.WriteAheadLog`, whose commit groups carry
  a durable sequence number and fencing term;
* :mod:`.shipper` -- :class:`ReplicationSource`, the primary-side state
  behind the ``repl_*`` wire ops (bootstrap snapshots, tail fetches);
* :mod:`.applier` -- :func:`bootstrap_from_primary` and
  :class:`ReplicaTailer`, the replica's copy-then-replay loop;
* :mod:`.manager` -- :class:`ReplicationManager`, the role state
  machine the server consults (and flips on ``promote``);
* :mod:`.client` -- :class:`ReplicaSetClient`, read routing with a
  staleness bound and automatic failover.
"""

from .applier import ReplicaTailer, bootstrap_from_primary
from .client import ReplicaSetClient
from .manager import ReplicationManager
from .shipper import ReplicationSource

__all__ = [
    "ReplicaSetClient",
    "ReplicaTailer",
    "ReplicationManager",
    "ReplicationSource",
    "bootstrap_from_primary",
]
