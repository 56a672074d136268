"""Wire protocol of the sharded control plane.

All manager-to-manager traffic rides one dedicated MPI *service*
communicator (excluded from the MPI checker, like the replication and
membership streams), with two tags:

``LEASE_TAG``
    consumer-shard → producer-shard subscription: "notify me when task
    ``producer_id`` completes".  Sent once per (consumer shard,
    producer task) at plane start-up — and re-sent idempotently after a
    manager failover, which closes the lost-notification window.
``NOTIFY_TAG``
    producer-shard → consumer-shard completion notification.  The
    consumer dedups by task id exactly like the PR 3 worker-side
    dispatch dedup, so a failover's replayed notifications are no-ops.

Payloads are plain tuples (cheap to simulate):
``("lease", producer_id, subscriber_shard)`` and
``("notify", producer_id, producer_shard)``.
"""

#: Tags on the shard-plane service communicator.
LEASE_TAG = 1
NOTIFY_TAG = 2
