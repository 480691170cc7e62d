"""Outside-in system benchmark: seeded fleet and record workloads,
end-to-end metrics, and a traced per-layer host-time ledger.

See ``README.md`` in this directory.
"""
