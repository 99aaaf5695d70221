"""End-to-end benchmark of the HACC reproduction: time to z=0.

Run one workload from the repository root::

    python3 e2ebench/run.py --workload production-overloaded --seed 0 \
        --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` reports the per-layer breakdown from a traced job.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
