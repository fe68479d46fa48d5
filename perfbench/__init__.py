"""End-to-end, per-layer benchmark of the repro pipeline (see README.md)."""
