"""End-to-end serving benchmark: load over TCP, correctness oracle, per-layer trace."""
