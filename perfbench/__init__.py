"""DASSA benchmark: four workloads, end to end and layer by layer (see README.md)."""
