"""Benchmark for the HighRPM monitor; see README.md."""
