"""Serving benchmark for ``repro serve``; see README.md."""
