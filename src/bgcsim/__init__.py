"""Deterministic simulator and bounds toolkit for Byzantine-resilient gradient coding."""
