"""Layered benchmark for the rimkit pipeline; see README.md in this directory."""
