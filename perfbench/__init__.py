"""Propeller benchmark package (see run.py)."""
