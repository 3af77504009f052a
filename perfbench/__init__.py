"""End-to-end benchmark of the ``repro`` simulator (see README.md)."""
