"""The repository benchmark (see README.md); entry point ``run.py``."""
