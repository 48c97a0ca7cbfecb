"""Keeps the tests directory importable so shared helpers resolve, and
keeps the test run, with the CLI subprocesses it starts, from writing
bytecode caches into the source tree."""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
