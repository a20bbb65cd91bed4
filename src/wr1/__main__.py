"""``python -m wr1``: the same command line as the installed ``wr1`` script."""

from .cli import run

run()
