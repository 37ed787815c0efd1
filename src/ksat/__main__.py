"""``python -m ksat``: the same entry point as the installed ``ksat`` script."""

from .cli import main

main()
