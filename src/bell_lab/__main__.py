"""Allow ``python -m bell_lab``, equivalent to the ``bell-lab`` command."""

from .cli import main

main()
