"""`python -m arithdyn ...` runs the command line of `arithdyn.cli`."""

from .cli import main

if __name__ == "__main__":
    main()
