"""``python -m mvlsynth``: the same command line as the ``mvlsynth`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
