"""``python -m hurwitzq``: the same command as the ``hurwitzq`` script."""

from .cli import run

if __name__ == "__main__":
    run()
