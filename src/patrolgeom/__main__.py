"""`python -m patrolgeom`: the CLI through cli.exit_main, which ends the
process without interpreter teardown (see its docstring)."""

from .cli import exit_main

if __name__ == "__main__":
    exit_main()
