"""The environment of a child interpreter that runs the meanbound under test:
the parent's, with that package's directory as PYTHONPATH and without
PYTHONUNBUFFERED, so each child buffers stdout as Python does by default,
whatever the shell that started the tests has set."""

import os

import meanbound

SRC = os.path.dirname(os.path.dirname(meanbound.__file__))


def child_env(**extra):
    """os.environ without PYTHONUNBUFFERED, PYTHONPATH=SRC, then extra."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": SRC, **extra}
