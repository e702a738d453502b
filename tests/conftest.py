"""Shared fixtures: reference rings and a CLI subprocess runner."""

import subprocess
import sys

import pytest

from fgap import FusionRing, builtin_ring


def run_cli(*argv, stdin_text=None):
    """Run the CLI in a subprocess; returns (exit code, stdout, stderr)."""
    proc = subprocess.run(
        [sys.executable, "-m", "fgap", *argv],
        input=stdin_text, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="session")
def run_cli_once():
    """run_cli memoised for the session, keyed by (argv, stdin_text).

    For tests that only read the output of a command: the CLI is
    deterministic, so identical slow searches run once per session.  Tests
    that time a run or compare two fresh processes call run_cli instead.
    """
    seen = {}

    def run(*argv, stdin_text=None):
        key = (argv, stdin_text)
        if key not in seen:
            seen[key] = run_cli(*argv, stdin_text=stdin_text)
        return seen[key]
    return run


@pytest.fixture
def fibonacci():
    return builtin_ring("kn", 1)


@pytest.fixture
def k2():
    return builtin_ring("kn", 2)


def group_ring(mult_table, inverse):
    """Based ring of a finite group from its multiplication table."""
    n = len(mult_table)
    tensor = [[[1 if mult_table[i][j] == k else 0 for k in range(n)]
               for j in range(n)] for i in range(n)]
    return FusionRing(n, inverse, tensor)


@pytest.fixture
def s3_ring():
    return symmetric3_ring()


def symmetric3_ring():
    """Group ring of the symmetric group on 3 letters (noncommutative)."""
    # elements: e, r, r2, s, sr, sr2 with r^3 = s^2 = e, s r s = r^2
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1),
             (0, 2, 1), (1, 0, 2), (2, 1, 0)]
    index = {p: i for i, p in enumerate(perms)}

    def compose(p, q):  # apply q first, then p
        return tuple(p[q[i]] for i in range(3))

    table = [[index[compose(p, q)] for q in perms] for p in perms]
    inv = [index[tuple(sorted(range(3), key=lambda i: p[i]))] for p in perms]
    return group_ring(table, inv)
