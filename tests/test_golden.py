"""Golden stdout: every command of the README's CLI block, byte for byte.

Each command runs in a fresh `python -m fgap` process, once per test
session (tests elsewhere that read the same command share the run); the
test compares its exit code and the sha256 of its stdout with the values
pinned below.
Where the README reads `ring.txt`, the ring `fgap builtin kn --n 2` is
piped on stdin instead.
"""

import hashlib

import pytest

from conftest import run_cli

RING = ("builtin", "kn", "--n", "2")

# (argv, reads RING on stdin)
COMMANDS = [
    (("builtin", "kn", "--n", "1"), False),
    (("analyze", "-"), True),
    (("analyze", "-", "--json"), True),
    (("analyze", "-", "--expect-pass"), True),
    (("search", "quadratic"), False),
    (("search", "cubic", "--audit"), False),
    (("search", "gap", "--dmax", "4sqrt(3)/5"), False),
    (("search", "gap", "--dmax", "1.34"), False),
    (("search", "quadratic", "--drop-filter", "mainineq",
      "--window", "1.35,1.39"), False),
    (("dnumber", "--poly", "1,-5,5"), False),
    (("ffib-bound", "--poly", "1,-5,5"), False),
    (("ffib-bound", "--poly", "1,-5,5", "--json"), False),
    (("repg", "--classes", "1,2,2,5"), False),
]

# Recapture with `PYTHONPATH=src python tests/test_golden.py`.
GOLDEN = {
    'builtin kn --n 1': (0,
        '33d5531511b3a38aa44908c3d59144f8803c3f1994bb04c9d7c8c79dd0faf5d0'),
    'analyze -': (0,
        'b009070a41edd3bde16bff10be408459dd13a341cf5ea34af77764ce605feae4'),
    'analyze - --json': (0,
        'a7ef00025a57fd0fb1a60847acb39c7192fedea4b43352e5f10e5f14c7bef1c3'),
    'analyze - --expect-pass': (3,
        'b009070a41edd3bde16bff10be408459dd13a341cf5ea34af77764ce605feae4'),
    'search quadratic': (0,
        '2073bfef62b1ba47f078c26ea457f72d30144301c1b4fe9b67df9bc4f19321f8'),
    'search cubic --audit': (0,
        'f5e706d13b6f0858303b7f51aae74c065e118aa84a84b0de29ce6fcc61da7f3d'),
    'search gap --dmax 4sqrt(3)/5': (0,
        '0a381f90d6f36112e0e2c284fa148c6e549f1e94d53a9d5248a8fb1c8554503a'),
    'search gap --dmax 1.34': (0,
        '93de8b3436038f6b9dda03e1cbe5522f03dfb24069674094d63238ab0814f253'),
    'search quadratic --drop-filter mainineq --window 1.35,1.39': (0,
        '8c2daffca770638be356786c13ba18ae4f5c922883400055b83c40aedbead988'),
    'dnumber --poly 1,-5,5': (0,
        'b9cf16312ed3657e04c56b1c6793a682cfed48c8307040e6538f2ea56e840144'),
    'ffib-bound --poly 1,-5,5': (0,
        '33f337eb53ada4815a6399112b4b3cff76dabda4a290217c7a48c362ba8a316b'),
    'ffib-bound --poly 1,-5,5 --json': (0,
        'fb4c33c8a8fc26e434f7b96f36b27eee86151567fad4b783a9c1b926b44ed1f0'),
    'repg --classes 1,2,2,5': (0,
        '5183f5c144bd813a103decca31639339a4e3d53bbf0516a48ea1c56bef9a51ef'),
}


def _run(argv, piped, run=run_cli):
    stdin_text = None
    if piped:
        rc, stdin_text, _ = run(*RING)
        assert rc == 0
    rc, out, _ = run(*argv, stdin_text=stdin_text)
    return rc, hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv,piped", COMMANDS,
                         ids=[" ".join(a) for a, _ in COMMANDS])
def test_readme_command_stdout_is_pinned(argv, piped, run_cli_once):
    assert _run(argv, piped, run_cli_once) == GOLDEN[" ".join(argv)]


if __name__ == "__main__":
    print("GOLDEN = {")
    for argv, piped in COMMANDS:
        rc, digest = _run(argv, piped)
        print("    %r: (%d,\n        %r)," % (" ".join(argv), rc, digest))
    print("}")
