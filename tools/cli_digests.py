"""Print one SHA-256 per file that `tools/cli_outputs.py` wrote, as JSON.

    python tools/cli_outputs.py --root . OUTDIR
    python tools/cli_digests.py OUTDIR > tests/cli_outputs_digests.json

The JSON holds the Python and numpy versions of this interpreter beside the
digests, keyed by each file's path relative to OUTDIR with `/` separators.
Files under OUTDIR/random/, the seeded `--random` cases, are left out: they
are compared between two checkouts with `diff -r`, not pinned. The fixed
cases' exact/ trees, every float of their outputs as float.hex, are
pinned with the rest, so a change in an output's last bit changes a digest.
Bench and segment digits depend on numpy's generators and libm, so a
mismatch under other versions may not be a change in nakafit.
`tests/test_cli_outputs.py` reruns the tool and compares with the
committed file; a change that alters outputs on purpose rewrites the file
in the same commit.
"""

import argparse
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np


def versions():
    """The versions the outputs depend on besides nakafit's own code."""
    return {"python": platform.python_version(), "numpy": np.__version__}


def digests(outdir):
    """{relative path: SHA-256 hex} for every file under outdir but random/,
    sorted by path."""
    root = Path(outdir)
    files = sorted(p.relative_to(root).as_posix() for p in root.rglob("*")
                   if p.is_file() and p.relative_to(root).parts[0] != "random")
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in files}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("outdir", help="directory that tools/cli_outputs.py wrote")
    args = parser.parse_args(argv)
    json.dump({**versions(), "sha256": digests(args.outdir)}, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
