"""Byte dump of the tilting commands' output, checked against a pinned total.

    python3 tools/cli_dump.py

Builds a fixed corpus of algebras (Kronecker, A3, A2^2, Kronecker^2,
A3^2, A2^3, Kronecker (x) A2^2 and A3 (x) A3 with its path of length two
set to zero), writes each as an ``.alg`` file in a temporary directory,
and runs, through ``qtilt.cli.dispatch`` with relative file names, for
n = 1, 2, 3:

- ``count-apr``;
- at every vertex ``apr-check``, ``bb-check``, ``cotilt-check`` and
  ``apr-tilt`` / ``bb-tilt --present -o``;
- on each module a tilt writes, ``verify-tilting --m n``,
  ``present-endo``, ``tau --n n -o`` and ``tau-minus --n n -o``.

A record is one command line: its arguments, exit code, output text and
the bytes of the file it wrote, if any.  The script prints one sha256 per
record, then the sha256 of all record digests in order, and fails unless
that total equals the one recorded below.  A change that keeps every
answer of these commands byte-identical keeps the total.

The records run with ``QTILT_SEED=7`` set: no tilting command takes a
seed, so the total is the one they give with the variable unset.

The records run with the cyclic garbage collector off, after one warm-up
command that builds the argument parser, and the script also fails if
any record leaves cyclic garbage (a nonzero ``gc.collect()`` after it):
reference counting alone must free each command's work.  It takes about
18 s on one core of a 2-core x86_64 VM with Python 3.11.
"""

import gc
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from qtilt import cli  # noqa: E402
from qtilt.exactla import QQ  # noqa: E402
from qtilt.quivercore import (Arrow, Path, PathSum, Quiver,  # noqa: E402
                              build_algebra)
from qtilt.tensorcon import tensor_algebras  # noqa: E402

EXPECTED_TOTAL = ("d207345922f7053acd2ec8ca5e97e24f"
                  "f8470baab0d82582d900ce24b0e5b1d9")
NS = (1, 2, 3)

# name: (vertices, arrows (name, source, target), monomial relations)
FACTORS = {
    "kron": (["1", "2"], [("a0", "2", "1"), ("a1", "2", "1")], []),
    "a2": (["1", "2"], [("a", "2", "1")], []),
    "a3": (["1", "2", "3"], [("a", "2", "1"), ("b", "3", "2")], []),
    "a3nil": (["1", "2", "3"], [("a", "2", "1"), ("b", "3", "2")],
              [["a", "b"]]),
}
CORPUS = [("kron",), ("a3",), ("a2", "a2"), ("kron", "kron"), ("a3", "a3"),
          ("a2", "a2", "a2"), ("kron", "a2", "a2"), ("a3", "a3nil")]


def factor(kind):
    verts, arrows, rels = FACTORS[kind]
    quiver = Quiver(verts, [Arrow(*a) for a in arrows])
    relations = [PathSum(QQ, [(1, Path.of(quiver, rel))]) for rel in rels]
    return build_algebra(quiver, relations, QQ, name=kind)


def product(kinds):
    alg = factor(kinds[0])
    for kind in kinds[1:]:
        alg = tensor_algebras(alg, factor(kind)).algebra
    return alg


def record(argv, out):
    """(digest, label, cyclic garbage) of one command line run in the
    current directory; ``out`` names the file it may write.  The garbage
    is the number of unreachable objects the command left, which
    `gc.collect` finds and frees."""
    code, text = cli.dispatch(argv)
    garbage = gc.collect()
    h = hashlib.sha256()
    h.update("\0".join(argv).encode())
    h.update(f"\0{code}\0{text}\0".encode())
    if out is not None and os.path.exists(out):
        with open(out, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest(), " ".join(argv), garbage


def records(stem, alg):
    """The records of one algebra file, in a fixed order."""
    algfile = stem + ".alg"
    for n in NS:
        yield record(["count-apr", algfile, "--n", str(n)], None)
        for k, v in enumerate(alg.quiver.vertices):
            at = ["--vertex", v, "--n", str(n)]
            for cmd in ("apr-check", "bb-check", "cotilt-check"):
                yield record([cmd, algfile] + at, None)
            for cmd in ("apr-tilt", "bb-tilt"):
                mod = f"{stem}_{cmd}_{k}_{n}.mod"
                yield record([cmd, algfile] + at + ["--present", "-o", mod],
                             mod)
                if not os.path.exists(mod):
                    continue
                yield record(["verify-tilting", algfile, mod, "--m", str(n)],
                             None)
                yield record(["present-endo", algfile, mod], None)
                for tau in ("tau", "tau-minus"):
                    out = f"{mod[:-4]}_{tau}.mod"
                    yield record([tau, algfile, mod, "--n", str(n), "-o", out],
                                 out)


def write_algebra(kinds):
    """(stem, algebra) of a corpus entry, written as ``<stem>.alg``."""
    stem = "_".join(kinds)
    alg = product(kinds)
    with open(stem + ".alg", "w", encoding="utf-8") as fh:
        fh.write(cli.serialize_algebra(alg, stem))
    return stem, alg


def main():
    total = hashlib.sha256()
    count = 0
    cyclic = []
    cwd = os.getcwd()
    os.environ["QTILT_SEED"] = "7"   # read by `props` only, none of these
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            stem, _ = write_algebra(CORPUS[0])
            cli.dispatch(["count-apr", stem + ".alg", "--n", "1"])  # warm-up
            gc.collect()
            gc.disable()
            for kinds in CORPUS:
                stem, alg = write_algebra(kinds)
                for digest, label, garbage in records(stem, alg):
                    print(digest, label)
                    total.update(digest.encode())
                    count += 1
                    if garbage:
                        cyclic.append((label, garbage))
        finally:
            gc.enable()
            os.chdir(cwd)
    got = total.hexdigest()
    print(f"records {count} total {got}")
    for label, garbage in cyclic:
        print(f"FAIL {label} left {garbage} objects of cyclic garbage")
    if got != EXPECTED_TOTAL:
        print(f"FAIL total {got}, expected {EXPECTED_TOTAL}")
        return 1
    if cyclic:
        return 1
    print("cli dump passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
