"""Workload inputs, program calls and oracles for the qtilt benchmark.

Every workload builds its algebras from the seed, writes them as ``.alg``
files with ``cli.serialize_algebra``, and hands the program only those
files (or, for the Python API sweep, the parsed algebras and seeded
``repcore.random_module`` modules).  The seed prefixes every vertex and
arrow name with the same capital letters.  Capitals sort before every
other character the names and the tensor construction use, so the prefix
keeps the program's basis order, and with it the arithmetic, the same on
every seed while the files differ: runs on different seeds measure the
same work.  The Künneth check pool is fixed for the same reason (its
per-check cost spans three decades), and the seed sets the order the
checks run in.

Runs are cold by design.  Each CLI call builds a fresh ``Workspace`` and
reparses its algebra, as a user's call would, and the sweep reparses its
algebras at the start of every pass and draws fresh modules for every
check, so no ``alg._cache`` or ``m._cache`` outlives a pass, and each
workload runs in a process of its own.

Oracles come from the factors, not from the product: the probe trace on
Kronecker (x) Kronecker is the outer product of the Kronecker ``tau_1``
trace (Herschend-Iyama, Bull. LMS 2011); APR witnesses of a product are
the products of factor witnesses; the summands of the product's APR
tilting module are tensor products of factor projectives and translates;
and Ext over a product is the convolution of factor Ext.
"""

import os
import random
import re
import string

from qtilt import cli, homengine, quivercore, repcore, tensorcon
from qtilt.exactla import QQ

PROBE_ROUNDS = 6
PRIME_FIELD = "F32003"
KUNNETH_DEGREES = 4             # q = 0 .. 3
KUNNETH_PER_PAIR = 25           # checks per algebra pair in one pass
KUNNETH_MAX_DIM = 3
SINK = "1"

# name: (vertices, arrows (name, source, target), monomial relations)
FACTORS = {
    "kron": (["1", "2"], [("a0", "2", "1"), ("a1", "2", "1")], []),
    "a2": (["1", "2"], [("a", "2", "1")], []),
    "a3": (["1", "2", "3"], [("a", "2", "1"), ("b", "3", "2")], []),
    "a3nil": (["1", "2", "3"], [("a", "2", "1"), ("b", "3", "2")],
              [["a", "b"]]),
}
KUNNETH_PAIRS = [("kron", "a2"), ("a2", "a3"), ("kron", "kron"),
                 ("a3", "a3nil")]
TILT_PRODUCTS = [("a2", "a2"), ("kron", "kron"), ("a3", "a3"),
                 ("a2", "a2", "a2"), ("kron", "a2", "a2"),
                 ("kron", "kron", "a2")]


class Mismatch(Exception):
    """A program output that disagrees with its oracle."""


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


class Call:
    """One checked program call: ``run`` is timed, ``check`` raises
    Mismatch or returns the text whose digest must repeat."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


# ---------------------------------------------------------------------------
# inputs


def name_prefix(seed):
    rnd = random.Random(seed)
    return "".join(rnd.choice(string.ascii_uppercase) for _ in range(3))


def build_factor(kind, prefix):
    verts, arrows, rels = FACTORS[kind]
    quiver = quivercore.Quiver(
        [prefix + v for v in verts],
        [quivercore.Arrow(prefix + a, prefix + s, prefix + t)
         for a, s, t in arrows])
    relations = [quivercore.PathSum(
        QQ, [(1, quivercore.Path.of(quiver, [prefix + a for a in rel]))])
        for rel in rels]
    return quivercore.build_algebra(quiver, relations, QQ, name=kind)


def tensor_power(factors):
    """(product algebra, product-vertex name of each factor-vertex tuple)."""
    alg = factors[0]
    names = {(v,): v for v in alg.quiver.vertices}
    for right in factors[1:]:
        t = tensorcon.tensor_algebras(alg, right)
        names = {key + (w,): t.vertex(u, w) for key, u in names.items()
                 for w in right.quiver.vertices}
        alg = t.algebra
    return alg, names


def write_algebra(alg, workdir, stem):
    """Serialize, write, and check that the file parses back to itself."""
    text = cli.serialize_algebra(alg)
    _, parsed = cli.parse_algebra_file(text)
    expect(cli.serialize_algebra(parsed) == text,
           f"{stem}: algebra file does not round-trip")
    path = os.path.join(workdir, stem + ".alg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path, text


# ---------------------------------------------------------------------------
# output parsing


def dispatch_ok(argv, code):
    got, text = cli.dispatch(argv)
    expect(got == code, f"{' '.join(argv[:2])}: exit {got}, expected {code}"
                        f" ({text.strip()[:200]})")
    return text


def _vec(text):
    return tuple(int(x) for x in text.strip("()").split(","))


def parse_trace(text):
    return [_vec(m) for m in re.findall(r"^trace\d+ (\(.*\))$", text, re.M)]


def parse_summands(text):
    return {m.group(1): _vec(m.group(2)) for m in
            re.finditer(r"^summand (\S+) dim (\(.*\))$", text, re.M)}


def parse_witnesses(text):
    return re.findall(r"^witness (\S+)$", text, re.M)


def parse_presentation(text):
    """(vertex count, arrow multiplicities, relation degrees) of the
    presented tilt algebra in an ``apr-tilt --present`` report."""
    body = text[text.index("algebra tilt\n"):]
    vertices = re.search(r"^vertices (.*)$", body, re.M).group(1).split()
    mult = {}
    for src, tgt in re.findall(r"^arrow \S+ : (\S+) -> (\S+)$", body, re.M):
        mult[(src, tgt)] = mult.get((src, tgt), 0) + 1
    degrees = []
    for rel in re.findall(r"^relation (.*)$", body, re.M):
        paths = rel.split(" + ")
        degrees.append(sorted({len(p.split()[1].split("*")) for p in paths}))
    return len(vertices), sorted(mult.values()), degrees


def outer(vectors):
    out = (1,)
    for vec in vectors:
        out = tuple(a * b for a in out for b in vec)
    return out


def check_verdicts_pass(text, what):
    bad = [l for l in text.splitlines()
           if l.startswith("verdict ") and l.split()[2] != "pass"]
    expect(not bad, f"{what}: {bad}")


# ---------------------------------------------------------------------------
# known-answer check shared by every workload


def known_answer(prefix, workdir):
    """Check the two Kronecker certificates every workload relies on;
    return the Kronecker ``tau_1`` probe trace and the path of the
    Kronecker (x) Kronecker file.

    The k-th tau iterate of the Kronecker injective cogenerator has
    dimension vector (4k+1, 4k+3), sink first.  The 2-APR tilt of
    Kronecker (x) Kronecker at its sink corner replaces P(sink) by the
    tensor square of the Kronecker tau^- P(sink), and presents an algebra
    with 4 vertices, arrow multiplicities 2/2/4 and 4 quadratic
    relations."""
    kron = build_factor("kron", prefix)
    path, _ = write_algebra(kron, workdir, "kron")
    trace = parse_trace(dispatch_ok(
        ["tau-finite", path, "--n", "1", "--max-iter", str(PROBE_ROUNDS)], 3))
    expect(trace == [(4 * k + 1, 4 * k + 3)
                     for k in range(1, PROBE_ROUNDS + 1)],
           f"Kronecker tau_1 trace {trace}")
    t = tensorcon.tensor_algebras(kron, kron)
    path, _ = write_algebra(t.algebra, workdir, "kron2")
    sink = t.vertex(prefix + SINK, prefix + SINK)
    text = dispatch_ok(["apr-tilt", path, "--vertex", sink, "--n", "2",
                        "--present"], 0)
    check_tilt_presentation_kron2(text)
    x = homengine.tau_n_minus(repcore.proj(kron, prefix + SINK), 1)
    expect(parse_summands(text)[sink]
           == tensorcon.tensor_modules(t, x, x).dim_vector(),
           "kron2 tilt: translate differs from the tensor square of the "
           "Kronecker translate")
    return trace, path


def check_tilt_presentation_kron2(text):
    nv, mult, degrees = parse_presentation(text)
    expect((nv, mult) == (4, [2, 2, 4]),
           f"kron2 tilt: {nv} vertices, arrows {mult}")
    expect(degrees == [[2]] * 4, f"kron2 tilt relations {degrees}")


# ---------------------------------------------------------------------------
# workloads: prepare(seed, workdir) -> function building one pass's calls


def prepare_probe(seed, workdir, field=None):
    factor, path = known_answer(name_prefix(seed), workdir)
    lines = [f"verdict tau_finite undetermined iterations={PROBE_ROUNDS}"]
    lines += [f"trace{k} (" + ",".join(map(str, outer([v, v]))) + ")"
              for k, v in enumerate(factor, start=1)]
    expected = "\n".join(lines) + "\n"
    argv = ["tau-finite", path, "--n", "2", "--max-iter", str(PROBE_ROUNDS)]
    if field:
        argv += ["--field", field]

    def check(result):
        code, text = result
        expect(code == 3, f"tau-finite exit {code}")
        expect(text == expected, "tau-finite trace differs from the outer "
                                 "product of the Kronecker trace")
        return text

    calls = [Call("tau-finite", lambda: cli.dispatch(argv), check)]
    return lambda: calls


def prepare_probe_fp(seed, workdir):
    return prepare_probe(seed, workdir, field=PRIME_FIELD)


def _factor_tilt(kind, prefix, workdir):
    """Count, witnesses, projective and translate dimension vectors of a
    factor's 1-APR tilt at its sink."""
    alg = build_factor(kind, prefix)
    path, _ = write_algebra(alg, workdir, kind)
    text = dispatch_ok(["count-apr", path, "--n", "1"], 0)
    witnesses = parse_witnesses(text)
    expect(text.startswith(f"count {len(witnesses)}\n"),
           f"{kind}: count-apr report")
    text = dispatch_ok(["apr-tilt", path, "--vertex", prefix + SINK,
                        "--n", "1", "--present"], 0)
    check_verdicts_pass(text, kind)
    summands = parse_summands(text)
    verts = alg.quiver.vertices
    sink = prefix + SINK
    proj = {v: summands[v] for v in verts if v != sink}
    proj[sink] = tuple(int(v == sink) for v in verts)   # simple projective
    return alg, witnesses, proj, summands[sink]


def prepare_tilt(seed, workdir):
    prefix = name_prefix(seed)
    known_answer(prefix, workdir)
    factors = {kind: _factor_tilt(kind, prefix, workdir)
               for kind in ("kron", "a2", "a3")}
    calls = []
    for combo in TILT_PRODUCTS:
        data = [factors[k] for k in combo]
        alg, names = tensor_power([d[0] for d in data])
        stem = "x".join(combo)
        path, _ = write_algebra(alg, workdir, stem)
        n = str(len(combo))
        sink_key = (prefix + SINK,) * len(combo)
        sink = names[sink_key]
        witnesses = [()]
        for d in data:
            witnesses = [w + (x,) for w in witnesses for x in d[1]]
        want_witnesses = sorted(names[w] for w in witnesses)
        want_summands = {
            names[key]: outer([d[3] for d in data]) if key == sink_key
            else outer([d[2][v] for d, v in zip(data, key)])
            for key in names}

        def check_count(result, stem=stem, want=want_witnesses):
            code, text = result
            expect(code == 0, f"count-apr {stem} exit {code}")
            got = parse_witnesses(text)
            expect(text.startswith(f"count {len(want)}\n")
                   and sorted(got) == want,
                   f"count-apr {stem}: {text.splitlines()[0]}, witnesses "
                   f"{got}; expected {len(want)}, {want}")
            return text

        def check_tilt(result, stem=stem, want=want_summands,
                       nv=len(names), kron2=combo == ("kron", "kron")):
            code, text = result
            expect(code == 0, f"apr-tilt {stem} exit {code}")
            check_verdicts_pass(text, f"apr-tilt {stem}")
            expect(parse_summands(text) == want,
                   f"apr-tilt {stem}: summands differ from factor products")
            expect(f"\npresentation_vertices {nv}\n" in text,
                   f"apr-tilt {stem}: presentation vertex count")
            if kron2:
                check_tilt_presentation_kron2(text)
            return text

        count_argv = ["count-apr", path, "--n", n]
        tilt_argv = ["apr-tilt", path, "--vertex", sink, "--n", n,
                     "--present"]
        calls.append(Call(f"count-apr {stem}",
                          lambda a=count_argv: cli.dispatch(a), check_count))
        calls.append(Call(f"apr-tilt {stem}",
                          lambda a=tilt_argv: cli.dispatch(a), check_tilt))
    return lambda: calls


def prepare_kunneth(seed, workdir):
    prefix = name_prefix(seed)
    known_answer(prefix, workdir)
    texts = {}
    for kind in FACTORS:
        _, texts[kind] = write_algebra(build_factor(kind, prefix), workdir,
                                       kind)
    pool = [(p, i) for p in range(len(KUNNETH_PAIRS))
            for i in range(KUNNETH_PER_PAIR)]
    random.Random(seed).shuffle(pool)

    def one_pass():
        factors = {k: cli.parse_algebra_file(t)[1] for k, t in texts.items()}
        products = [tensorcon.tensor_algebras(factors[l], factors[r])
                    for l, r in KUNNETH_PAIRS]
        return [_kunneth_call(products[p], p, i) for p, i in pool]

    return one_pass


def _kunneth_call(t, pair, i):
    seeds = [10000 * pair + 4 * i + j for j in range(4)]
    label = f"kunneth {'x'.join(KUNNETH_PAIRS[pair])} {i}"

    def run():
        m, n = (repcore.random_module(t.left, s, KUNNETH_MAX_DIM)
                for s in seeds[:2])
        mp, np_ = (repcore.random_module(t.right, s, KUNNETH_MAX_DIM)
                   for s in seeds[2:])
        source = tensorcon.tensor_modules(t, m, mp, validate=False)
        target = tensorcon.tensor_modules(t, n, np_, validate=False)
        degrees = range(KUNNETH_DEGREES)
        left = [homengine.ext_dim(m, n, q) for q in degrees]
        right = [homengine.ext_dim(mp, np_, q) for q in degrees]
        prod = [homengine.ext_dim(source, target, q) for q in degrees]
        return left, right, prod

    def check(result):
        left, right, prod = result
        conv = [sum(left[i] * right[q - i] for i in range(q + 1))
                for q in range(KUNNETH_DEGREES)]
        expect(prod == conv, f"{label}: Ext over product {prod}, "
                             f"factor convolution {conv}")
        return f"{left} {right} {prod}"

    return Call(label, run, check)


WORKLOADS = {
    "probe-kron2-q": prepare_probe,
    "probe-kron2-fp": prepare_probe_fp,
    "kunneth-sweep": prepare_kunneth,
    "tilt-present": prepare_tilt,
}
