"""Command line front end: file formats, workspace, and subcommands.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 usage or input
error, 3 undetermined or inconclusive, 4 internal error (a defect, printed
as `internal <Type>: <message>`).  Output is line oriented and
deterministic: `key value` pairs plus `verdict <name> pass|fail <detail>`
lines.
"""

import argparse
import functools
import os
import sys
from typing import Dict, List, Optional, Tuple

from .errors import (InconclusiveError, NotAdmissibleError, ParseError,
                     QtiltError, UndecidedIsomorphismError, WorkspaceError)
from .exactla import Matrix, PrimeField, QQ
from .homengine import (bounded_resolution, ext_dim, gldim, is_finite,
                        tau_finiteness_probe, tau_n, tau_n_minus)
from .quivercore import (Arrow, BoundQuiverAlgebra, Path, PathSum, Quiver,
                         build_algebra, format_path,
                         semisimple_and_basic_flags)
from .repcore import Representation, decompose, direct_sum
from .tensorcon import (kunneth_verify, structural_suite, tensor_algebras,
                        tensor_modules)
from .tilting import (apr_check, apr_cotilting_check, bb_check, count_apr,
                      endo_algebra, present_algebra, verify_tilting)


class Workspace:
    """Loaded algebras and modules, by unique name."""

    def __init__(self):
        self.algebras: Dict[str, BoundQuiverAlgebra] = {}
        self.modules: Dict[str, Tuple[str, Representation]] = {}

    def add_algebra(self, name: str, alg: BoundQuiverAlgebra):
        if name in self.algebras:
            raise WorkspaceError(f"algebra {name} already loaded")
        self.algebras[name] = alg

    def add_module(self, name: str, over: str, rep: Representation):
        if name in self.modules:
            raise WorkspaceError(f"module {name} already loaded")
        if over not in self.algebras:
            raise WorkspaceError(f"module {name} references unknown algebra {over}")
        self.modules[name] = (over, rep)

    def algebra(self, name: str) -> BoundQuiverAlgebra:
        if name not in self.algebras:
            raise WorkspaceError(f"algebra {name} not loaded")
        return self.algebras[name]

    def module(self, name: str) -> Representation:
        if name not in self.modules:
            raise WorkspaceError(f"module {name} not loaded")
        return self.modules[name][1]


# ---------------------------------------------------------------------------
# algebra files


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def _parse_rational_token(field, token, lineno):
    try:
        return field.parse(token)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from exc


def _parse_path_token(quiver, token, lineno):
    if token.startswith("e(") and token.endswith(")"):
        v = token[2:-1]
        if not quiver.has_vertex(v):
            raise ParseError(f"unknown vertex {v}", lineno)
        return Path.trivial(v)
    names = token.split("*")
    try:
        return Path.of(quiver, names)
    except KeyError as exc:
        raise ParseError(f"unknown arrow {exc.args[0]}", lineno) from exc
    except QtiltError as exc:
        raise ParseError(str(exc), lineno) from exc


def field_from_spec(spec: str):
    if spec == "Q":
        return QQ
    if spec.startswith("F"):
        return PrimeField(int(spec[1:]))
    raise ValueError(f"unknown field {spec}")


def parse_algebra_file(text: str, maxdeg: int = 30, field_override=None):
    """(name, algebra) from the line-oriented algebra format."""
    name = None
    field = None
    vertices: List[str] = []
    arrows: List[Arrow] = []
    relation_lines: List[Tuple[int, List[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _strip_comment(raw).split()
        if not tokens:
            continue
        kw = tokens[0]
        if kw == "algebra":
            if len(tokens) != 2:
                raise ParseError("expected: algebra <name>", lineno)
            name = tokens[1]
        elif kw == "field":
            if len(tokens) != 2:
                raise ParseError("expected: field Q|F<p>", lineno)
            try:
                field = field_from_spec(tokens[1])
            except ValueError as exc:
                raise ParseError(str(exc), lineno) from exc
        elif kw == "vertices":
            vertices.extend(tokens[1:])
        elif kw == "arrow":
            if len(tokens) != 6 or tokens[2] != ":" or tokens[4] != "->":
                raise ParseError("expected: arrow <a> : <src> -> <tgt>", lineno)
            arrows.append(Arrow(tokens[1], tokens[3], tokens[5]))
        elif kw == "relation":
            relation_lines.append((lineno, tokens[1:]))
        else:
            raise ParseError(f"unknown keyword {kw}", lineno,
                             column=raw.find(kw) + 1)
    if name is None:
        raise ParseError("missing algebra line", 1)
    if field_override is not None:
        field = field_override
    if field is None:
        field = QQ
    try:
        quiver = Quiver(vertices, arrows)
    except QtiltError as exc:
        raise ParseError(str(exc), 1) from exc
    relations = []
    for lineno, tokens in relation_lines:
        terms = []
        expect = "coeff"
        coeff = None
        for token in tokens:
            if token == "+":
                if expect != "plus":
                    raise ParseError("misplaced + in relation", lineno)
                expect = "coeff"
            elif expect == "coeff":
                coeff = _parse_rational_token(field, token, lineno)
                expect = "path"
            elif expect == "path":
                terms.append((coeff, _parse_path_token(quiver, token, lineno)))
                expect = "plus"
            else:
                raise ParseError("expected + between relation terms", lineno)
        if expect != "plus" or not terms:
            raise ParseError("incomplete relation", lineno)
        try:
            relations.append(PathSum(field, terms))
        except QtiltError as exc:
            raise ParseError(str(exc), lineno) from exc
    try:
        alg = build_algebra(quiver, relations, field, maxdeg=maxdeg, name=name)
    except NotAdmissibleError:
        raise
    except QtiltError as exc:
        raise ParseError(str(exc), 1) from exc
    return name, alg


def _normalized_relation_text(field, rel: PathSum) -> str:
    # leading (lexicographically least) path monic, for stable output
    lead_coeff = rel.terms[0][0]
    inv = field.inv(lead_coeff)
    parts = []
    for c, p in rel.terms:
        scaled = field.canon(c * inv) if field.char == 0 else (c * inv) % field.p
        parts.append(f"{field.fmt(scaled)} {format_path(p)}")
    return " + ".join(parts)


def serialize_algebra(alg: BoundQuiverAlgebra, name: Optional[str] = None) -> str:
    name = name or alg.name
    lines = [f"algebra {name}"]
    lines.append("field Q" if alg.field.char == 0 else f"field F{alg.field.char}")
    lines.append("vertices " + " ".join(alg.quiver.vertices))
    for a in alg.quiver.arrows:
        lines.append(f"arrow {a.name} : {a.source} -> {a.target}")
    for rel in alg.relations:
        lines.append("relation " + _normalized_relation_text(alg.field, rel))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# module files


def _parse_matrix_literal(field, text: str, lineno: int):
    text = text.replace(" ", "")
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError("matrix literal must be bracketed", lineno)
    inner = text[1:-1]
    if not inner:
        return []
    if not (inner.startswith("[") and inner.endswith("]")):
        raise ParseError("matrix rows must be bracketed", lineno)
    rows = []
    for chunk in inner[1:-1].split("],["):
        if chunk == "":
            rows.append([])
        else:
            rows.append([_parse_rational_token(field, tok, lineno)
                         for tok in chunk.split(",")])
    return rows


def parse_module_file(text: str, workspace: Workspace):
    """(name, over, representation) from the module format."""
    name = None
    over = None
    alg = None
    dims: Dict[str, int] = {}
    maps: Dict[str, Matrix] = {}
    pending_maps: List[Tuple[int, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment(raw)
        tokens = stripped.split()
        if not tokens:
            continue
        kw = tokens[0]
        if kw == "module":
            if len(tokens) != 4 or tokens[2] != "over":
                raise ParseError("expected: module <name> over <algebra>", lineno)
            name, over = tokens[1], tokens[3]
            alg = workspace.algebra(over)
        elif kw == "dim":
            if alg is None:
                raise ParseError("dim before module line", lineno)
            for tok in tokens[1:]:
                if "=" not in tok:
                    raise ParseError(f"bad dim entry {tok}", lineno)
                v, d = tok.split("=", 1)
                if not alg.quiver.has_vertex(v):
                    raise ParseError(f"unknown vertex {v}", lineno)
                try:
                    dims[v] = int(d)
                except ValueError as exc:
                    raise ParseError(f"bad dimension {d}", lineno) from exc
                if dims[v] < 0:
                    raise ParseError(f"bad dimension {d}", lineno)
        elif kw == "map":
            if alg is None:
                raise ParseError("map before module line", lineno)
            eq = stripped.find("=")
            if len(tokens) < 3 or eq < 0:
                raise ParseError("expected: map <arrow> = [[...]]", lineno)
            pending_maps.append((lineno, tokens[1], stripped[eq + 1:].strip()))
        else:
            raise ParseError(f"unknown keyword {kw}", lineno)
    if name is None or alg is None:
        raise ParseError("missing module line", 1)
    for lineno, arrow_name, literal in pending_maps:
        try:
            arrow = alg.quiver.arrow(arrow_name)
        except KeyError as exc:
            raise ParseError(f"unknown arrow {arrow_name}", lineno) from exc
        rows = _parse_matrix_literal(alg.field, literal, lineno)
        nrows = dims.get(arrow.target, 0)
        ncols = dims.get(arrow.source, 0)
        if len(rows) not in (0, nrows) or any(len(r) != ncols for r in rows):
            raise ParseError(
                f"map {arrow_name} must be {nrows}x{ncols}", lineno)
        if len(rows) != nrows:
            rows = [[alg.field.zero()] * ncols for _ in range(nrows)]
        maps[arrow_name] = Matrix(alg.field, rows, ncols=ncols)
    try:
        rep = Representation(alg, dims, maps)
    except QtiltError as exc:
        raise ParseError(str(exc), 1) from exc
    return name, over, rep


def serialize_module(rep: Representation, name: str,
                     algebra_name: Optional[str] = None) -> str:
    alg = rep.algebra
    lines = [f"module {name} over {algebra_name or alg.name}"]
    lines.append("dim " + " ".join(f"{v}={rep.dims[v]}"
                                   for v in alg.quiver.vertices))
    for a in alg.quiver.arrows:
        m = rep.mats[a.name]
        body = ", ".join(
            "[" + ", ".join(alg.field.fmt(x) for x in row) + "]"
            for row in m.rows)
        lines.append(f"map {a.name} = [{body}]")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command helpers


def _fmt_dim_vector(rep: Representation) -> str:
    return "(" + ",".join(str(rep.dims[v])
                          for v in rep.algebra.quiver.vertices) + ")"


def _load_algebra(ws: Workspace, path: str, maxdeg: int = 30,
                  field_spec: Optional[str] = None) -> BoundQuiverAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    name, alg = parse_algebra_file(text, maxdeg=maxdeg,
                                   field_override=_field_option(field_spec))
    ws.add_algebra(name, alg)
    return alg


def _field_option(spec: Optional[str]):
    """The field a --field option names, or None; a bad name is a parse
    error."""
    if not spec:
        return None
    try:
        return field_from_spec(spec)
    except ValueError as exc:
        raise ParseError(str(exc), 1) from exc


def _load_module(ws: Workspace, path: str) -> Representation:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    name, over, rep = parse_module_file(text, ws)
    ws.add_module(name, over, rep)
    return rep


def _load_modules(ws: Workspace, *paths: str) -> List[Representation]:
    """The modules in the files at paths, each file loaded once, so one
    file may be named twice (as ``_load_two_algebras`` does for algebras)."""
    loaded = {}
    for path in paths:
        if path not in loaded:
            loaded[path] = _load_module(ws, path)
    return [loaded[path] for path in paths]


def _exit_from_verdicts(lines: List[str]) -> int:
    code = 0
    for line in lines:
        if line.startswith("verdict "):
            parts = line.split()
            if len(parts) >= 3 and parts[2] == "fail":
                return 1
            if len(parts) >= 3 and parts[2] == "undetermined":
                code = max(code, 3)
    return code


def _algebra_info_lines(alg: BoundQuiverAlgebra, bound: int) -> List[str]:
    ss, basic = semisimple_and_basic_flags(alg)
    g = gldim(alg, bound)
    return [
        f"algebra {alg.name}",
        "field Q" if alg.field.char == 0 else f"field F{alg.field.char}",
        f"dimension {alg.dim}",
        f"vertices {len(alg.quiver.vertices)}",
        f"arrows {len(alg.quiver.arrows)}",
        f"relations {len(alg.relations)}",
        f"nilpotency {alg.nilpotency}",
        "basis_by_degree " + " ".join(str(d) for d in alg.dims_by_degree()),
        f"radical_dimension {len(alg.radical_indices())}",
        f"semisimple {'true' if ss else 'false'}",
        f"basic {'true' if basic else 'false'}",
        f"gldim {g}",
    ]


def _presentation_lines(alg: BoundQuiverAlgebra) -> List[str]:
    lines = [
        f"presentation_vertices {len(alg.quiver.vertices)}",
        f"presentation_arrows {len(alg.quiver.arrows)}",
        f"presentation_relations {len(alg.relations)}",
        f"presentation_dimension {alg.dim}",
    ]
    lines.extend(serialize_algebra(alg, name="tilt").rstrip("\n").splitlines())
    return lines


# ---------------------------------------------------------------------------
# subcommand handlers (each returns a list of output lines)


def _info_block(args, ws, path: str) -> List[str]:
    """Load the algebra or module file at path and describe it."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    first = next((t.split()[0] for t in map(_strip_comment, text.splitlines())
                  if t.split()), "")
    if first == "module":
        name, over, rep = parse_module_file(text, ws)
        ws.add_module(name, over, rep)
        return [f"module {name} over {over}",
                f"dim_vector {_fmt_dim_vector(rep)}",
                f"total_dimension {rep.total_dim()}"]
    name, alg = parse_algebra_file(text, maxdeg=args.max_degree,
                                   field_override=_field_option(args.field))
    ws.add_algebra(name, alg)
    return _algebra_info_lines(alg, args.max_resolution)


def _cmd_info(args, ws):
    """One block per named file; a file named twice is loaded once (as
    ``_load_modules`` does) and its block printed at each naming."""
    blocks = {}
    lines = []
    for path in args.files:
        if path not in blocks:
            blocks[path] = _info_block(args, ws, path)
        lines.extend(blocks[path])
    return lines


def _cmd_gldim(args, ws):
    alg = _load_algebra(ws, args.algebra, args.max_degree, args.field)
    g = gldim(alg, args.max_resolution)
    lines = [f"algebra {alg.name}", f"gldim {g}"]
    if not is_finite(g):
        lines.append(f"verdict gldim undetermined bound={args.max_resolution}")
    return lines


def _cmd_ext(args, ws):
    _load_algebra(ws, args.algebra, args.max_degree, args.field)
    m, n = _load_modules(ws, args.module, args.other)
    d = ext_dim(m, n, args.p, args.max_resolution)
    return [f"degree {args.p}", f"ext_dim {d}"]


def _cmd_resolve(args, ws):
    _load_algebra(ws, args.algebra, args.max_degree, args.field)
    m = _load_module(ws, args.module)
    res = bounded_resolution(m, args.max_resolution)
    lines = [f"length {res.length}",
             f"terminated {'true' if res.terminated else 'false'}"]
    for i in range(res.length + 1):
        gens = "+".join(f"P({v})" for v in res.generators(i)) or "0"
        lines.append(f"term{i} {gens}")
    if not res.terminated:
        lines.append(
            f"verdict resolution undetermined bound={args.max_resolution}")
    return lines


def _cmd_tau(args, ws, minus: bool = False):
    _load_algebra(ws, args.algebra, args.max_degree, args.field)
    m = _load_module(ws, args.module)
    result = (tau_n_minus if minus else tau_n)(m, args.n, args.max_resolution)
    lines = [f"n {args.n}",
             f"dim_vector {_fmt_dim_vector(result)}",
             f"zero {'true' if result.is_zero() else 'false'}"]
    if args.output:
        stem = os.path.splitext(os.path.basename(args.output))[0]
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(serialize_module(result, stem))
        lines.append(f"wrote {args.output}")
    return lines


def _cmd_tau_minus(args, ws):
    return _cmd_tau(args, ws, minus=True)


def _cmd_tau_finite(args, ws):
    alg = _load_algebra(ws, args.algebra, args.max_degree, args.field)
    result = tau_finiteness_probe(alg, args.n, args.max_iter,
                                  args.max_resolution)
    lines = []
    if result.verdict == "finite":
        lines.append(f"verdict tau_finite pass l={result.iterations}")
    else:
        lines.append(
            f"verdict tau_finite undetermined iterations={result.iterations}")
    for k, vec in enumerate(result.trace, start=1):
        lines.append(f"trace{k} (" + ",".join(str(x) for x in vec) + ")")
    return lines


def _load_two_algebras(ws, args):
    left = _load_algebra(ws, args.left, args.max_degree, args.field)
    if args.left == args.right:
        right = left
    else:
        right = _load_algebra(ws, args.right, args.max_degree, args.field)
    return left, right


def _cmd_tensor(args, ws):
    left, right = _load_two_algebras(ws, args)
    t = tensor_algebras(left, right)
    lines = _algebra_info_lines(t.algebra, args.max_resolution)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(serialize_algebra(t.algebra))
        lines.append(f"wrote {args.output}")
    return lines


def _cmd_tensor_mod(args, ws):
    left, right = _load_two_algebras(ws, args)
    t = tensor_algebras(left, right)
    ws.add_algebra(t.algebra.name, t.algebra)
    m, n = _load_modules(ws, args.module, args.other)
    if m.algebra is not left or n.algebra is not right:
        raise WorkspaceError("modules must be over the two factor algebras")
    prod = tensor_modules(t, m, n)
    lines = [f"module_dim_vector {_fmt_dim_vector(prod)}",
             f"total_dimension {prod.total_dim()}"]
    if args.algebra_out:
        with open(args.algebra_out, "w", encoding="utf-8") as fh:
            fh.write(serialize_algebra(t.algebra))
        lines.append(f"wrote {args.algebra_out}")
    if args.output:
        stem = os.path.splitext(os.path.basename(args.output))[0]
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(serialize_module(prod, stem))
        lines.append(f"wrote {args.output}")
    return lines


def _cmd_kunneth(args, ws):
    left, right = _load_two_algebras(ws, args)
    t = tensor_algebras(left, right)
    ws.add_algebra(t.algebra.name, t.algebra)
    m, n, mp, np_ = _load_modules(ws, args.m, args.n, args.mprime,
                                  args.nprime)
    rows = kunneth_verify(t, m, n, mp, np_, args.pmax, args.max_resolution)
    lines = []
    for q, lhs, rhs in rows:
        ok = "pass" if lhs == rhs else "fail"
        lines.append(f"verdict kunneth_q{q} {ok} product={lhs},convolution={rhs}")
    return lines


def _check(args, ws, checker):
    """(report, output lines) of a vertex check on the named algebra."""
    alg = _load_algebra(ws, args.algebra, args.max_degree, args.field)
    report = checker(alg, args.vertex, args.n, maxlen=args.max_resolution)
    return report, [f"algebra {alg.name}", f"vertex {args.vertex}",
                    f"n {args.n}"] + report.verdict_lines()


def _cmd_apr_check(args, ws):
    return _check(args, ws, apr_check)[1]


def _cmd_bb_check(args, ws):
    return _check(args, ws, bb_check)[1]


def _summand_lines(summands) -> List[str]:
    return [f"summand {label} dim {_fmt_dim_vector(rep)}"
            for label, rep in summands]


def _present_endo(t):
    """(End(T)^op, its bookkeeping, its presentation) for a module or a
    labelled summand list; the summand identities are the idempotents and
    their labels name the vertices."""
    sca, data = endo_algebra(t)
    pres = present_algebra(sca, idempotents=data.idempotents,
                           labels=[l for l, _ in data.summands])
    return sca, data, pres


def _tilt_common(args, ws, checker):
    report, lines = _check(args, ws, checker)
    if report.summands is None:
        return lines
    lines.extend(_summand_lines(report.summands))
    if args.output:
        stem = os.path.splitext(os.path.basename(args.output))[0]
        t = direct_sum([u for _, u in report.summands])
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(serialize_module(t, stem))
        lines.append(f"wrote {args.output}")
    if args.present:
        lines.extend(_presentation_lines(
            _present_endo(report.summands)[2]))
    return lines


def _cmd_apr_tilt(args, ws):
    return _tilt_common(args, ws, apr_check)


def _cmd_bb_tilt(args, ws):
    return _tilt_common(args, ws, bb_check)


def _cmd_cotilt_check(args, ws):
    report, lines = _check(args, ws, apr_cotilting_check)
    return lines + _summand_lines(report.summands or ())


def _cmd_verify_tilting(args, ws):
    alg = _load_algebra(ws, args.algebra, args.max_degree, args.field)
    t = _load_module(ws, args.module)
    cert = verify_tilting(alg, decompose(t), args.m, args.max_resolution)
    return cert.verdict_lines()


def _cmd_present_endo(args, ws):
    _load_algebra(ws, args.algebra, args.max_degree, args.field)
    t = _load_module(ws, args.module)
    sca, data, pres = _present_endo(t)
    return [f"summands {len(data.summands)}",
            f"basicized {'true' if data.basicized else 'false'}",
            f"endo_dimension {sca.dim}"] + _presentation_lines(pres)


def _cmd_count_apr(args, ws):
    alg = _load_algebra(ws, args.algebra, args.max_degree, args.field)
    count, witnesses = count_apr(alg, args.n, args.max_resolution)
    lines = [f"count {count}"]
    for rep in witnesses:
        lines.append(f"witness {rep.vertex}")
    return lines


def _cmd_props(args, ws):
    left, right = _load_two_algebras(ws, args)
    t = tensor_algebras(left, right)
    results = structural_suite(t, seed=args.seed, module_count=args.modules,
                               maxlen=args.max_resolution)
    return [f"verdict {name} {'pass' if ok else 'fail'} {detail}"
            for name, ok, detail in results]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser.  It records only the command name: ``dispatch``
    looks up ``_cmd_<name>`` and, for ``props``, the ``QTILT_SEED``
    default when it runs, so one parser serves every call in a process."""
    parser = argparse.ArgumentParser(
        prog="qtilt",
        description="exact computations with bound quiver algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--max-degree", type=int, default=30)
        p.add_argument("--max-resolution", type=int, default=64)
        p.add_argument("--field", help="override the file's field (Q or F<p>)")

    p = sub.add_parser("info", help="describe algebra or module files")
    p.add_argument("files", nargs="+")
    common(p)

    p = sub.add_parser("gldim")
    p.add_argument("algebra")
    common(p)

    p = sub.add_parser("ext")
    p.add_argument("algebra")
    p.add_argument("module")
    p.add_argument("other")
    p.add_argument("--p", type=int, required=True)
    common(p)

    p = sub.add_parser("resolve")
    p.add_argument("algebra")
    p.add_argument("module")
    common(p)

    p = sub.add_parser("tau")
    p.add_argument("algebra")
    p.add_argument("module")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("-o", "--output")
    common(p)

    p = sub.add_parser("tau-minus")
    p.add_argument("algebra")
    p.add_argument("module")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("-o", "--output")
    common(p)

    p = sub.add_parser("tau-finite")
    p.add_argument("algebra")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-iter", type=int, default=10)
    common(p)

    p = sub.add_parser("tensor")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-o", "--output")
    common(p)

    p = sub.add_parser("tensor-mod")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("module")
    p.add_argument("other")
    p.add_argument("-o", "--output")
    p.add_argument("--algebra-out")
    common(p)

    p = sub.add_parser("kunneth")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("m")
    p.add_argument("n")
    p.add_argument("mprime")
    p.add_argument("nprime")
    p.add_argument("--pmax", type=int, default=4)
    common(p)

    for cmd in ("apr-check", "bb-check", "cotilt-check"):
        p = sub.add_parser(cmd)
        p.add_argument("algebra")
        p.add_argument("--vertex", required=True)
        p.add_argument("--n", type=int, required=True)
        common(p)

    for cmd in ("apr-tilt", "bb-tilt"):
        p = sub.add_parser(cmd)
        p.add_argument("algebra")
        p.add_argument("--vertex", required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--present", action="store_true")
        p.add_argument("-o", "--output")
        common(p)

    p = sub.add_parser("verify-tilting")
    p.add_argument("algebra")
    p.add_argument("module")
    p.add_argument("--m", type=int, required=True)
    common(p)

    p = sub.add_parser("present-endo")
    p.add_argument("algebra")
    p.add_argument("module")
    common(p)

    p = sub.add_parser("count-apr")
    p.add_argument("algebra")
    p.add_argument("--n", type=int, required=True)
    common(p)

    p = sub.add_parser("props")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--modules", type=int, default=4)
    p.add_argument("--seed", type=int, default=None,
                   help="seed of the random modules; default: $QTILT_SEED, "
                        "else 0")
    common(p)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def dispatch(argv) -> Tuple[int, str]:
    """Run a command line; returns (exit code, report text)."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return (2 if exc.code not in (0, None) else 0), ""
    if getattr(args, "seed", 0) is None:
        try:
            args.seed = int(os.environ.get("QTILT_SEED", "0"))
        except ValueError:
            return 2, "error QTILT_SEED is not an integer\n"
    command = globals()["_cmd_" + args.command.replace("-", "_")]
    ws = Workspace()
    try:
        lines = command(args, ws)
    except (ParseError, WorkspaceError, NotAdmissibleError, OSError) as exc:
        return 2, f"error {exc}\n"
    except (InconclusiveError, UndecidedIsomorphismError) as exc:
        return 3, f"inconclusive {exc}\n"
    except QtiltError as exc:
        return 2, f"error {exc}\n"
    except Exception as exc:  # a defect, never a verdict
        return 4, f"internal {type(exc).__name__}: {exc}\n"
    text = "\n".join(lines) + ("\n" if lines else "")
    return _exit_from_verdicts(lines), text


def main(argv=None) -> int:
    code, text = dispatch(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
