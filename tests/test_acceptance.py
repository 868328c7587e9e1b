"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single `ACCEPTANCE <k> <name>: PASS` line once all of
its assertions hold, so a verbose run doubles as a checklist.
"""

import pytest

from qtilt.exactla import Matrix, QQ
from qtilt.homengine import (ext_dim, gldim, pd, tau_finiteness_probe, tau_n,
                             tau_n_minus)
from qtilt.quivercore import opposite
from qtilt.repcore import (decompose, direct_sum, dual, inj, is_isomorphic,
                           proj, random_module, simple)
from qtilt.tensorcon import (kunneth_verify, structural_suite, tensor_algebras,
                             tensor_modules)
from qtilt.tilting import (apr_check, count_apr, endo_algebra,
                           present_algebra, verify_tilting)

from conftest import (arrow_count, make_a2, make_a3, make_a3_nilpotent,
                      make_kronecker, make_loop_nilpotent, make_semisimple,
                      make_square)
from oracles import tau_n_ext, tau_n_minus_ext


def report(k, name):
    print(f"ACCEPTANCE {k} {name}: PASS")


def test_acceptance_1_kronecker_one_apr_tilt(kron):
    rep = apr_check(kron, "1", 1)
    assert rep.weak and rep.full
    dims = sorted(r.dim_vector() for _, r in rep.summands)
    assert dims == [(2, 1), (3, 2)]
    sca, data = endo_algebra(rep.summands)
    pres = present_algebra(sca, idempotents=data.idempotents,
                           labels=[l for l, _ in data.summands])
    assert len(pres.quiver.vertices) == 2
    assert len(pres.quiver.arrows) == 2
    endpoints = {(a.source, a.target) for a in pres.quiver.arrows}
    assert len(endpoints) == 1  # two parallel arrows
    assert len(pres.relations) == 0
    report(1, "kronecker 1-APR tilt")


def test_acceptance_2_tensor_algebra_statistics(kron2):
    alg = kron2.algebra
    assert len(alg.quiver.vertices) == 4
    assert len(alg.quiver.arrows) == 8
    assert len(alg.relations) == 4
    assert all(r.min_degree() == r.max_degree() == 2 for r in alg.relations)
    assert alg.dim == 16
    assert gldim(alg) == 2
    report(2, "tensor algebra statistics")


def test_acceptance_3_two_apr_over_tensor_square(kron2):
    v11 = kron2.vertex("1", "1")
    rep = apr_check(kron2.algebra, v11, 2)
    assert rep.weak and rep.full
    translate = dict(rep.summands)[v11]
    assert translate.dim_vector() == (9, 6, 6, 4)
    p3 = tau_n_minus(proj(kron2.left, "1"), 1)
    assert is_isomorphic(translate, tensor_modules(kron2, p3, p3))
    cert = verify_tilting(kron2.algebra,
                          [(u, 1) for _, u in rep.summands], 2)
    assert cert.passed
    sca, data = endo_algebra(rep.summands)
    pres = present_algebra(sca, idempotents=data.idempotents,
                           labels=[l for l, _ in data.summands])
    assert len(pres.quiver.vertices) == 4
    v12, v21, v22 = (kron2.vertex("1", "2"), kron2.vertex("2", "1"),
                     kron2.vertex("2", "2"))
    assert arrow_count(pres.quiver, v22, v12) == 2
    assert arrow_count(pres.quiver, v22, v21) == 2
    assert arrow_count(pres.quiver, v11, v22) == 4
    assert len(pres.quiver.arrows) == 8
    quadratic = [r for r in pres.relations
                 if r.min_degree() == 2 and r.max_degree() == 2]
    assert len(quadratic) == len(pres.relations) == 4
    # kernel oracle: the degree-2 kernel of the presentation surjection has
    # total dimension (#paths - #degree-2 basis elements) summed over blocks
    from oracles import paths_of_degree
    blocks = {}
    for p in paths_of_degree(pres.quiver, 2):
        blocks.setdefault((p.source, p.target), []).append(p)
    kernel_total = 0
    for (src, tgt), paths in blocks.items():
        img = sum(1 for b in pres.basis
                  if b.degree == 2 and b.source == src and b.target == tgt)
        kernel_total += len(paths) - img
    assert kernel_total == 4
    report(3, "2-APR tilt over the tensor square")


def test_acceptance_4_kunneth_sweep(kron, a2, kronxa2):
    def family(alg):
        return {
            "S1": simple(alg, "1"),
            "S2": simple(alg, "2"),
            "P1": proj(alg, "1"),
            "P2": proj(alg, "2"),
            "I2": inj(alg, "2"),
        }

    left = family(kron)
    right = family(a2)
    lefts = [(a, b) for a in left.values() for b in left.values()]
    rights = [(c, d) for c in right.values() for d in right.values()]
    # precompute factor ext dimensions
    checks = 0
    sources = {}
    for m, mp in ((m, mp) for m in left.values() for mp in right.values()):
        sources[(id(m), id(mp))] = tensor_modules(kronxa2, m, mp,
                                                  validate=False)
    for m, n in lefts:
        ldims = [ext_dim(m, n, i) for i in range(5)]
        for mp, np_ in rights:
            rdims = [ext_dim(mp, np_, j) for j in range(5)]
            source = sources[(id(m), id(mp))]
            target = sources[(id(n), id(np_))]
            for q in range(5):
                lhs = ext_dim(source, target, q)
                rhs = sum(ldims[i] * rdims[q - i] for i in range(q + 1))
                assert lhs == rhs, (q, lhs, rhs)
            checks += 1
    assert checks == 625
    report(4, f"kunneth sweep ({checks} quadruples, degrees 0..4)")


def test_acceptance_5_tau_factorization(a2xa2):
    count = 0
    seed = 0
    while count < 10:
        m = random_module(a2xa2.left, seed=seed, max_dim=3)
        n = random_module(a2xa2.right, seed=seed + 1000, max_dim=3)
        seed += 1
        prod = tensor_modules(a2xa2, m, n, validate=False)
        lhs = tau_n(prod, 2)
        rhs = tensor_modules(a2xa2, tau_n(m, 1), tau_n(n, 1), validate=False)
        assert lhs.dim_vector() == rhs.dim_vector()
        if lhs.is_zero():
            assert rhs.is_zero()
        else:
            assert is_isomorphic(lhs, rhs)
        count += 1
    report(5, "tau factorization on 10 random product modules")


def test_acceptance_6_tau_finiteness(a2, a2xa2, kron2):
    r = tau_finiteness_probe(a2, 1, max_iter=10)
    assert r.verdict == "finite" and r.iterations == 2
    r = tau_finiteness_probe(a2xa2.algebra, 2, max_iter=10)
    assert r.verdict == "finite"
    r = tau_finiteness_probe(kron2.algebra, 2, max_iter=10)
    assert r.verdict == "undetermined"
    assert len(r.trace) == 10
    assert all(sum(vec) > 0 for vec in r.trace)
    report(6, "tau finiteness verdicts (A2, A2xA2, Kronecker square)")


def test_acceptance_7_structural_suite():
    # fixed corpus of six algebras; five products, twenty seeded random
    # modules in total (two pairs each)
    kron = make_kronecker()
    a2 = make_a2()
    a3 = make_a3()
    a3nil = make_a3_nilpotent()
    loop2 = make_loop_nilpotent()
    ss2 = make_semisimple(2)
    pairs = [(kron, a2), (a2, a3nil), (a3, ss2), (loop2, a2), (ss2, kron)]
    total_failures = []
    for k, (left, right) in enumerate(pairs):
        t = tensor_algebras(left, right)
        results = structural_suite(t, seed=100 + k, module_count=2)
        for name, ok, detail in results:
            if not ok:
                total_failures.append((left.name, right.name, name, detail))
    assert not total_failures, total_failures
    report(7, f"structural suite over {len(pairs)} products")


def test_acceptance_8_tau_dual_definition_agreement():
    corpus = [(make_kronecker(), 1), (make_a2(), 1), (make_a3(), 1),
              (make_a3_nilpotent(), 2), (make_semisimple(2), 1),
              (make_square(), 2)]
    checked = 0
    for alg, n in corpus:
        g = gldim(alg)
        assert g <= n
        test_modules = [simple(alg, v) for v in alg.quiver.vertices]
        for seed in (1, 2):
            m = random_module(alg, seed=seed)
            stable = [rep for rep, mult in decompose(m)
                      if pd(rep) != 0 for _ in range(1)]
            if stable:
                test_modules.append(stable[0] if len(stable) == 1 else
                                    direct_sum(stable))
        for m in test_modules:
            a = tau_n(m, n)
            b = tau_n_ext(m, n)
            assert a.dim_vector() == b.dim_vector()
            if not a.is_zero():
                assert is_isomorphic(a, b)
            am = tau_n_minus(m, n)
            bm = tau_n_minus_ext(m, n)
            assert am.dim_vector() == bm.dim_vector()
            if not am.is_zero():
                assert is_isomorphic(am, bm)
            checked += 1
    report(8, f"tau dual-definition agreement on {checked} modules")


def test_acceptance_9_apr_counts(kron, kron2):
    c1, w1 = count_apr(kron, 1)
    assert c1 == 1 and w1[0].vertex == "1"
    c2, w2 = count_apr(kron2.algebra, 2)
    assert c2 == 1 and w2[0].vertex == kron2.vertex("1", "1")
    assert c2 == c1 * c1
    report(9, "APR counts multiply")
