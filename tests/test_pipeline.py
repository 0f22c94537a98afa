from tablezeta.dirichlet import factor_degrees_mod_p
from tablezeta.families import drt, fusion
from tablezeta.pipeline import analyze, verify_order, zeta_series


def test_verify_drt1_to_100():
    res = verify_order(drt(1), 100)
    assert res.passed
    assert res.deltas == {7: (1, -1, 7)}


def test_verify_reports_deltas_for_conservative_primes():
    # psu5l2 is maximal: no bad primes at all, so no deltas to infer
    res = verify_order(fusion("psu5l2"), 30)
    assert res.passed and res.deltas == {}


def test_zeta_series_matches_verify_assembly():
    t = fusion("reps3")
    series = zeta_series(t, 48)
    res = verify_order(t, 48)
    assert series.coefficients == res.assembled.coefficients == res.oracle.coefficients


def test_unramified_degrees_sum_to_field_degree():
    rings = analyze(fusion("psu5l2")).order.rings
    ring = rings[0]
    for p in (2, 3, 5, 11, 13):
        degs = factor_degrees_mod_p(ring.defining_poly, p)
        assert sum(d for d, _ in degs) == 3
        assert all(mult == 1 for _, mult in degs)
    # ramified at 7: one prime of residue degree 1
    assert factor_degrees_mod_p(ring.defining_poly, 7) == [(1, 3)]
