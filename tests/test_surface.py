"""The package's public surface is the concatenation of its modules' lists."""

import pytest

import warpgeo
from warpgeo import connect, geodesics, geometry, isometry, riccati, warp

MODULES = (warp, geometry, riccati, geodesics, connect, isometry)

# Every name the package exported while it kept its own list; scripts and
# the acceptance suite import these from the package.
PUBLIC_NAMES = (
    "AffineMap", "ChordCandidate", "ChordParam", "ConnectResult",
    "ConnectionCoeffs", "CurvatureProfile", "DOMAIN_MARGIN", "Domain", "DomainError",
    "ESCAPE_MARGIN", "FlatGeodesic", "GeodesicPath", "GeodesicState",
    "HField", "IsometryReport", "Neg2Geodesic", "Point", "RiccatiReport",
    "SameRCandidate", "TangentVector", "WarpFunction", "WarpSpec", "affine_act",
    "analytic_flat", "analytic_neg2", "apply_J", "chord_angle", "classify",
    "connect_flat", "connect_neg2", "connect_neg2_same_r", "connection",
    "constant_profile", "cr_residual", "curvature_oracle", "distance_flat",
    "escape_length", "flat_chord_candidates", "frame_components", "integrate",
    "inverse_square_profile", "kahler_form", "make_warp", "metric_at",
    "path_length", "path_length_quadrature", "projected_distance",
    "pullback_residual", "same_r_candidates", "sectional_curvature",
    "solve_prescribed", "transitivity_witness", "transverse_unit_b_form",
    "vector_from_frame", "verify_riccati", "warp_custom", "warp_exp", "warp_flat",
    "warp_neg2", "warp_one_over_r", "warp_r",
)


def test_all_is_the_module_lists_without_duplicates():
    expected = [name for mod in MODULES for name in mod.__all__]
    assert warpgeo.__all__ == expected
    assert len(set(expected)) == len(expected)


def test_every_name_resolves_to_its_module_binding():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(warpgeo, name) is getattr(mod, name), name


def test_no_public_name_lost():
    assert len(PUBLIC_NAMES) == 61
    assert set(PUBLIC_NAMES) <= set(warpgeo.__all__)
    assert {"DEFAULT_TOL", "UNIT_SPEED_TOL"} <= set(warpgeo.__all__)


def test_aliases_are_bindings():
    assert warpgeo.analytic_flat is warpgeo.warp_flat
    assert warpgeo.analytic_neg2 is warpgeo.warp_neg2
    m, p = warpgeo.AffineMap(2.0, 0.5), warpgeo.Point(1.5, -1.0)
    assert warpgeo.affine_act(m, p) == m.apply(p) == warpgeo.Point(3.0, -1.5)


# Settings that are module constants now; passing one is a TypeError.
REMOVED_KEYWORDS = {
    "integrate-rtol": lambda: warpgeo.integrate(
        warpgeo.warp_r(), warpgeo.GeodesicState(1.0, 0.0, 1.0, 0.0), 1.0, rtol=1e-9),
    "integrate-atol": lambda: warpgeo.integrate(
        warpgeo.warp_r(), warpgeo.GeodesicState(1.0, 0.0, 1.0, 0.0), 1.0, atol=1e-9),
    "solve_prescribed-rtol": lambda: warpgeo.solve_prescribed(
        warpgeo.constant_profile(0.0), 1.0, 0.0, (0.5, 2.0), rtol=1e-9),
    "classify-r_range": lambda: warpgeo.classify(
        warpgeo.warp_r(), warpgeo.AffineMap(1.0), r_range=(0.1, 5.0)),
    "classify-t_range": lambda: warpgeo.classify(
        warpgeo.warp_r(), warpgeo.AffineMap(1.0), t_range=(-3.0, 3.0)),
    "pullback_residual-seed": lambda: warpgeo.pullback_residual(
        warpgeo.warp_r(), warpgeo.AffineMap(1.0), [warpgeo.Point(1.0, 0.0)], seed=0),
    "pullback_residual-vectors": lambda: warpgeo.pullback_residual(
        warpgeo.warp_r(), warpgeo.AffineMap(1.0), [],
        vectors=[warpgeo.TangentVector(1.0, 0.0, warpgeo.Point(1.0, 0.0))]),
    "warp_custom-check": lambda: warpgeo.warp_custom(
        lambda r: r, domain=(0.0, 1.0), check=False),
    "make_warp-domain": lambda: warpgeo.make_warp("r", domain=(1.0, 2.0)),
    "sample-n": lambda: warpgeo.Domain(0.0).sample(17),
}


@pytest.mark.parametrize("call", REMOVED_KEYWORDS.values(), ids=REMOVED_KEYWORDS)
def test_removed_keyword_raises_type_error(call):
    with pytest.raises(TypeError):
        call()
