from dataclasses import replace

import pytest
from mpmath import mpf

from ddroots.core import HPVector, PrecisionContext, inf_norm
from ddroots.divdiff import D1, D2, DividedDifferenceKind
from ddroots.efficiency import estimate_mu
from ddroots.methods import MethodKind
from ddroots.problems import (
    REGISTRY,
    broyden_tridiagonal,
    generate_reference_root,
    load_reference_root,
    printed_prefix_matches,
    reference_root_digits,
)


def test_registry_contents():
    assert set(REGISTRY) == {"exp5", "quad2", "cos3"}
    for spec in REGISTRY.values():
        assert len(spec.x0) == spec.m
        assert len(spec.root_printed) == spec.m
        for (method, dd), row in spec.rows.items():
            assert isinstance(method, MethodKind)
            assert row.iterations > 0
        assert next(iter(spec.rows)) == (MethodKind.PHI0, D1)


def test_registry_dimensions_and_mu():
    assert REGISTRY["exp5"].m == 5 and REGISTRY["exp5"].mu_paper == "87.8"
    assert REGISTRY["quad2"].m == 2 and REGISTRY["quad2"].mu_paper == "1.5"
    assert REGISTRY["cos3"].m == 3 and REGISTRY["cos3"].mu_paper == "113.3"
    assert REGISTRY["exp5"].d1_order_preserving
    assert not REGISTRY["quad2"].d1_order_preserving
    assert not REGISTRY["cos3"].d1_order_preserving


def test_effective_orders():
    exp5, quad2 = REGISTRY["exp5"], REGISTRY["quad2"]
    assert exp5.effective_order(MethodKind.PHI1, D1) == 4
    assert exp5.effective_order(MethodKind.PHI2, D1) == 6
    assert quad2.effective_order(MethodKind.PHI1, D1) == 3
    assert quad2.effective_order(MethodKind.PHI2, D1) == 4
    assert quad2.effective_order(MethodKind.PHI2, D2) == 6
    assert quad2.effective_order(MethodKind.PHI0, D1) == 2


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_effective_order_reads_strings_as_enums_and_gives_the_published_order(name):
    spec = REGISTRY[name]
    for method in MethodKind:
        for dd in DividedDifferenceKind:
            assert spec.effective_order(method.value, dd.value) == spec.effective_order(method, dd)
    for (method, dd), row in spec.rows.items():
        assert spec.effective_order(method, dd) == row.order


def test_op_profiles_price_mu():
    # two of the three published ratios follow from the cost table directly
    assert estimate_mu(REGISTRY["exp5"].op_profile, m=5) == pytest.approx(87.8)
    assert estimate_mu(REGISTRY["quad2"].op_profile, m=2) == pytest.approx(1.5)
    # the trigonometric system's published 113.3 is kept verbatim instead
    assert estimate_mu(REGISTRY["cos3"].op_profile, m=3) == pytest.approx(114.0)


def test_stored_roots_are_roots():
    for spec in REGISTRY.values():
        digits = reference_root_digits(spec.name)
        assert digits >= 8192
        check = PrecisionContext(4200)
        with check.activate():
            system = spec.build_system(with_reference=False)
            root = HPVector.from_decimals(load_reference_root(spec.name))
            residual = inf_norm(system.eval(root))
            assert residual <= mpf(10) ** -4000
            for value, printed in zip(root, spec.root_printed):
                assert printed_prefix_matches(value, printed)


def test_reference_root_attached_by_builder():
    with PrecisionContext(128).activate():
        system = REGISTRY["quad2"].build_system()
        assert system.reference_root is not None
        assert system.reference_root.m == 2
        bare = REGISTRY["quad2"].build_system(with_reference=False)
        assert bare.reference_root is None


def test_a_shared_reference_root_cannot_be_altered():
    # every system built at one precision shares the cached root
    with PrecisionContext(128).activate():
        root = REGISTRY["quad2"].build_system().reference_root
        before = [e._mpf_ for e in root]
        with pytest.raises(AttributeError):
            root.entries = (mpf(0), mpf(0))
        with pytest.raises(AttributeError):
            del root.entries
        again = REGISTRY["quad2"].build_system().reference_root
        assert again is root and [e._mpf_ for e in again] == before


def test_reference_roots_are_parsed_at_each_precision():
    # a root parsed once per precision equals a fresh parse at that
    # precision, whichever precision came before
    for digits in (64, 128, 64):
        with PrecisionContext(digits).activate():
            for spec in REGISTRY.values():
                root = spec.build_system().reference_root
                fresh = HPVector.from_decimals(load_reference_root(spec.name))
                assert [e._mpf_ for e in root] == [e._mpf_ for e in fresh]
                assert spec.build_system().reference_root is root


def test_printed_prefix_matcher():
    with PrecisionContext(64).activate():
        assert printed_prefix_matches(mpf("6.4634633739496"), "6.463463374")
        assert printed_prefix_matches(mpf("0.33543673964"), "0.335436739")
        assert not printed_prefix_matches(mpf("6.4634650"), "6.463463374")


def test_generate_reference_root_round_trip():
    # regeneration at modest precision agrees with the stored root
    spec = REGISTRY["quad2"]
    fresh = generate_reference_root(spec, digits=384, guard=32)
    with PrecisionContext(384).activate():
        stored = HPVector.from_decimals(load_reference_root("quad2"))
        regenerated = HPVector.from_decimals(fresh)
        assert inf_norm(regenerated - stored) <= mpf(10) ** -380
    # a root that disagrees with its printed digits is refused
    with pytest.raises(ValueError, match="quad2: recomputed root disagrees with printed digits"):
        generate_reference_root(replace(spec, root_printed=("3.1", "0.3")), digits=64)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_generate_reference_root_reproduces_the_stored_root(name):
    # the packaged roots were generated at 8192 digits with a 64-digit guard;
    # regenerating them must give the same decimal strings
    assert generate_reference_root(REGISTRY[name]) == load_reference_root(name)


@pytest.mark.parametrize("m", [2.5, 2.0, "3", 0, -1])
def test_broyden_tridiagonal_refuses_a_dimension_that_is_not_a_positive_integer(m):
    # 2.5 raised TypeError from range(), and 0 returned no components
    with pytest.raises(ValueError, match=rf"at least 1, as an integer, got {m!r}"):
        broyden_tridiagonal(m)


def test_broyden_tridiagonal_of_dimension_one_has_no_neighbours():
    (component,) = broyden_tridiagonal(1)
    assert component([mpf(2)]) == (3 - 4) * 2 + 1


def test_x0_vectors_parse():
    with PrecisionContext(96).activate():
        for spec in REGISTRY.values():
            x0 = spec.x0_vector()
            assert x0.m == spec.m
