import numpy as np
import pytest

from torusflow import (
    GridSpec,
    SpectralField,
    almost_orthogonality_ratio,
    bernstein_check,
    commutator_bound_ratio,
    commutator_constant,
    dyadic_block,
    heat_semigroup,
    l2_norm,
    paraproduct_decompose,
    random_solenoidal_init,
    reassemble,
    shear_init,
    taylor_green_init,
)
from torusflow.dyadic import BERNSTEIN_CONSTANTS, block_weights, chi
from torusflow.errors import IndexOutOfRange, NotSolenoidal, SupportViolation, ZeroField
from torusflow.spectral import advect


def single_mode(grid, k, component=1, amp=0.5):
    n = grid.n
    c = np.zeros((3, n, n, n), dtype=complex)
    c[component, k[0] % n, k[1] % n, k[2] % n] = amp
    c[component, -k[0] % n, -k[1] % n, -k[2] % n] = amp
    return SpectralField.from_full(grid, c)


def test_chi_profile_values():
    assert chi(1.0) == 1.0
    assert chi(2.0) == 0.0
    assert chi(0.5) == 0.0
    assert chi(0.0) == 0.0
    r = np.linspace(0.1, 3.0, 1000)
    vals = chi(r)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_partition_of_unity_over_resolved_radii():
    r = np.linspace(1.0, 64.0, 200001)
    total = sum(chi(r / 2.0**j) for j in range(0, 12))
    assert np.max(np.abs(total - 1.0)) <= 1e-12


def test_partition_overlap_at_most_two():
    r = np.linspace(1.0, 64.0, 20001)
    count = sum((chi(r / 2.0**j) > 0.0).astype(int) for j in range(0, 12))
    assert np.max(count) <= 2


def test_single_mode_block_assignment(grid16):
    u = single_mode(grid16, (4, 0, 0))
    table = block_weights(grid16)
    assert block_weights(GridSpec(16)) is table  # one table per grid
    # |k| = 4 at j = 2 sits on the chi plateau: the block recovers u exactly
    np.testing.assert_array_equal(dyadic_block(u, 2).coeffs, u.coeffs)
    for j in list(table)[1:]:
        if j != 2:
            assert l2_norm(dyadic_block(u, j)) == 0.0
    assert l2_norm(dyadic_block(u, -1)) == 0.0


def test_block_weights_is_one_read_only_table_per_grid(grid16):
    table = block_weights(grid16)
    assert block_weights(GridSpec(16)) is table
    # the corner |k| = 8 sqrt(3) ~ 13.9 is last covered by chi(|k| / 2^4)
    assert list(table) == [-1, 0, 1, 2, 3, 4]
    with pytest.raises(TypeError):
        table[5] = table[0]
    for w in table.values():
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0, 0, 0] = 0.5


def test_block_annulus_support(grid16, random_fields_16):
    r = grid16.k_magnitude
    for j in list(block_weights(grid16))[1:]:
        blk = dyadic_block(random_fields_16[0], j)
        outside = (r < 2.0 ** (j - 1)) | (r > 2.0 ** (j + 1))
        assert np.max(np.abs(blk.coeffs[:, outside])) == 0.0


def test_block_index_range(grid16, random_fields_16):
    jmax = max(block_weights(grid16))
    with pytest.raises(IndexOutOfRange):
        dyadic_block(random_fields_16[0], jmax + 1)
    with pytest.raises(IndexOutOfRange):
        dyadic_block(random_fields_16[0], -2)


def test_zero_field_blocks(grid16):
    zero = SpectralField.from_full(grid16, np.zeros((3, 16, 16, 16), dtype=complex))
    for j in block_weights(grid16):
        assert l2_norm(dyadic_block(zero, j)) == 0.0


def test_reassembly_50_random_fields(grid16):
    for seed in range(50):
        u = random_solenoidal_init(grid16, 1.5, seed)
        re = reassemble(u)
        rel = np.max(np.abs(re.coeffs - u.coeffs)) / np.max(np.abs(u.coeffs))
        assert rel <= 1e-12


def test_almost_orthogonality_single_plateau_mode(grid16):
    u = single_mode(grid16, (4, 0, 0))
    assert almost_orthogonality_ratio(u) == pytest.approx(1.0, abs=1e-14)


def test_almost_orthogonality_equal_overlap(grid16):
    # |k| = 2 sqrt(2) = 2^{3/2} sits exactly between blocks 1 and 2 where the
    # ramps cross at weight 1/2 each: ratio = 2 * (1/2)^2 = 1/2
    u = single_mode(grid16, (2, 2, 0))
    assert almost_orthogonality_ratio(u) == pytest.approx(0.5, abs=1e-12)


def test_almost_orthogonality_range_100_fields(grid16):
    for seed in range(100):
        u = random_solenoidal_init(grid16, 1.0, seed)
        ratio = almost_orthogonality_ratio(u)
        assert 0.5 <= ratio <= 1.0


def test_almost_orthogonality_zero_field(grid16):
    zero = SpectralField.from_full(grid16, np.zeros((3, 16, 16, 16), dtype=complex))
    with pytest.raises(ZeroField):
        almost_orthogonality_ratio(zero)


def test_bernstein_single_mode_ratio(grid16):
    u = single_mode(grid16, (3, 0, 0))
    lhs, rhs = bernstein_check(u, 2, (1, 0, 0), 2, 2)
    assert lhs / rhs == pytest.approx(0.75, abs=1e-12)


def test_bernstein_identity_case(grid16, random_fields_16):
    blk = dyadic_block(random_fields_16[2], 2)
    lhs, rhs = bernstein_check(blk, 2, (0, 0, 0), 2, 2)
    assert lhs / rhs == pytest.approx(1.0, rel=1e-12)


def test_bernstein_support_violation(grid16, random_fields_16):
    with pytest.raises(SupportViolation):
        bernstein_check(random_fields_16[0], 2, (1, 0, 0), 2, 2)


def test_bernstein_validates_exponent_order(grid16):
    u = single_mode(grid16, (3, 0, 0))
    with pytest.raises(ValueError):
        bernstein_check(u, 2, (0, 0, 0), 2, 1)


def test_bernstein_calibrated_battery(grid32):
    for seed in range(50):
        u = random_solenoidal_init(grid32, 1.0, 1000 + seed)
        for j in (1, 2, 3):
            blk = dyadic_block(u, j)
            if l2_norm(blk) < 1e-14:
                continue
            for (alpha, p, q), c_b in BERNSTEIN_CONSTANTS.items():
                lhs, rhs = bernstein_check(blk, j, alpha, p, q)
                assert lhs <= c_b * rhs
                if alpha in ((1, 0, 0), (0, 1, 0), (0, 0, 1)) and p == 2 and q == 2:
                    assert lhs <= 2.0 * rhs


def test_paraproduct_shear_all_zero(grid16):
    p1, p2, p3 = paraproduct_decompose(shear_init(grid16))
    assert l2_norm(p1) <= 1e-14
    assert l2_norm(p2) <= 1e-14
    assert l2_norm(p3) <= 1e-14


def test_paraproduct_reassembles_taylor_green(grid16):
    tg = taylor_green_init(grid16)
    p1, p2, p3 = paraproduct_decompose(tg)
    direct = advect(tg, tg)
    total = p1.coeffs + p2.coeffs + p3.coeffs
    rel = l2_norm(tg.with_coeffs(total - direct.coeffs)) / l2_norm(direct)
    assert rel <= 1e-10


def test_paraproduct_reassembles_random(grid16, random_fields_16):
    u = random_fields_16[3]
    p1, p2, p3 = paraproduct_decompose(u)
    direct = advect(u, u)
    total = p1.coeffs + p2.coeffs + p3.coeffs
    assert l2_norm(u.with_coeffs(total - direct.coeffs)) <= 1e-10 * l2_norm(direct)


def test_paraproduct_zero_field(grid16):
    zero = SpectralField.from_full(grid16, np.zeros((3, 16, 16, 16), dtype=complex))
    p1, p2, p3 = paraproduct_decompose(zero)
    assert l2_norm(p1) == l2_norm(p2) == l2_norm(p3) == 0.0


def test_paraproduct_rejects_divergent(grid16):
    c = np.zeros((3, 16, 16, 16), dtype=complex)
    c[0, 1, 0, 0] = 1.0j
    c[0, -1, 0, 0] = -1.0j
    with pytest.raises(NotSolenoidal):
        paraproduct_decompose(SpectralField.from_full(grid16, c))


def test_commutator_ratio_shear_vanishes(grid16):
    assert commutator_bound_ratio(shear_init(grid16), 2.0) <= 1e-14


def test_commutator_ratio_taylor_green_fixture(grid32):
    # frozen after first computation; regression guard
    ratio = commutator_bound_ratio(taylor_green_init(grid32), 2.0)
    assert ratio == pytest.approx(0.1926379375927805, rel=1e-9)


def test_commutator_battery_envelope(grid16, advection_constant_16):
    for seed in range(500, 520):
        u = random_solenoidal_init(grid16, 2.0, seed)
        assert commutator_bound_ratio(u, 2.0) <= 1.5 * advection_constant_16


def test_commutator_requires_supercritical_index(grid16, random_fields_16):
    with pytest.raises(ValueError):
        commutator_bound_ratio(random_fields_16[0], 1.0)
    zero = SpectralField.from_full(grid16, np.zeros((3, 16, 16, 16), dtype=complex))
    with pytest.raises(ZeroField):
        commutator_bound_ratio(zero, 2.0)


def test_heat_decay_of_blocks(grid16, random_fields_16):
    u = random_fields_16[4]
    nu, t = 0.5, 0.2
    hu = heat_semigroup(u, nu, t)
    for j in list(block_weights(grid16))[1:]:
        before = l2_norm(dyadic_block(u, j))
        after = l2_norm(dyadic_block(hu, j))
        assert after <= np.exp(-nu * t * 4.0 ** (j - 1)) * before


def test_commutator_constant_battery(grid16):
    fields = [random_solenoidal_init(grid16, 2.0, s) for s in range(10)]
    cs = commutator_constant(fields, 2.0)
    assert cs > 0.0
    assert all(commutator_bound_ratio(f, 2.0) <= cs for f in fields)
