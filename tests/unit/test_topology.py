"""Unit tests for topology generation and ground-truth connectivity."""

import math

import numpy as np
import pytest

from repro.sim.topology import (
    OUT_OF_RANGE,
    Topology,
    degrade,
    grid,
    indoor_testbed,
    line,
    near_square_grid,
    perfect,
    random_geometric,
)
from tests.conftest import from_loss_matrix


def degree_fraction(topo):
    """Average fraction of the network each node can transmit to."""
    audible = int(np.count_nonzero(topo.loss < OUT_OF_RANGE))
    return audible / (topo.n * (topo.n - 1))


class TestPerfect:
    def test_all_pairs_audible(self):
        topo = perfect(5)
        for i in range(5):
            for j in range(5):
                if i != j:
                    assert topo.audible(i, j)
                    assert topo.delivery(i, j) == 1.0

    def test_no_self_links(self):
        topo = perfect(4)
        for i in range(4):
            assert not topo.audible(i, i)

    def test_connected(self):
        assert perfect(6).is_connected()


class TestLine:
    def test_chain_connectivity(self):
        topo = line(5)
        assert topo.audible(0, 1) and topo.audible(1, 0)
        assert topo.audible(3, 4)
        assert not topo.audible(0, 2)

    def test_path_etx_sums_hops(self):
        topo = line(4)  # lossless: ETX 1 per hop
        assert topo.path_etx(0, 3) == pytest.approx(3.0)

    def test_lossy_line_etx(self):
        topo = line(3, link_loss=0.5)
        # per-hop ETX = 1 / (0.5 * 0.5) = 4
        assert topo.path_etx(0, 2) == pytest.approx(8.0)


class TestGrid:
    def test_four_connectivity(self):
        topo = grid(3, 3)
        # center node 4 hears its 4 lattice neighbors only
        assert sorted(topo.neighbors(4)) == [1, 3, 5, 7]

    def test_diagonal_adds_links(self):
        topo = grid(3, 3, diagonal=True)
        assert 0 in topo.neighbors(4) and 8 in topo.neighbors(4)

    def test_connected(self):
        assert grid(4, 5).is_connected()


class TestRandomGeometric:
    def test_connected_and_sized(self):
        topo = random_geometric(30, seed=5)
        assert topo.n == 30
        assert topo.is_connected()

    def test_target_degree_fraction(self):
        topo = random_geometric(40, seed=2, target_degree_fraction=0.20)
        assert 0.10 < degree_fraction(topo) < 0.35

    def test_loss_rates_in_paper_band(self):
        topo = random_geometric(30, seed=4, loss_range=(0.25, 0.90))
        losses = [
            topo.loss[i][j]
            for i in range(topo.n)
            for j in range(topo.n)
            if topo.audible(i, j)
        ]
        assert min(losses) >= 0.02
        assert max(losses) <= 0.98

    def test_asymmetry_present(self):
        topo = random_geometric(30, seed=6)
        asym = [
            abs(topo.loss[i][j] - topo.loss[j][i])
            for i in range(topo.n)
            for j in range(i + 1, topo.n)
            if topo.audible(i, j) and topo.audible(j, i)
        ]
        assert any(a > 0.01 for a in asym)

    def test_deterministic_per_seed(self):
        a = random_geometric(20, seed=9)
        b = random_geometric(20, seed=9)
        assert np.array_equal(a.loss, b.loss)

    def test_different_seeds_differ(self):
        a = random_geometric(20, seed=1)
        b = random_geometric(20, seed=2)
        assert not np.array_equal(a.loss, b.loss)


class TestIndoorTestbed:
    def test_paper_size_connected(self):
        topo = indoor_testbed(63)
        assert topo.n == 63
        assert topo.is_connected()
        assert topo.name.startswith("testbed-")

    def test_has_positions(self):
        topo = indoor_testbed(30)
        assert topo.positions is not None
        assert len(topo.positions) == 30

    def test_disconnected_fallback_warns_and_labels_honestly(self):
        # At n=9, seed=0 the two "rooms" land beyond radio range of the
        # corner basestation, so the generated testbed is disconnected and
        # the generator must fall back — loudly, under a fallback name,
        # never silently pretending a geo-* layout is the testbed.
        with pytest.warns(RuntimeWarning, match="disconnected"):
            topo = indoor_testbed(9, seed=0)
        assert topo.is_connected()
        assert topo.name.startswith("testbed-fallback-")

    def test_fallback_passes_asymmetry_through(self):
        with pytest.warns(RuntimeWarning):
            topo = indoor_testbed(9, seed=0, asymmetry=0.0)
        for i in range(topo.n):
            for j in range(topo.n):
                if topo.audible(i, j):
                    assert topo.loss[i][j] == pytest.approx(topo.loss[j][i])


class TestValidationAndQueries:
    def test_bad_matrix_shape_rejected(self):
        with pytest.raises(ValueError):
            Topology(n=3, loss=[[0.0, 0.0], [0.0, 0.0]])

    def test_constructor_never_mutates_callers_matrix(self):
        # Regression: the diagonal write in __post_init__ used to land in
        # the caller's rows when a matrix was passed to Topology directly.
        mine = [[0.5] * 3 for _ in range(3)]
        topo = Topology(n=3, loss=mine)
        assert mine == [[0.5] * 3 for _ in range(3)]
        assert all(topo.loss[i][i] == 1.0 for i in range(3))
        topo.loss[0][1] = 0.9
        assert mine[0][1] == 0.5

    def test_from_loss_matrix(self):
        topo = from_loss_matrix([[1.0, 0.2], [0.3, 1.0]])
        assert topo.delivery(0, 1) == pytest.approx(0.8)
        assert topo.delivery(1, 0) == pytest.approx(0.7)

    def test_unreachable_path_is_inf(self):
        topo = from_loss_matrix([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        assert math.isinf(topo.path_etx(0, 2))

    def test_path_etx_self_is_zero(self):
        assert perfect(3).path_etx(1, 1) == 0.0

    def test_link_etx_requires_both_directions(self):
        topo = from_loss_matrix([[1.0, 0.0], [1.0, 1.0]])  # one-way link
        assert math.isinf(topo.link_etx(0, 1))


class TestNearSquareGrid:
    def test_divisor_pair_closest_to_square(self):
        topo = near_square_grid(63)  # 7 x 9
        assert topo.n == 63
        assert topo.name == "grid-7x9"

    def test_prime_degenerates_to_line(self):
        topo = near_square_grid(13)
        assert topo.n == 13
        assert topo.name == "grid-1x13"
        assert topo.is_connected()

    def test_square_and_loss(self):
        topo = near_square_grid(16, link_loss=0.3)
        assert topo.name == "grid-4x4"
        assert topo.loss[0][1] == pytest.approx(0.3)


class TestDegrade:
    def test_compounds_loss_on_audible_links(self):
        topo = degrade(line(4, link_loss=0.2), 0.5)
        assert topo.loss[0][1] == pytest.approx(1.0 - 0.8 * 0.5)
        # Out-of-range pairs stay out of range.
        assert not topo.audible(0, 2)
        assert topo.name.endswith("+loss0.5")

    def test_zero_is_identity(self):
        topo = line(4)
        assert degrade(topo, 0.0) is topo

    def test_preserves_connectivity(self):
        topo = degrade(indoor_testbed(63, seed=8), 0.5)
        assert topo.is_connected()

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            degrade(line(3), 1.0)
        with pytest.raises(ValueError):
            degrade(line(3), -0.1)


class TestXLSizes:
    """Generator invariants at the scaling_xl grid's sizes: connected,
    correctly sized, basestation reachable both ways."""

    @pytest.mark.parametrize("n", [128, 192, 256])
    def test_testbed_connected_past_paper_scale(self, n):
        topo = indoor_testbed(n, seed=8)
        assert topo.n == n
        assert topo.is_connected()

    def test_geometric_connected_at_double_scale(self):
        topo = random_geometric(128, seed=3)
        assert topo.n == 128
        assert topo.is_connected()
        # The degree target still holds well past the paper's sizes.
        assert 0.1 < degree_fraction(topo) < 0.35

    @pytest.mark.parametrize("builder", [line, near_square_grid])
    def test_lattices_connected_at_256(self, builder):
        topo = builder(256)
        assert topo.n == 256
        assert topo.is_connected()
