"""Unit and property tests for the k-hot gating mechanism.

Expected values marked as frozen were computed independently: Gumbel
quantiles and the log softmax of [4, 1, 0] with 30-digit mpmath
arithmetic, the standard Gumbel mean against the Euler-Mascheroni
constant by direct Monte Carlo.
"""

import copy
import tracemalloc

import numpy as np
import pytest

from sparselocal import autodiff as ad
from sparselocal import gate as gt
from sparselocal.errors import GateExhaustedError, ShapeError

from oracles import (
    Replay, gate_step, grad_error, graph_gate_rows, masked_log_prob, masked_softmax, oracle_draws, square,
    update_mask,
)

EULER_MASCHERONI = 0.5772156649015329


def random_gate_instance(rng, dmax=32):
    """Random weights, mask and feasible k with comfortable magnitude gaps."""
    d = int(rng.integers(2, dmax + 1))
    w = rng.normal(scale=2.0, size=d)
    mask = (rng.random(d) < 0.3).astype(int)
    if mask.all():
        mask[rng.integers(d)] = 0
    k = int(rng.integers(1, int((mask == 0).sum()) + 1))
    return w, mask, k


class TestSampleGumbel:
    """The Gumbel transform of the uniforms the soft gate draws."""

    def test_quantiles(self):
        lam = gt._gumbel(np.array([np.exp(-1.0), 0.5]))
        assert abs(lam[0]) <= 1e-12  # u = e^-1 maps to exactly 0
        assert abs(lam[1] - 0.36651292058166433) <= 1e-12

    def test_extreme_uniforms_stay_finite(self):
        assert np.all(np.isfinite(gt._gumbel(np.array([0.0, 1.0]))))

    def test_monte_carlo_mean_matches_gumbel_location(self):
        draws = gt._gumbel(np.random.default_rng(12345).random(10**6))
        assert abs(draws.mean() - EULER_MASCHERONI) <= 0.01


class TestMaskedLogProb:
    def test_symmetric_pair(self):
        out = masked_log_prob(np.array([1.0, 1.0]), np.array([0, 0]))
        np.testing.assert_allclose(out, np.log([0.5, 0.5]), atol=1e-12)

    def test_single_live_entry_has_log_one(self):
        out = masked_log_prob(np.array([2.0, 1.0]), np.array([0, 1]))
        assert out[0] == 0.0
        assert out[1] == -np.inf

    def test_three_way_log_softmax_of_squares(self):
        out = masked_log_prob(np.array([2.0, 1.0, 0.0]), np.zeros(3, dtype=int))
        expected = [-0.06588390375742917, -3.0658839037574292, -4.065883903757429]
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestGateStep:
    def test_uniform_scores_give_uniform_step(self):
        out = gate_step(np.log(np.full(5, 0.2)), np.zeros(5), tau=0.7)
        np.testing.assert_allclose(out, np.full(5, 0.2), atol=1e-12)

    def test_unit_temperature_reproduces_probabilities(self):
        out = gate_step(np.log([0.9, 0.1]), np.zeros(2), tau=1.0)
        np.testing.assert_allclose(out, [0.9, 0.1], atol=1e-12)

    def test_low_temperature_concentrates_on_argmax(self):
        out = gate_step(np.log([0.9, 0.1]), np.zeros(2), tau=0.01)
        assert out[0] >= 1.0 - 1e-9

    def test_sentinel_entries_are_exact_zero(self):
        out = gate_step(np.array([0.0, -np.inf, -1.0]), np.ones(3), tau=0.5)
        assert out[1] == 0.0
        assert abs(out.sum() - 1.0) <= 1e-12


class TestUpdateMask:
    def test_marks_winner(self):
        out = update_mask(np.array([0, 1, 0, 0]), np.array([0.1, 0.0, 0.8, 0.1]))
        np.testing.assert_array_equal(out, [0, 1, 1, 0])

    def test_tie_takes_lowest_index(self):
        out = update_mask(np.array([0, 0]), np.array([0.5, 0.5]))
        np.testing.assert_array_equal(out, [1, 0])

    def test_repeated_updates_count_up(self):
        rng = np.random.default_rng(3)
        mask = np.array([0, 1, 0, 0, 0, 0])
        start = int(mask.sum())
        for t in range(4):
            g = np.where(mask == 0, rng.random(6), 0.0)
            mask = update_mask(mask, g)
            assert int(mask.sum()) == start + t + 1
            assert set(np.unique(mask)) <= {0, 1}


def prefix_gates(w, mask, k, tau, rng=None, uniforms=None):
    """The gate of one call cut to its first j draws, for j = 0 .. max(k), as arrays.

    Every call takes the same noise: the (heads, max(k), n, d)
    ``uniforms`` cut to j draws, or an ``rng`` as a copy taken before the
    call, which a one-head call reads as the same uniforms. Draw t is then
    ``gates[t + 1] - gates[t]``.
    """
    k = np.broadcast_to(k, (np.shape(mask)[0],))
    source = (lambda j: copy.deepcopy(rng)) if uniforms is None else (lambda j: Replay(uniforms[:, :j]))
    cuts = range(int(k.max(initial=0)) + 1)
    return [gt.k_hot_gate_rows(w, mask, np.minimum(k, j), tau, rng=source(j)).data for j in cuts]


def prefix_draws(w, mask, k, tau, **source):
    """The draws of one soft-gate call, (max(k), n, heads·d), read as differences of its prefix gates."""
    return np.diff(prefix_gates(w, mask, k, tau, **source), axis=0)


def selection_order(draws, row=0):
    """Winning index of each draw of one row, in draw order."""
    return [int(np.argmax(s[row])) for s in draws]


class TestKHotGateHard:
    def test_greedy_unroll_by_squared_magnitude(self):
        # squared weights [4, 1, 9, 0]: draws pick index 2 then index 0
        g, order = gt.k_hot_gate(np.array([-2.0, 1.0, 3.0, 0.0]), True, 2)
        np.testing.assert_array_equal(g, [1.0, 0.0, 1.0, 0.0])
        assert order.tolist() == [2, 0]

    def test_k_equal_d_selects_everything(self):
        g, _ = gt.k_hot_gate(np.arange(1.0, 6.0), True, 5)
        np.testing.assert_array_equal(g, np.ones(5))

    @pytest.mark.parametrize("seed", range(50))
    def test_membership_and_sign_invariance(self, seed):
        rng = np.random.default_rng(1000 + seed)
        w, mask, k = random_gate_instance(rng)
        g, _ = gt.k_hot_gate(w, mask == 0, k)
        assert set(np.unique(g)) <= {0.0, 1.0}
        assert int(g.sum()) == k
        assert float(mask @ g) == 0.0
        flipped, _ = gt.k_hot_gate(-w, mask == 0, k)
        np.testing.assert_array_equal(g, flipped)

    def test_rows_with_too_few_live_entries_open_only_those(self):
        w = np.array([[5.0, 1.0, 4.0, 3.0], [1.0, 2.0, 3.0, 4.0]])
        live = np.array([[False, True, False, False], [True, True, True, True]])
        g, order = gt.k_hot_gate(w, live, 2)
        np.testing.assert_array_equal(g, [[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        assert order.tolist() == [[1, 0], [3, 2]]


class TestKHotGateSoft:
    """The soft gate on one-row batches, against the paper's single-vector draw formulas."""

    @pytest.mark.parametrize("seed", range(30))
    def test_steps_are_simplex_vectors_and_sum_to_k(self, seed):
        rng = np.random.default_rng(2000 + seed)
        w, mask, k = random_gate_instance(rng)
        draws = prefix_draws(w[None], mask[None], k, 1.0, rng=rng)
        gate = gt.k_hot_gate_rows(ad.Tensor(w[None], requires_grad=True), mask[None], k, tau=1.0, rng=rng)
        assert len(draws) == k
        for vals in draws:
            assert np.all(vals >= 0)
            assert abs(vals.sum() - 1.0) <= 1e-6
        assert abs(gate.data.sum() - k) <= 1e-5

    @pytest.mark.parametrize("seed", range(30))
    def test_masked_entries_stay_exact_zero(self, seed):
        rng = np.random.default_rng(3000 + seed)
        w, mask, k = random_gate_instance(rng)
        gate = gt.k_hot_gate_rows(w[None], mask[None], k, tau=0.5, rng=rng)
        assert np.all(gate.data[0][mask == 1] == 0.0)

    @pytest.mark.parametrize("seed", range(30))
    def test_no_index_wins_twice(self, seed):
        rng = np.random.default_rng(4000 + seed)
        w, mask, k = random_gate_instance(rng)
        order = selection_order(prefix_draws(w[None], mask[None], k, 1.0, rng=rng))
        assert len(order) == k and len(set(order)) == k

    @pytest.mark.parametrize("tau", [1.0, 0.1])
    @pytest.mark.parametrize("seed", range(15))
    def test_gradient_matches_finite_differences(self, seed, tau):
        rng = np.random.default_rng(5000 + seed)
        d = 8
        w0 = rng.uniform(0.3, 2.0, size=d) * rng.choice([-1.0, 1.0], size=d)
        mask = np.zeros(d, dtype=int)
        mask[rng.integers(d)] = 1
        k = 3
        seed_draw = int(rng.integers(2**31))
        c = rng.normal(size=d)

        def objective(x):
            draws = np.random.default_rng(seed_draw)
            gate = gt.k_hot_gate_rows(ad.as_tensor(x).reshape((1, d)), mask[None], k, tau=tau, rng=draws)
            return (gate * ad.Tensor(c[None])).sum()

        assert grad_error(objective, w0) <= 1e-4

    def test_gradient_is_zero_for_masked_weights(self):
        rng = np.random.default_rng(42)
        w = ad.Tensor(np.array([[1.0, -2.0, 0.5, 3.0]]), requires_grad=True)
        mask = np.array([[0, 1, 0, 0]])
        gate = gt.k_hot_gate_rows(w, mask, 2, tau=0.7, rng=rng)
        (gate * ad.Tensor(np.ones((1, 4)))).sum().backward()
        assert w.grad[0, 1] == 0.0

    def test_low_temperature_limit_is_one_hot(self):
        rng = np.random.default_rng(11)
        d = 10
        w = rng.uniform(0.3, 2.0, size=d) * rng.choice([-1.0, 1.0], size=d)
        draws = prefix_draws(ad.Tensor(w[None]), np.zeros((1, d), dtype=int), 3, 1e-3, rng=rng)
        assert len(draws) == 3
        for step in draws:
            assert step.max() >= 1.0 - 1e-6

    @pytest.mark.parametrize("mask", [[[0, 0, 0, 0]], [[0, 0, 0, 1]]])
    def test_weights_whose_squares_overflow_give_a_nan_gate_without_a_warning(self, mask):
        # -1e200 squares to inf and the row's softmax to NaN, which training reports as a non-finite loss
        gate = gt.k_hot_gate_rows([[1.0, -1e200, 3.0, 2.0]], np.array(mask), 2, 1.0, rng=np.random.default_rng(0))
        assert np.isnan(gate.data[0, np.array(mask[0]) == 0]).all()

    @pytest.mark.parametrize("mask, k", [
        ([[0, 0, 1, 1], [1, 1, 1, 1]], [2, 0]),  # a dead sample, whose count is 0
        ([[0, 0, 1, 1], [1, 0, 1, 1]], [2, 1]),  # a row clamped to its one live entry
    ])
    def test_a_row_past_its_count_gets_exact_zero_draws_even_when_its_weights_overflow(self, mask, k):
        # row 1 draws over all its entries once past its count, where 1e200 squares to inf and its softmax to NaN
        w = ad.Tensor(np.array([[1.0, 2.0, 3.0, 4.0], [1e200, 2.0, 3.0, 4.0]]), requires_grad=True)
        gate = gt.k_hot_gate_rows(w, np.array(mask), k, 1.0, rng=np.random.default_rng(0))
        assert gate.data[1].tobytes() == np.array([0.0, float(k[1]), 0.0, 0.0]).tobytes()
        (gate * ad.Tensor(np.ones((2, 4)))).sum().backward()
        assert np.isfinite(w.grad).all() and w.grad[1, 0] == 0.0

    def test_soft_requires_noise_source(self):
        with pytest.raises(ValueError, match="needs an rng"):
            gt.k_hot_gate_rows(np.ones((1, 4)), np.zeros((1, 4), dtype=int), 2, tau=1.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_unrolled_single_draw_primitives(self, seed):
        # the paper's one-draw formulas are the oracle: log pi, then a draw, then the mask update
        rng = np.random.default_rng(5500 + seed)
        for _ in range(60):
            d = int(rng.integers(2, 25))
            w = rng.uniform(-10.0, 10.0, size=d) * 10.0 ** rng.uniform(-1.0, 0.0, size=d)
            mask = (rng.random(d) < 0.3).astype(int)
            mask[rng.integers(d)] = 0
            k = int(rng.integers(1, int((mask == 0).sum()) + 1))
            tau = float(rng.uniform(0.1, 2.0))
            u = rng.random((1, k, 1, d))
            draws = prefix_draws(w[None], mask[None], k, tau, uniforms=u)
            ref, order, _ = oracle_draws(w, mask, gt._gumbel(u[0, :, 0]), tau)
            assert len(draws) == k
            for t in range(k):
                np.testing.assert_allclose(draws[t][0], ref[t], rtol=0, atol=1e-12)
            assert selection_order(draws) == order


class TestBatchedRows:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_per_vector_path(self, seed):
        rng = np.random.default_rng(6000 + seed)
        n, d, k = 5, 9, 3
        w = rng.normal(size=(n, d))
        mask = (rng.random((n, d)) < 0.2).astype(int)
        mask[:, :k] = 0  # keep every row feasible
        u = rng.random((1, k, n, d))
        batched = gt.k_hot_gate_rows(ad.Tensor(w), mask, k, tau=0.8, rng=Replay(u))
        draws = prefix_draws(ad.Tensor(w), mask, k, 0.8, uniforms=u)
        for i in range(n):
            ref, order, m = oracle_draws(w[i], mask[i], gt._gumbel(u[0, :, i]), 0.8)
            np.testing.assert_allclose(batched.data[i], np.sum(ref, axis=0), rtol=0, atol=1e-12)
            assert selection_order(draws, i) == order
            # drawing from an rng: a one-row batch takes one (1, d) Gumbel draw per step from it
            gates = prefix_gates(ad.Tensor(w[i : i + 1]), mask[i : i + 1], k, 0.8, rng=np.random.default_rng(seed))
            ref_rng = np.random.default_rng(seed)
            ref, order, m = oracle_draws(w[i], mask[i], [gt._gumbel(ref_rng.random((1, d)))[0] for _ in range(k)], 0.8)
            np.testing.assert_allclose(gates[-1][0], np.sum(ref, axis=0), rtol=0, atol=1e-12)
            drawn = np.diff(gates, axis=0)
            assert drawn.shape == (k, 1, d)
            assert sorted(np.flatnonzero(m != mask[i])) == sorted(selection_order(drawn))

    def test_batched_gradients_match_stacked_singles(self):
        rng = np.random.default_rng(77)
        n, d, k = 3, 6, 2
        w = rng.normal(size=(n, d))
        mask = np.zeros((n, d), dtype=int)
        u = rng.random((1, k, n, d))
        c = rng.normal(size=(n, d))

        wt = ad.Tensor(w, requires_grad=True)
        (gt.k_hot_gate_rows(wt, mask, k, tau=1.0, rng=Replay(u)) * ad.Tensor(c)).sum().backward()
        for i in range(n):
            wi = ad.Tensor(w[i : i + 1], requires_grad=True)
            gate = gt.k_hot_gate_rows(wi, mask[i : i + 1], k, tau=1.0, rng=Replay(u[:, :, i : i + 1]))
            (gate * ad.Tensor(c[i : i + 1])).sum().backward()
            np.testing.assert_allclose(wt.grad[i], wi.grad[0], atol=1e-12)

    def test_infeasible_row_is_reported(self):
        w = np.ones((2, 4))
        mask = np.array([[0, 0, 0, 0], [1, 1, 1, 0]])
        with pytest.raises(GateExhaustedError, match="row 1"):
            gt.k_hot_gate_rows(ad.Tensor(w), mask, 2, tau=1.0, rng=np.random.default_rng(0))
        with pytest.raises(GateExhaustedError, match="k=3 gates requested but row 2 has only 2"):
            gt.k_hot_gate_rows(ad.Tensor(np.ones((3, 4))), [[0, 0, 0, 0], [1, 1, 1, 0], [0, 1, 0, 1]],
                               [4, 1, 3], tau=1.0, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="non-negative"):
            gt.k_hot_gate_rows(ad.Tensor(w), np.zeros((2, 4)), [1, -1], tau=1.0, rng=np.random.default_rng(0))
        for tau in (0.0, float("nan")):
            with pytest.raises(ValueError, match="temperature must be positive"):
                gt.k_hot_gate_rows(ad.Tensor(w), np.zeros((2, 4)), 1, tau=tau, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("seed", range(10))
    def test_per_row_counts_match_per_vector_path(self, seed):
        rng = np.random.default_rng(6500 + seed)
        n, d = 6, 9
        w = rng.normal(size=(n, d))
        mask = (rng.random((n, d)) < 0.4).astype(int)
        mask[0] = 1  # a row with no live feature and a count of 0
        k = np.minimum(rng.integers(1, 5, size=n), (mask == 0).sum(axis=1))
        u = rng.random((1, int(k.max()), n, d))
        c = rng.normal(size=(n, d))
        wt = ad.Tensor(w, requires_grad=True)
        batched = gt.k_hot_gate_rows(wt, mask, k, tau=0.6, rng=Replay(u))
        (batched * ad.Tensor(c)).sum().backward()
        assert np.all(batched.data[0] == 0.0) and np.all(wt.grad[0] == 0.0)
        for i in range(1, n):
            ref, _, _ = oracle_draws(w[i], mask[i], gt._gumbel(u[0, : k[i], i]), 0.6)
            np.testing.assert_allclose(batched.data[i], np.sum(ref, axis=0), rtol=0, atol=1e-12)
            wi = ad.Tensor(w[i : i + 1], requires_grad=True)
            single = gt.k_hot_gate_rows(wi, mask[i : i + 1], int(k[i]), tau=0.6, rng=Replay(u[:, : k[i], i : i + 1]))
            (single * ad.Tensor(c[i : i + 1])).sum().backward()
            np.testing.assert_allclose(wt.grad[i], wi.grad[0], rtol=0, atol=1e-12)

    def test_all_zero_counts_give_the_zero_gate(self):
        w = ad.Tensor(np.ones((2, 3)), requires_grad=True)
        gate = gt.k_hot_gate_rows(w, np.ones((2, 3)), 0, tau=1.0, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(gate.data, np.zeros((2, 3)))
        assert not gate.requires_grad and len(ad._toposort(gate)) == 1


    @pytest.mark.parametrize("heads, live_cols, k", [
        (1, 4, 2),  # every entry live: each block is its whole row
        (3, 4, 2),
        (1, 2, 2),  # two live columns of four: a block narrower than the rows
        (3, 2, [2, 1]),
        (2, 2, [0, 1]),  # row 0 takes no draw: the stream is as long as the largest count's
        (2, 4, 0),  # no draws at all: nothing is read
    ])
    def test_the_rng_is_read_as_one_n_by_d_array_per_head_and_draw_head_major(self, heads, live_cols, k):
        rng = np.random.default_rng(64)
        n, d = 2, 4
        mask = np.zeros((n, d), dtype=int)
        mask[:, live_cols:] = 1
        w = rng.normal(size=(n, heads * d))
        u = rng.random((heads, int(np.max(k)), n, d))
        replay = Replay(u)
        gate = gt.k_hot_gate_rows(w, mask, k, tau=0.8, rng=replay)
        assert replay.used == u.size and all(shape[-2:] == (n, d) for shape in replay.reads)
        for h in range(heads):  # head h's draws are u[h], whichever head reads first
            cols = slice(h * d, (h + 1) * d)
            alone = gt.k_hot_gate_rows(w[:, cols], mask, k, tau=0.8, rng=Replay(u[h : h + 1]))
            assert np.array_equal(gate.data[:, cols], alone.data)


class TestAllHeads:
    """One call gates every head of (n, heads·d) rows exactly as one call per head would."""

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("sparse", [False, True, "mixed"])  # mixed: one all-live row, the rest ~5% live
    @pytest.mark.parametrize("heads", [1, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_stacked_one_head_calls_bitwise(self, seed, heads, sparse, frozen):
        rng = np.random.default_rng(9900 + seed)
        n, d = int(rng.integers(1, 30)), int(rng.integers(2, 400))
        live = rng.random((n, d)) < (0.05 if sparse else 1.0)
        live[np.arange(n), rng.integers(0, d, size=n)] = True
        if sparse:
            live[rng.random(n) < 0.2] = False  # rows with no live feature take a count of 0
        if sparse == "mixed":
            live[rng.integers(n)] = True  # the draws run on whole heads, the other rows masked
        k = np.minimum(rng.integers(0, 6, size=n), live.sum(axis=1))
        tau = float(rng.uniform(0.05, 2.0))
        w0 = rng.normal(size=(n, heads * d))
        c = rng.normal(size=(n, heads * d))
        draws = int(k.max(initial=0))
        u = rng.random((heads, draws, n, d))
        seed_draw = int(rng.integers(2**31))

        def source():
            return Replay(u) if frozen else np.random.default_rng(seed_draw)

        w = ad.Tensor(w0, requires_grad=True)
        all_heads = source()
        gate = gt.k_hot_gate_rows(w, ~live, k, tau, rng=all_heads)
        if gate.requires_grad:
            (gate * ad.Tensor(c)).sum().backward()
        one = source()  # the per-head calls share one noise source, head 0's draws first
        ref_gates, ref_prefixes, ref_grads = [], [], []
        for h in range(heads):
            cols = slice(h * d, (h + 1) * d)
            wh = ad.Tensor(w0[:, cols], requires_grad=True)
            if frozen:
                ref_prefixes.append(prefix_gates(w0[:, cols], ~live, k, tau, uniforms=u[h : h + 1]))
            gh = gt.k_hot_gate_rows(wh, ~live, k, tau, rng=one)
            if gh.requires_grad:
                (gh * ad.Tensor(c[:, cols])).sum().backward()
            ref_gates.append(gh.data)
            ref_grads.append(np.zeros((n, d)) if wh.grad is None else wh.grad)
        assert gate.data.shape == (n, heads * d)
        assert np.array_equal(gate.data, np.concatenate(ref_gates, axis=1))
        if frozen:  # every prefix of the draws, so every draw, equals the per-head draws
            prefixes = prefix_gates(w0, ~live, k, tau, uniforms=u)
            assert len(prefixes) == draws + 1
            for j, prefix in enumerate(prefixes):
                assert np.array_equal(prefix, np.concatenate([r[j] for r in ref_prefixes], axis=1))
        grad = np.zeros((n, heads * d)) if w.grad is None else w.grad
        assert np.array_equal(grad, np.concatenate(ref_grads, axis=1))
        if not frozen:  # both took the same number of uniforms
            assert all_heads.random() == one.random()

    @pytest.mark.parametrize("sparse", [False, True])
    def test_graph_size_does_not_grow_with_heads(self, sparse):
        rng = np.random.default_rng(9950)
        n, d, k = 6, 300, 4
        live = rng.random((n, d)) < (0.05 if sparse else 1.0)
        live[:, :k] = True
        for heads in (1, 3):
            w = ad.Tensor(rng.normal(size=(n, heads * d)), requires_grad=True)
            gate = gt.k_hot_gate_rows(w, ~live, k, 0.5, rng=rng)
            assert gate.op == "soft_gate" and len(ad._toposort(gate)) == 2  # one node over the leaf w

    @pytest.mark.parametrize("weights, mask", [((3, 7), (3, 2)), ((3, 4), (2, 4)), ((3, 0), (3, 4)), ((12,), (3, 4))])
    def test_weights_must_be_whole_heads_of_the_mask(self, weights, mask):
        with pytest.raises(ShapeError, match=r"must be \(n, heads·d\) rows"):
            gt.k_hot_gate_rows(np.ones(weights), np.zeros(mask), 1, tau=1.0, rng=np.random.default_rng(0))


def dense_gate_rows(w, mask, k, tau, rng):
    """The soft gate with every draw over the full (n, d) rows, and those draws: the live-column block's reference."""
    w = ad.as_tensor(w)
    n, d = w.data.shape
    live = np.asarray(mask) == 0
    k = np.broadcast_to(np.asarray(k, dtype=np.int64), (n,))
    scaled = square(w) * (1.0 / tau)
    gate, steps = None, []
    for t in range(int(k.max(initial=0))):
        active = t < k
        lam = gt._gumbel(rng.random(out=np.empty((n, d))))
        step = masked_softmax(scaled + ad.Tensor(lam * (1.0 / tau)), live | ~active[:, None])
        if not active.all():
            step = step * ad.Tensor(np.broadcast_to(active[:, None], (n, d)) * 1.0)
        live[active, np.argmax(step.data, axis=1)[active]] = False
        steps.append(step.data)
        gate = step if gate is None else gate + step
    return (ad.Tensor(np.zeros((n, d))) if gate is None else gate), steps


def equal_count_case(rng, heads, all_live):
    """(w, mask, k, tau, c) where every row takes all k draws: rows all live, or sparse with at least k live each.

    Weights and the cotangent ``c`` hold zeros of both signs.
    """
    k = int(rng.integers(1, 12))
    n, d = int(rng.integers(1, 30)), int(rng.integers(k + 1, 601))
    live = np.ones((n, d), dtype=bool)
    if not all_live:
        live = rng.random((n, d)) < 10.0 ** rng.uniform(-2.0, -0.3)
        cols = rng.permuted(np.tile(np.arange(d), (n, 1)), axis=1)
        live[np.arange(n)[:, None], cols[:, :k]] = True
        live[np.arange(n), cols[:, -1]] = False  # no row all live: the draws run on a block
    w = rng.normal(size=(n, heads * d)) * 10.0 ** rng.uniform(-2.0, 1.0)
    w[rng.random(w.shape) < 0.05] = rng.choice([0.0, -0.0])
    c = np.where(rng.random(w.shape) < 0.2, -0.0, rng.normal(size=w.shape))
    return w, ~live, k, float(rng.uniform(0.05, 2.0)), c


def equal_count_bytes(gate_rows, case, seed_draw, frozen):
    """Gate bytes, ``w.grad`` bytes and the next uniform of the noise rng after one call on an equal_count_case."""
    w0, mask, k, tau, c = case
    draws = np.random.default_rng(seed_draw)
    heads = w0.shape[1] // mask.shape[1]
    w = ad.Tensor(w0, requires_grad=True)
    gate = gate_rows(w, mask, k, tau, rng=Replay(draws.random((heads, k, *mask.shape))) if frozen else draws)
    (gate * ad.Tensor(c)).sum().backward()
    return gate.data.tobytes(), w.grad.tobytes(), draws.random()  # the last: the same stream was used


class TestGraphReference:
    """The one-op gate equals the gate built as a graph of one node per step, byte for byte."""

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("all_live", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_equal_counts_give_the_graph_bytes(self, seed, all_live, frozen):
        # every row takes every draw: no row's draw is zeroed; all live, the block is the rows and the noise one call
        rng = np.random.default_rng(9650 + seed)
        for _ in range(10):
            case, seed_draw = equal_count_case(rng, int(rng.integers(1, 4)), all_live), int(rng.integers(2**31))
            want = equal_count_bytes(graph_gate_rows, case, seed_draw, frozen)
            assert equal_count_bytes(gt.k_hot_gate_rows, case, seed_draw, frozen) == want

    @pytest.mark.parametrize("seed", range(10))
    def test_gate_and_gradient_bytes_equal_the_graph(self, seed):
        rng = np.random.default_rng(9600 + seed)
        for _ in range(30):
            heads, n, d = int(rng.integers(1, 4)), int(rng.integers(1, 30)), int(rng.integers(2, 601))
            live = rng.random((n, d)) < 10.0 ** rng.uniform(-2.0, 0.0)
            live[np.arange(n), rng.integers(0, d, size=n)] = True
            live[rng.random(n) < 0.1] = False  # rows with no live feature take a count of 0
            if rng.random() < 0.15:
                live[rng.integers(n)] = True  # some row all live: the block is the rows
            k = np.minimum(rng.integers(0, 12, size=n), live.sum(axis=1))
            tau = float(rng.uniform(0.05, 2.0))
            w0 = rng.normal(size=(n, heads * d)) * 10.0 ** rng.uniform(-2.0, 1.0)
            w0[rng.random(w0.shape) < 0.05] = 0.0
            c = np.where(rng.random((n, heads * d)) < 0.2, -0.0, rng.normal(size=(n, heads * d)))
            seed_draw, frozen = int(rng.integers(2**31)), rng.random() < 0.5

            def source():
                draws = np.random.default_rng(seed_draw)
                return Replay(draws.random((heads, int(k.max(initial=0)), n, d))) if frozen else draws

            got = []
            for gate_rows in (graph_gate_rows, gt.k_hot_gate_rows):
                w = ad.Tensor(w0, requires_grad=True)
                gate = gate_rows(w, ~live, k, tau, rng=source())
                if gate.requires_grad:
                    (gate * ad.Tensor(c)).sum().backward()
                got.append((gate.data.tobytes(), None if w.grad is None else w.grad.tobytes()))
            assert got[0] == got[1]


class TestLiveBlock:
    """``live_block`` is the stable argsort of the dead flags, cut to the block width."""

    @pytest.mark.parametrize("seed", range(10))
    def test_equals_the_stable_argsort(self, seed):
        rng = np.random.default_rng(9400 + seed)
        for _ in range(200):
            n, d = int(rng.integers(1, 9)), int(rng.integers(1, 60))
            live = rng.random((n, d)) < rng.choice([0.02, 0.3, 0.9])
            live[rng.random(n) < 0.2] = True  # all-live rows
            live[rng.random(n) < 0.2] = False  # all-dead rows
            width = int(rng.integers(0, d + 5))  # up to past d
            if rng.random() < 0.5:  # a mask shared by its heads, as the hard gate passes it
                live = live[:, None, :]
            got = gt.live_block(live, width)
            want = np.argsort(~live, axis=-1, kind="stable")[..., :width]
            assert got.shape == want.shape and (got == want).all()

    def test_one_row_and_the_degenerate_widths(self):
        live = np.array([[False, True, False, False, True, False]])
        assert gt.live_block(live, 4).tolist() == [[1, 4, 0, 2]]
        assert gt.live_block(live, 1).tolist() == [[1]]  # a block narrower than the live count keeps the first
        assert gt.live_block(live, 0).shape == (1, 0)
        assert gt.live_block(live, 9).tolist() == [[1, 4, 0, 2, 3, 5]]  # width >= d: every column
        assert gt.live_block(~live[0], 3).tolist() == [0, 2, 3]  # one 1-d row
        assert gt.live_block(np.zeros((2, 3), dtype=bool), 2).tolist() == [[0, 1], [0, 1]]


class TestLiveColumnBlock:
    """The gate drawn on each row's live columns equals the full-row draws bit for bit."""

    @pytest.mark.parametrize("seed", range(12))
    def test_gate_and_gradient_equal_the_dense_draws(self, seed):
        rng = np.random.default_rng(9500 + seed)
        for _ in range(20):
            n, d = int(rng.integers(1, 41)), int(rng.integers(2, 2101))
            live = rng.random((n, d)) < 10.0 ** rng.uniform(np.log10(0.005), 0.0)
            live[np.arange(n), rng.integers(0, d, size=n)] = True
            live[rng.random(n) < 0.1] = False  # rows with no live feature take a count of 0
            if rng.random() < 0.1:
                live[rng.integers(n)] = True  # some row all live: the dense path
            k = np.minimum(rng.integers(0, 12, size=n), live.sum(axis=1))
            tau = float(rng.uniform(0.05, 2.0))
            w0 = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-2.0, 1.0)
            c = rng.normal(size=(n, d))
            seed_draw = int(rng.integers(2**31))
            frozen = rng.random() < 0.5

            uniforms = np.random.default_rng(seed_draw).random((1, int(k.max(initial=0)), n, d)) if frozen else None

            def source():
                return Replay(uniforms) if frozen else np.random.default_rng(seed_draw)

            w_ref, w = ad.Tensor(w0, requires_grad=True), ad.Tensor(w0, requires_grad=True)
            ref, ref_steps = dense_gate_rows(w_ref, ~live, k, tau, source())
            gate = gt.k_hot_gate_rows(w, ~live, k, tau, source())
            for g in (ref, gate):
                if g.requires_grad:
                    (g * ad.Tensor(c)).sum().backward()
            assert np.array_equal(gate.data, ref.data)
            assert (w.grad is None and w_ref.grad is None) or np.array_equal(w.grad, w_ref.grad)
            if frozen:  # the gate cut to j draws is the sum of the first j dense draws, so every draw is equal
                prefixes = prefix_gates(w0, ~live, k, tau, uniforms=uniforms)
                sums = np.cumsum([np.zeros((n, d))] + ref_steps, axis=0)  # sequential, in the gate's order
                assert len(prefixes) == len(sums)
                assert all(np.array_equal(a, b) for a, b in zip(prefixes, sums))

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("all_live", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_equal_counts_equal_the_dense_draws(self, seed, all_live, frozen):
        rng = np.random.default_rng(9550 + seed)
        for _ in range(10):
            case, seed_draw = equal_count_case(rng, 1, all_live), int(rng.integers(2**31))
            want = equal_count_bytes(lambda *args, **kw: dense_gate_rows(*args, **kw)[0], case, seed_draw, frozen)
            assert equal_count_bytes(gt.k_hot_gate_rows, case, seed_draw, frozen) == want

    @pytest.mark.parametrize("tau", [1.0, 0.2])
    @pytest.mark.parametrize("seed", range(8))
    def test_gradient_matches_finite_differences_on_a_sparse_mask(self, seed, tau):
        rng = np.random.default_rng(9700 + seed)
        n, d = 3, 12
        live = rng.random((n, d)) < 0.3
        live[:, :2] = True  # every row can take k=2, and no row is all live
        live[:, -1] = False
        k = np.array([2, 1, 0]) if seed % 2 else 2
        w0 = rng.uniform(0.3, 2.0, size=(n, d)) * rng.choice([-1.0, 1.0], size=(n, d))
        seed_draw = int(rng.integers(2**31))
        c = rng.normal(size=(n, d))

        def objective(x):
            gate = gt.k_hot_gate_rows(ad.as_tensor(x), ~live, k, tau=tau, rng=np.random.default_rng(seed_draw))
            return (gate * ad.Tensor(c)).sum()

        assert grad_error(objective, w0) <= 1e-4
        wt = ad.Tensor(w0, requires_grad=True)
        objective(wt).backward()
        assert np.all(wt.grad[~live] == 0.0)

    def test_forward_memory_grows_by_the_block_per_draw_not_the_rows(self):
        # a bag-of-words batch: 32 samples, 3 heads, d = 2000, about 1% live
        rng = np.random.default_rng(9800)
        n, heads, d = 32, 3, 2000
        live = rng.random((n, d)) < 0.01
        live[np.arange(n)[:, None], rng.integers(0, d, size=(n, 20))] = True
        w = ad.Tensor(rng.normal(size=(n, heads * d)), requires_grad=True)
        peaks = {}
        for k in (2, 20):
            tracemalloc.start()
            try:
                gt.k_hot_gate_rows(w, ~live, np.minimum(k, live.sum(axis=1)), 0.5, rng=rng)
                peaks[k] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # each further draw may keep block-wide arrays, but less than half of one (n·heads, d) float64 array
        assert (peaks[20] - peaks[2]) / 18 < n * heads * d * 8 / 2


def reference_topk(w, live, k):
    """Stable argsort of -w**2 over the live entries of one row, first k."""
    idx = np.flatnonzero(live)
    return idx[np.argsort(-(w[idx] ** 2), kind="stable")][:k]


def random_topk_rows(rng, shape):
    """Weights spanning magnitudes down to 1e-12 relative, with exact ties and dead entries."""
    scale = 10.0 ** rng.uniform(-12, 0, size=shape)
    w = rng.choice([-1.0, 1.0], size=shape) * scale
    d = shape[-1]
    ties = rng.random(shape) < 0.3
    w = np.where(ties, rng.choice([-1.0, 1.0], size=shape) * w[..., :1], w)  # copies of the row's first magnitude
    live = rng.random(shape) < rng.uniform(0.3, 1.0)
    if rng.random() < 0.2:
        w[..., rng.integers(d)] = 0.0
    return w, live


def hard_order(w, live, k):
    """The hard gate's order: indices of the k largest live ``w**2``, dead indices last."""
    return gt.k_hot_gate(w, live, k)[1]


def full_sort_gate(w, live, k):
    """The hard gate as one stable argsort of every row's keys, then a gate multiplied by ``live``."""
    order = np.argsort(np.where(live, -(w * w), np.inf), axis=-1, kind="stable")[..., :k]
    gate = np.zeros(w.shape)
    np.put_along_axis(gate, order, 1.0, axis=-1)
    return gate * live, order


def sparse_gate_case(rng):
    """(n, heads, d) weights with ties, extreme magnitudes and NaN, about 1% live, and a gate count."""
    n, heads, d = (int(v) for v in rng.integers(1, [9, 4, 400]))
    w = rng.choice([-1.0, 1.0], size=(n, heads, d)) * 10.0 ** rng.uniform(-12, 0, size=(n, heads, d))
    w = np.where(rng.random(w.shape) < 0.3, rng.integers(-2, 3, size=w.shape) * 1.0, w)  # ties, zeros of both signs
    pick = rng.random(w.shape)
    w[pick < 0.03] = rng.choice([1e200, -1e200, 1e-200, -1e-200], size=int((pick < 0.03).sum()))
    w[(pick > 0.97) & (rng.random(w.shape) < 0.5)] = np.nan
    w[rng.random(n) < 0.1] = np.nan  # whole samples of NaN weights
    live = rng.random((n, 1, d)) < rng.choice([0.01, 0.03, 0.3])
    live[rng.random(n) < 0.15] = True  # all-live samples beside sparse ones
    live[rng.random(n) < 0.1] = False  # samples with no live entry
    k = int(rng.choice([rng.integers(1, 12), rng.integers(1, d + 3)]))  # counts past a sample's live entries, and k > d
    return w, live, k


class TestTopkSelect:
    """The hard gate's order is an exact stable top-k of the live ``w**2``."""

    def test_underflow_regression(self):
        # the log-softmax draw loop rounded the small weights to one value and returned [0, 1, 2]
        w = np.array([1.0, 1e-9, 2e-9, 3e-9])
        g, order = gt.k_hot_gate(w, True, 3)
        assert order.tolist() == [0, 3, 2]
        np.testing.assert_array_equal(g, [1.0, 0.0, 1.0, 1.0])

    def test_ties_go_to_lowest_index_and_sign_is_ignored(self):
        w = np.array([0.5, -2.0, 2.0, -0.5, 2.0])
        assert hard_order(w, True, 5).tolist() == [1, 2, 4, 0, 3]

    def test_dead_entries_sort_last(self):
        w = np.array([5.0, 1.0, 4.0, 3.0])
        live = np.array([False, True, False, True])
        assert hard_order(w, live, 4).tolist() == [3, 1, 0, 2]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_reference_on_vectors(self, seed):
        rng = np.random.default_rng(7000 + seed)
        for _ in range(100):
            d = int(rng.integers(1, 40))
            w, live = random_topk_rows(rng, (d,))
            k = int(rng.integers(1, d + 1))
            got = hard_order(w, live, k)
            ref = reference_topk(w, live, k)
            np.testing.assert_array_equal(got[: ref.size], ref)
            assert not live[got[ref.size :]].any()

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_on_batches(self, seed):
        rng = np.random.default_rng(8000 + seed)
        for _ in range(20):
            n, heads, d = (int(v) for v in rng.integers(1, [12, 4, 30]))
            w, _ = random_topk_rows(rng, (n, heads, d))
            live = rng.random((n, 1, d)) < 0.7  # one mask per sample, shared by its heads
            k = int(rng.integers(1, d + 1))
            got = hard_order(w, live, k)
            assert got.shape == (n, heads, k)
            for i in range(n):
                for c in range(heads):
                    ref = reference_topk(w[i, c], live[i, 0], k)
                    np.testing.assert_array_equal(got[i, c, : ref.size], ref)

    @pytest.mark.parametrize("seed", range(10))
    def test_hard_gate_matches_reference(self, seed):
        rng = np.random.default_rng(9000 + seed)
        w, live = random_topk_rows(rng, (int(rng.integers(2, 30)),))
        live[rng.integers(w.size)] = True
        k = int(rng.integers(1, int(live.sum()) + 1))
        g, order = gt.k_hot_gate(w, live, k)
        ref = reference_topk(w, live, k)
        assert order.tolist() == ref.tolist()
        assert np.flatnonzero(g).tolist() == sorted(ref.tolist())

    def test_weights_whose_squares_overflow_sort_first(self):
        # |w| above about 1.3e154 squares to inf, whose key -inf sorts first, ties to the lowest index;
        # the call runs where warnings are errors, so an unguarded overflow would raise
        w = np.array([1.0, -1e200, 3.0, 1e200, 2.0])
        g, order = gt.k_hot_gate(w, True, 3)
        assert order.tolist() == [1, 3, 2]
        np.testing.assert_array_equal(g, [0.0, 1.0, 1.0, 1.0, 0.0])
        g, order = gt.k_hot_gate(w, np.array([True, True, True, False, True]), 3)  # the live-block path
        assert order.tolist() == [1, 2, 4]
        np.testing.assert_array_equal(g, [0.0, 1.0, 1.0, 0.0, 1.0])

    def test_a_live_nan_weight_sorts_after_the_dead_entries(self):
        # NaN keys sort after the dead entries' +inf, so the dead indices fill the order first
        w = np.array([np.nan, 1.0, 5.0, 2.0, 3.0])
        live = np.array([True, True, False, False, False])
        g, order = gt.k_hot_gate(w, live, 3)
        assert order.tolist() == [1, 2, 3]
        np.testing.assert_array_equal(g, [0.0, 1.0, 0.0, 0.0, 0.0])
        g, order = gt.k_hot_gate(w[:3], live[:3], 3)  # with the dead entries used up, the live NaN is selected and opens
        assert order.tolist() == [1, 2, 0]
        np.testing.assert_array_equal(g, [1.0, 1.0, 0.0])

    @pytest.mark.parametrize("heads", [1, 3])
    def test_a_call_mixing_an_all_live_row_with_sparse_rows_orders_each_row_as_its_own_call(self, heads):
        # the all-live row widens every row's block to d; each row still sorts as it would alone
        rng = np.random.default_rng(9200 + heads)
        n, d, k = 16, 1969, 10
        live = rng.random((n, 1, d)) < 0.01
        live[:, 0, :k] |= rng.random((n, k)) < 0.5
        live[:, 0, rng.integers(0, d, size=k)] = True  # at least k live per row
        live[5] = True
        w = rng.normal(size=(n, heads, d))
        w[:, :, 1::2] = -w[:, :, : d - 1 : 2]  # each odd column ties with the one before it
        g, order = gt.k_hot_gate(w, live, k)
        for i in range(n):
            g_i, order_i = gt.k_hot_gate(w[i : i + 1], live[i : i + 1], k)
            assert order[i : i + 1].tobytes() == order_i.tobytes()
            assert g[i : i + 1].tobytes() == g_i.tobytes()

    @pytest.mark.parametrize("seed", range(10))
    def test_sparse_gate_equals_the_full_sort(self, seed):
        rng = np.random.default_rng(9100 + seed)
        blocked = 0
        for _ in range(500):
            w, live, k = sparse_gate_case(rng)
            g, order = gt.k_hot_gate(w, live, k)
            with np.errstate(over="ignore"):  # the reference squares without a guard
                want_g, want_order = full_sort_gate(w, live, k)
            assert order.tobytes() == want_order.tobytes() and order.shape == want_order.shape
            assert g.tobytes() == want_g.tobytes() and g.shape == want_g.shape
            blocked += int(live.sum(axis=-1).max()) + k < w.shape[-1] and not live.all()
        assert blocked > 150  # a good share of the cases sort a block narrower than the rows
