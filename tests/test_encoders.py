"""Static encoder and LSTM sequence encoder against scalar references."""
import numpy as np
import pytest

from liverec import autodiff as ad
from liverec.encoders import (
    LstmParams,
    PnnEncoderParams,
    encode_sequence,
    field_offsets,
    init_lstm_params,
    pnn_encode,
    pnn_encode_batch,
)

from oracles import fd_max_rel_error, lstm_gates, lstm_reference, pnn_reference


def _params(table):
    return PnnEncoderParams(user=table, anchor=table, item=table)


def test_pnn_all_zero_values():
    # an all-zero one-hot input: no active position, or only padded slots
    table = np.arange(8.0).reshape(4, 2)
    np.testing.assert_array_equal(pnn_encode("user", [], _params(table)).data, np.zeros(2))
    np.testing.assert_array_equal(pnn_encode("user", [-1, -1, -1], _params(table)).data, np.zeros(2))


def test_pnn_single_active_field_is_its_embedding():
    table = np.arange(8.0).reshape(4, 2)
    out = pnn_encode("item", [2], _params(table))
    np.testing.assert_allclose(out.data, table[2], atol=1e-15)


def test_pnn_two_field_hand_example():
    table = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = pnn_encode("user", [0, 1], _params(table))
    np.testing.assert_allclose(out.data, [7.0, 14.0], atol=1e-12)


def _unit(positions):
    return [(j, 1.0) for j in positions if j >= 0]


def test_pnn_matches_double_loop_reference():
    rng = np.random.default_rng(3)
    for _ in range(50):
        table = rng.normal(size=(10, 5))
        k = rng.integers(1, 6)
        positions = [int(j) for j in rng.choice(10, size=k, replace=False)]
        got = pnn_encode("anchor", positions, _params(table)).data
        np.testing.assert_allclose(got, pnn_reference(_unit(positions), table), atol=1e-12)


def test_pnn_permutation_invariant():
    rng = np.random.default_rng(4)
    table = rng.normal(size=(8, 3))
    positions = [1, 4, 6]
    base = pnn_encode("user", positions, _params(table)).data
    for perm in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
        out = pnn_encode("user", [positions[i] for i in perm], _params(table)).data
        np.testing.assert_allclose(out, base, atol=1e-12)


def test_pnn_swap_symmetry():
    # swapping two fields' embedding rows together with their positions
    # leaves the output unchanged
    rng = np.random.default_rng(5)
    table = rng.normal(size=(6, 4))
    swapped = table.copy()
    swapped[[1, 3]] = swapped[[3, 1]]
    a = pnn_encode("user", [1, 3, 5], _params(table)).data
    b = pnn_encode("user", [3, 1, 5], _params(swapped)).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_pnn_out_of_range_field():
    table = np.zeros((4, 2))
    with pytest.raises(IndexError, match="out of range"):
        pnn_encode("user", [4], _params(table))
    with pytest.raises(IndexError, match="out of range"):
        pnn_encode_batch("user", np.array([[0, 4]]), _params(table))


def test_pnn_pads_with_minus_one_only():
    # -1 marks an absent slot; any other negative position is out of range,
    # not a second padding value that drops the field
    table = np.arange(8.0).reshape(4, 2)
    np.testing.assert_array_equal(pnn_encode_batch("user", np.array([[-1, 2]]), _params(table)).data, [table[2]])
    for bad in (-2, -5):
        with pytest.raises(IndexError, match="out of range"):
            pnn_encode_batch("user", np.array([[bad, 2]]), _params(table))
        with pytest.raises(IndexError, match="out of range"):
            pnn_encode("user", [2, bad], _params(table))


def test_pnn_batch_matches_single():
    rng = np.random.default_rng(6)
    table = rng.normal(size=(12, 4))
    rows = rng.integers(0, 12, size=(7, 3))
    batch = pnn_encode_batch("item", rows, _params(table)).data
    for r in range(7):
        single = pnn_encode("item", rows[r], _params(table)).data
        np.testing.assert_array_equal(batch[r], single)
        np.testing.assert_allclose(batch[r], pnn_reference(_unit(rows[r]), table), atol=1e-12)


def test_pnn_batch_ragged_rows_pad_with_minus_one():
    rng = np.random.default_rng(17)
    table = rng.normal(size=(12, 4))
    rows = np.array([[3, -1, -1], [0, 5, 11], [7, 2, -1], [-1, -1, -1]])
    batch = pnn_encode_batch("item", rows, _params(table)).data
    assert batch.shape == (4, 4)
    for r in range(4):
        np.testing.assert_allclose(batch[r], pnn_reference(_unit(rows[r]), table), atol=1e-12)


def test_field_offsets():
    assert field_offsets([3, 2, 4]) == (0, 3, 5)
    assert field_offsets([]) == ()


def test_lstm_zero_weights_fixpoint():
    rng = np.random.default_rng(7)
    xs = ad.Tensor(rng.normal(size=(5, 3)))
    z = np.zeros((12, 3))
    states = encode_sequence(xs, LstmParams(z, z, np.zeros(12)))
    np.testing.assert_array_equal(states.data, np.zeros((5, 3)))


def test_lstm_length_contract():
    rng = np.random.default_rng(8)
    params = init_lstm_params(4, rng)
    assert (params.w.shape, params.u.shape, params.b.shape) == ((16, 4), (16, 4), (16,))
    xs = ad.Tensor(rng.normal(size=(7, 4)))
    assert encode_sequence(xs, params).shape == (7, 4)
    assert encode_sequence(ad.Tensor(np.zeros((0, 4))), params).shape == (0, 4)


def test_lstm_matches_scalar_reference():
    rng = np.random.default_rng(9)
    params = init_lstm_params(3, rng)
    xs = rng.normal(size=(3, 3))
    got = encode_sequence(ad.Tensor(xs), params)
    want = lstm_reference(list(xs), lstm_gates(params))
    np.testing.assert_allclose(got.data, np.array(want), atol=1e-12)


def test_lstm_prefix_property():
    rng = np.random.default_rng(10)
    params = init_lstm_params(4, rng)
    xs = rng.normal(size=(6, 4))
    full = encode_sequence(ad.Tensor(xs), params)
    prefix = encode_sequence(ad.Tensor(xs[:4]), params)
    assert prefix.shape == (4, 4)
    np.testing.assert_array_equal(full.data[:4], prefix.data)


def test_batched_sequences_match_sequential_paths():
    from liverec.encoders import encode_sequences_batched

    rng = np.random.default_rng(14)
    d = 4
    table = rng.normal(size=(20, d))
    params = PnnEncoderParams(user=table, anchor=table, item=table)
    lstm = init_lstm_params(d, rng)
    items = rng.integers(0, 20, size=(9, 3))
    items[5:, 1:][rng.random((4, 2)) < 0.4] = -1  # ragged items: padded slots
    # histories share items, one is empty and one repeats a single item
    histories = [np.array(h, dtype=np.intp) for h in ([0, 1, 2, 3, 4], [5], [], [6, 2, 7, 0, 8, 2, 1], [4, 4, 4])]
    stacked, rows = encode_sequences_batched(histories, items, params, lstm)
    assert stacked.shape == (16, d) and len(rows) == len(histories)
    # packed step-major, longest first: widths 4, 3, 3, 2, 2, 1, 1 from row 0, 4, 7, 10, 12, 14, 15
    packed = [[1, 5, 8, 11, 13], [3], [], [0, 4, 7, 10, 12, 14, 15], [2, 6, 9]]
    for hist, seq_rows, want_rows in zip(histories, rows, packed):
        np.testing.assert_array_equal(seq_rows, want_rows)
        mat = items[hist]
        want = encode_sequence(pnn_encode_batch("item", mat, params), lstm)
        seq = stacked.data[seq_rows]
        assert seq.shape == want.shape == (len(hist), d)
        np.testing.assert_allclose(seq, want.data, atol=1e-12)
        ref = lstm_reference([pnn_reference(_unit(row), table) for row in mat], lstm_gates(lstm))
        np.testing.assert_allclose(seq, np.array(ref).reshape(len(hist), d), atol=1e-12)
    empty, rows = encode_sequences_batched([np.zeros(0, dtype=np.intp)] * 2, items[:0], params, lstm)
    assert empty.shape == (0, d) and [len(r) for r in rows] == [0, 0]


@pytest.mark.parametrize("lengths", [[0], [1], [6], [4, 4, 4], [3, 0, 7, 1, 7, 2], [0, 1, 0, 5]])
def test_packed_states_match_the_scalar_loop(lengths):
    # each history in whatever order, one row per history item and no more,
    # items repeated within and across histories
    from liverec.encoders import encode_sequences_batched

    rng = np.random.default_rng(sum(lengths) + len(lengths))
    d = 3
    table = rng.normal(size=(12, d))
    params = PnnEncoderParams(user=table, anchor=table, item=table)
    lstm = init_lstm_params(d, rng)
    items = rng.integers(0, 12, size=(4, 2))
    histories = [rng.integers(0, len(items), size=n) for n in lengths]
    stacked, rows = encode_sequences_batched(histories, items, params, lstm)
    assert stacked.shape == (sum(lengths), d)
    assert sorted(np.concatenate(rows).tolist()) == list(range(sum(lengths)))
    for hist, seq_rows in zip(histories, rows):
        ref = lstm_reference([pnn_reference(_unit(items[i]), table) for i in hist], lstm_gates(lstm))
        np.testing.assert_allclose(stacked.data[seq_rows].reshape(len(hist), d), np.array(ref).reshape(len(hist), d),
                                   atol=1e-12)


def test_untracked_batched_lstm_holds_no_step_by_sequence_gate_block():
    # T = 200 steps over B = 64 sequences: a (T, B, 4d) block of gate
    # pre-activations would be 200*64*4*32 floats
    import tracemalloc

    from liverec.encoders import encode_sequences_batched

    rng = np.random.default_rng(21)
    d, steps, width = 32, 200, 64
    table = rng.normal(size=(40, d))
    params = PnnEncoderParams(user=table, anchor=table, item=table)
    lstm = init_lstm_params(d, rng)
    items = rng.integers(0, 40, size=(50, 2))
    histories = [rng.integers(0, len(items), size=steps) for _ in range(width)]
    tracemalloc.start()
    try:
        stacked, _ = encode_sequences_batched(histories, items, params, lstm)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stacked.shape == (steps * width, d)
    assert peak < steps * width * 4 * d * 8


def test_batched_sequences_gradients_match_sequential():
    from liverec import autodiff as ad
    from liverec.encoders import encode_sequences_batched

    rng = np.random.default_rng(15)
    d = 3
    table = rng.normal(size=(10, d))
    params_raw = init_lstm_params(d, rng)
    items = rng.integers(0, 10, size=(4, 2))
    # item 1 is read by both sequences at different steps, item 3 twice by one
    histories = [np.array([0, 1, 3, 3]), np.array([1, 2]), np.array([], dtype=np.intp)]
    cot = [rng.normal(size=(len(h), d)) for h in histories]

    def run(batched):
        tape = ad.Tape()
        tbl = tape.watch(table)
        pnn = PnnEncoderParams(tbl, tbl, tbl)
        if batched:
            stacked, rows = encode_sequences_batched(histories, items, pnn, params_raw)
            seqs = [ad.embedding_lookup(stacked, r) for r in rows]
        else:
            seqs = [encode_sequence(pnn_encode_batch("item", items[h], pnn), params_raw) for h in histories]
        total = None
        for seq, c in zip(seqs, cot):
            v = ad.reduce_sum(ad.multiply_elementwise(seq, c))
            total = v if total is None else ad.add(total, v)
        return ad.backward(tape, total)[tbl.node_id]

    np.testing.assert_allclose(run(True), run(False), atol=1e-12)


def test_batched_sequences_gradients_match_sequential_in_small_blocks(monkeypatch):
    # three-row blocks take the packed items [0, 1 | 1, 2 | 3 | 3] as
    # [3, 3], then [1, 2], then [0, 1], so item 1 is summed from two blocks
    monkeypatch.setattr(ad, "_BLOCK_ROWS", 3)
    test_batched_sequences_gradients_match_sequential()


def test_batched_tape_does_not_grow_with_the_sequence_count():
    # one PNN pass and one fused LSTM node, however many sequences of
    # whatever lengths: readers index the stacked states by the row lists
    from liverec.encoders import encode_sequences_batched

    rng = np.random.default_rng(16)
    d, longest = 3, 12
    lstm = init_lstm_params(d, rng)
    items = rng.integers(0, 10, size=(6, 2))

    def tape_nodes(lengths):
        tape = ad.Tape()
        tbl = tape.watch(rng.normal(size=(10, d)))
        histories = [rng.integers(0, len(items), size=n) for n in lengths]
        encode_sequences_batched(histories, items, PnnEncoderParams(tbl, tbl, tbl), lstm)
        return len(tape.nodes)

    base = tape_nodes([longest])
    for extra in ([1], [longest], [5, longest, 1, 7], [0, 0]):
        assert tape_nodes([longest] + extra) == base


def test_lstm_tape_nodes_do_not_grow_with_length():
    # the stored weight blocks go straight into the kernel: one lstm node
    # per call, whatever the number of steps
    rng = np.random.default_rng(18)
    d = 3
    raw = init_lstm_params(d, rng)
    xs = rng.normal(size=(6, d))

    def recorded(length):
        tape = ad.Tape()
        params = LstmParams(tape.watch(raw.w), tape.watch(raw.u), tape.watch(raw.b))
        inputs = tape.watch(xs[:length])
        before = len(tape.nodes)
        encode_sequence(inputs, params)
        return [kind for kind, _, _ in tape.nodes[before:]]

    for length in range(1, 7):
        assert recorded(length) == ["lstm"]


def test_pnn_gradients():
    rng = np.random.default_rng(12)
    for _ in range(10):
        table = rng.normal(size=(6, 3))
        positions = [int(j) for j in rng.choice(6, size=3, replace=False)]
        block = rng.integers(0, 6, size=(2, 3))
        block[rng.random((2, 3)) < 0.3] = -1

        def build(xs):
            out = pnn_encode("user", positions, _params(xs[0]))
            rows = pnn_encode_batch("user", block, _params(xs[0]))
            return ad.add(ad.reduce_sum(ad.multiply_elementwise(out, np.arange(1.0, 4.0))),
                          ad.reduce_sum(ad.multiply_elementwise(rows, np.arange(1.0, 7.0).reshape(2, 3))))

        assert fd_max_rel_error(build, [table]) <= 1e-4


def test_lstm_gradients_through_sequence():
    rng = np.random.default_rng(13)
    d = 3
    params = init_lstm_params(d, rng)
    xs = rng.normal(size=(3, d))
    cot = rng.normal(size=(3, d))

    def build(ws):
        states = encode_sequence(ad.Tensor(xs), LstmParams(*ws))
        return ad.reduce_sum(ad.multiply_elementwise(states, cot))

    assert fd_max_rel_error(build, [params.w.copy(), params.u.copy(), params.b.copy()]) <= 1e-4
