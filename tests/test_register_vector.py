"""Vector register calls against the loops of per-photon calls they stand for.

Two registers with the same seed run the same operations, one through a
vector call (integer codes) and one through the equivalent loop of
per-photon calls (enums); the outcomes must be equal and every live
photon's amplitudes must agree to 1e-12.  Both run the same kernels, so
a seeded mix of operations also pins the kernels' outcomes and
amplitudes bit for bit against recorded digests.
"""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qss_sim.adversaries import PAULI_ORDER, _random_paulis, random_pauli
from qss_sim.pauli import (
    BELL_CODES,
    Basis,
    BellLabel,
    PauliOp,
    decode_bell_to_pauli,
    decode_message,
    expected_parity,
)
from qss_sim.register import (
    ConsumedPhotonError,
    Register,
    RegisterError,
    SingleGate,
    SingleState,
    _first_touch,
)


def _assert_same_state(vec: Register, ref: Register) -> None:
    assert vec.live_photons == ref.live_photons
    for p in vec.live_photons:
        photons_v, amps_v = vec.amplitudes_of(p)
        photons_r, amps_r = ref.amplitudes_of(p)
        assert photons_v == photons_r
        np.testing.assert_allclose(amps_v, amps_r, rtol=0, atol=1e-12)


def _run(vec: Register, ref: Register, op: str, *args):
    """One vector call on `vec`, its per-photon loop on `ref`; returns
    the vector call's result, as enums and lists, after checking that
    both agree."""
    if op == "prepare_bells":
        n, label = args
        a, b = vec.prepare_bells(n, label)
        got = (a.tolist(), b.tolist())
        pairs = [ref.prepare_bell(label) for _ in range(n)]
        want = ([a for a, _ in pairs], [b for _, b in pairs])
    elif op == "prepare_singles":
        (states,) = args
        got = vec.prepare_singles(states).tolist()
        want = [ref.prepare_single(s) for s in states]
    elif op == "apply_gates":
        photons, gates = args
        got = vec.apply_gates(photons, gates)
        for p, g in zip(photons, gates):
            ref.apply_gate(p, g)
        want = None
    elif op == "measure_singles":
        photons, bases = args
        got = vec.measure_singles(photons, [b is Basis.X for b in bases]).tolist()
        want = [ref.measure_single(p, b) for p, b in zip(photons, bases)]
    else:
        a, b = args
        got = [BellLabel(k) for k in vec.measure_bells(a, b).tolist()]
        want = [ref.measure_bell(x, y) for x, y in zip(a, b)]
    assert got == want
    _assert_same_state(vec, ref)
    return got


_OPS = ("prepare_bells", "prepare_singles", "apply_gates", "measure_singles", "measure_bells")


def _each(photons: list[int], values) -> st.SearchStrategy:
    """One value per photon."""
    return st.lists(st.sampled_from(values), min_size=len(photons), max_size=len(photons))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_vector_calls_equal_per_photon_loops(data):
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    vec, ref = Register(seed=seed), Register(seed=seed)
    _run(vec, ref, "prepare_bells", 3, BellLabel.PSI_MINUS)
    for _ in range(data.draw(st.integers(1, 10), label="calls")):
        live = sorted(vec.live_photons)
        op = data.draw(st.sampled_from(_OPS))
        if op == "prepare_bells":
            n, label = data.draw(st.integers(0, 4)), data.draw(st.sampled_from(BellLabel))
            _run(vec, ref, op, n, label)
        elif op == "prepare_singles":
            _run(vec, ref, op, data.draw(st.lists(st.sampled_from(SingleState), max_size=4)))
        elif not live:
            continue
        elif op == "apply_gates":
            # Repeats allowed: gates on one photon or one pair run in order.
            photons = data.draw(st.lists(st.sampled_from(live), max_size=8))
            gates = data.draw(_each(photons, SingleGate))
            _run(vec, ref, op, photons, gates)
        elif op == "measure_singles":
            photons = data.draw(st.permutations(live))[: data.draw(st.integers(0, len(live)))]
            bases = data.draw(_each(photons, Basis))
            _run(vec, ref, op, photons, bases)
        else:
            chosen = data.draw(st.permutations(live))
            k = data.draw(st.integers(0, len(chosen) // 2))
            _run(vec, ref, op, chosen[:k], chosen[k : 2 * k])


def _twins(seed: int = 11) -> tuple[Register, Register]:
    return Register(seed=seed), Register(seed=seed)


@pytest.mark.parametrize("basis", list(Basis))
def test_measure_both_photons_of_one_pair_in_one_call(basis):
    vec, ref = _twins()
    a, b = _run(vec, ref, "prepare_bells", 6, BellLabel.PSI_MINUS)
    # Each pair's first-listed photon collapses before its partner.
    photons = [p for pair in zip(b, a) for p in pair]
    results = _run(vec, ref, "measure_singles", photons, [basis] * len(photons))
    assert all(x ^ y == 1 for x, y in zip(results[::2], results[1::2]))


def test_bell_measurements_leaving_zero_one_or_two_survivors():
    vec, ref = _twins()
    firsts, seconds = _run(vec, ref, "prepare_bells", 4, BellLabel.PSI_MINUS)
    (a1, a2, a3, a4), (b1, b2, b3, b4) = firsts, seconds
    (s,) = _run(vec, ref, "prepare_singles", [SingleState.PLUS])
    _run(vec, ref, "measure_singles", [a4], [Basis.X])
    # (a1, b1) shares a row and leaves no survivor; (b2, a3) spans two
    # rows and leaves a2 and b3 in one row; (b3, s) then runs after it
    # and leaves a2 alone.
    _run(vec, ref, "measure_bells", [a1, b2, b3], [b1, a3, s])
    assert vec.amplitudes_of(a2)[0] == [a2]
    # Two rows whose other sides are both dead: no survivor.
    _run(vec, ref, "measure_bells", [b4], [a2])
    assert vec.live_photons == frozenset()


def test_bell_measurements_in_one_call_that_share_a_row_run_in_order():
    vec, ref = _twins()
    (a1, a2), (b1, b2) = _run(vec, ref, "prepare_bells", 2, BellLabel.PSI_MINUS)
    # The first measurement swaps a1 and b2 into one row; the second
    # then measures that row.
    labels = _run(vec, ref, "measure_bells", [b1, a1], [a2, b2])
    assert len(labels) == 2
    assert vec.live_photons == frozenset()


def test_gates_on_both_photons_of_one_pair_in_one_call():
    vec, ref = _twins()
    (a,), (b,) = _run(vec, ref, "prepare_bells", 1, BellLabel.PSI_MINUS)
    gates = [SingleGate.H, SingleGate.X, SingleGate.IY, SingleGate.H, SingleGate.Z]
    _run(vec, ref, "apply_gates", [a, b, a, b, b], gates)


def test_listing_a_photon_twice_in_a_measuring_call_raises():
    reg = Register(seed=3)
    (a,), (b,) = reg.prepare_bells(1, BellLabel.PSI_MINUS)
    (c,), (d,) = reg.prepare_bells(1, BellLabel.PSI_MINUS)
    with pytest.raises(RegisterError):
        reg.measure_singles([a, a], [False, False])
    with pytest.raises(RegisterError):
        reg.measure_bells([a, b], [c, a])
    with pytest.raises(RegisterError):
        reg.measure_bells([a], [a])
    assert reg.live_photons == {a, b, c, d}


def test_vector_draws_equal_scalar_draws():
    # The engine and the callers draw n uniforms or n Pauli indices in
    # one call where the per-photon code drew them one at a time.
    vec, ref = np.random.default_rng(5), np.random.default_rng(5)
    assert vec.random(257).tolist() == [ref.random() for _ in range(257)]
    paulis = [PAULI_ORDER[k] for k in vec.integers(4, size=257).tolist()]
    assert paulis == [random_pauli(ref) for _ in range(257)]
    assert _random_paulis(vec, 64).tolist() == [random_pauli(ref) for _ in range(64)]
    assert vec.random() == ref.random()


def test_each_symbol_is_the_code_the_arrays_carry():
    # A Pauli gate is its Pauli and H follows them; a Bell outcome's code
    # indexes the Pauli code it decodes to; a state is 2*basis + bit.
    for p in PauliOp:
        assert p == 2 * p.xbit + p.zbit
        assert SingleGate[p.name] == p
    assert SingleGate.H == len(PauliOp)
    for label in BellLabel:
        assert BELL_CODES[label] == decode_bell_to_pauli(label)
    for basis, bit in itertools.product(Basis, (0, 1)):
        state = SingleState(2 * basis + bit)
        assert (state.basis, state.bit) == (basis, bit)
    # The seeded draw k of rng.integers(4) picks PAULI_ORDER[k].
    assert PAULI_ORDER == (PauliOp.I, PauliOp.X, PauliOp.IY, PauliOp.Z)
    # The parity rule and the message codec, given int arrays and a bool
    # mask, are the scalar rules element by element.
    codes = np.repeat(np.arange(len(PauliOp)), len(Basis))
    in_x = np.tile(np.arange(len(Basis)), len(PauliOp)).astype(bool)
    scalar = [expected_parity(PauliOp(c), Basis(x)) for c, x in zip(codes, in_x)]
    assert expected_parity(codes, in_x).tolist() == scalar
    bits = [bit for c in codes for bit in (PauliOp(c).xbit, PauliOp(c).zbit)]
    assert decode_message(codes) == bits


def test_vector_calls_reject_unknown_codes():
    reg = Register(seed=6)
    (a,), (b,) = reg.prepare_bells(1, BellLabel.PSI_MINUS)
    before = reg.amplitudes_of(a)[1].copy()
    for code in (-1, len(SingleGate)):
        with pytest.raises(RegisterError):
            reg.apply_gates([a], [code])
    for code in (-1, 4):
        with pytest.raises(RegisterError):
            reg.prepare_singles([code])
        with pytest.raises(RegisterError):
            reg.prepare_bells(1, code)
    # Only integers are codes: a float or a bool is not rounded or cast
    # to some symbol.
    for code in (1.7, 2.9, 1.0, True, False):
        with pytest.raises(RegisterError):
            reg.apply_gates([a], [code])
        with pytest.raises(RegisterError):
            reg.prepare_singles([code])
        with pytest.raises(RegisterError):
            reg.prepare_bells(1, code)
    with pytest.raises(RegisterError):
        reg.apply_gates([a, a], np.array([1.0, 0.0]))
    with pytest.raises(RegisterError):
        reg.prepare_singles(np.array([True, False]))
    # Photon ids are integers too, and a basis is a bool or a Basis code;
    # a rejected call writes nothing and draws nothing.
    def snapshot():
        return (
            reg._amps.copy(),
            reg._members.copy(),
            reg._seat.copy(),
            reg._next_row,
            reg._next_photon,
            reg.live_photons,
            reg.rng.bit_generator.state,
        )

    def assert_rejected(call, *args):
        kept = snapshot()
        with pytest.raises(RegisterError):
            call(*args)
        for now, then in zip(snapshot(), kept):
            np.testing.assert_equal(now, then)

    for photons, in_x in (
        ([0.9], [False]),
        ([True], [False]),
        (np.array([float(a)]), [False]),
        ([a], [2]),
        ([a], [-1]),
        ([a], [0.5]),
        ([True], [2]),
    ):
        assert_rejected(reg.measure_singles, photons, in_x)
    for photons in ([0.9], [True], np.array([float(a)])):
        assert_rejected(reg.apply_gates, photons, [SingleGate.H])
        assert_rejected(reg.measure_bells, photons, [b])
        assert_rejected(reg.measure_bells, [b], photons)
    assert reg.live_photons == {a, b}
    # A rejected call takes no row and no photon id.
    assert (reg._next_row, reg._next_photon) == (1, 2)
    np.testing.assert_array_equal(reg.amplitudes_of(a)[1], before)
    # An empty call is still valid.
    assert reg.measure_singles([], []).size == 0


def test_vector_calls_need_one_entry_per_photon():
    reg = Register(seed=4)
    (a, b), (c, d) = reg.prepare_bells(2, BellLabel.PSI_MINUS)
    with pytest.raises(RegisterError):
        reg.apply_gates([a, b], [SingleGate.X])
    with pytest.raises(RegisterError):
        reg.measure_singles([a, b], [False])
    with pytest.raises(RegisterError):
        reg.measure_bells([a, b], [c])
    assert reg.live_photons == {a, b, c, d}


def _kernel_mix(n: int, seed: int) -> tuple[str, str]:
    """Every kernel case over n positions in a seeded order; returns the
    sha256 of the outcomes and of the amplitude table."""
    reg, pick = Register(seed=seed), np.random.default_rng(seed + 1)
    a, b = reg.prepare_bells(n, BellLabel.PHI_PLUS)
    c, d = reg.prepare_bells(n, BellLabel.PSI_MINUS)
    e, f = reg.prepare_bells(n, BellLabel.PSI_PLUS)
    s, t, u = (reg.prepare_singles(pick.integers(4, size=n)) for _ in range(3))

    def gates(photons):
        # H and the four Paulis on both sides of rows, twice each, shuffled.
        photons = pick.permutation(np.concatenate((photons, photons)))
        reg.apply_gates(photons, pick.integers(len(SingleGate), size=len(photons)))

    outcomes = []
    gates(np.concatenate((a, b, c, d, e, f, s, t, u)))
    # One call mixes same-row pairs (e, f), which leave no survivor, with
    # cross-row pairs (b, c), which leave a and d in one row.
    same, order = pick.random(n) < 0.5, pick.permutation(n)
    outcomes.append(reg.measure_bells(np.where(same, e, b)[order], np.where(same, f, c)[order]))
    gates(np.concatenate((a, d, t)))
    # Cross-row pairs with one survivor (a or c), then with none.
    outcomes.append(reg.measure_bells(d, s))
    outcomes.append(reg.measure_bells(t, u))
    live = np.array(sorted(reg.live_photons), dtype=np.int64)
    gates(live)
    # Z and X measurements of two thirds of the rest, often both sides
    # of one row in one call.
    chosen = pick.permutation(live)[: 2 * len(live) // 3]
    outcomes.append(reg.measure_singles(chosen, pick.random(len(chosen)) < 0.5))
    # + 0.0 turns -0.0 into 0.0, so a zero's sign does not count.
    amps = reg._amps[: reg._next_row] + 0.0
    return (
        hashlib.sha256(np.concatenate(outcomes).astype(np.int64).tobytes()).hexdigest(),
        hashlib.sha256(amps.tobytes()).hexdigest(),
    )


# n -> sha256 of the outcomes and of the amplitude table of _kernel_mix,
# recorded from the item-major kernels the component-major ones replaced.
_KERNEL_DIGESTS = {
    1: (
        "9508b59c63cbec25fc803791f964353ee8f1367d14c428f726bb7ca363a6d9f8",
        "5f7a4df61a14904ec6e2b3f29d78170ab18192605feedab2e54ddff846edbd6d",
    ),
    7: (
        "3c0d954ad6c1fd3c26a9593cfe401614f8ed161248612f722e20507ca1b482d5",
        "2db1bc169d32c36e6f911712f55607be3c7da39fce658d168b2e6004486394c3",
    ),
    3001: (
        "1679e55bca798c1cbe82fd035bbfa43332410241ebe50e52aab54702303d6c7d",
        "1feb76f6a1209b038b55c7fa05f0d8878ac8255989e31aaa359486360bb9eb1f",
    ),
}


@pytest.mark.parametrize("n", sorted(_KERNEL_DIGESTS))
def test_register_kernels_are_bit_identical(n):
    assert _kernel_mix(n, seed=900 + n) == _KERNEL_DIGESTS[n]


def _peak_bytes_per_item(call, n: int) -> float:
    """Peak bytes that `call` holds at once in new allocations, per item."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / n
    finally:
        tracemalloc.stop()


# Peak bytes per item that a large call allocates, each a few percent
# above its value with numpy 2.4.6 (138, 163 and 243).  The kernels
# compute in place and reuse their buffers, so a large call allocates a
# small multiple of the 32 bytes of amplitudes per item it reads; one
# stray (4, 4, n) temporary costs 128 bytes per item.
_BYTES_PER_ITEM = {"apply_gates": 145, "measure_singles": 170, "measure_bells": 255}


@pytest.mark.parametrize("method", sorted(_BYTES_PER_ITEM))
def test_large_calls_allocate_a_small_multiple_of_their_amplitudes(method):
    n = 4608
    reg, pick = Register(seed=31), np.random.default_rng(32)
    a, b = reg.prepare_bells(n, BellLabel.PSI_MINUS)
    c, _ = reg.prepare_bells(n, BellLabel.PHI_PLUS)
    gates, in_x = pick.integers(len(SingleGate), size=n), pick.random(n) < 0.5
    call = {
        "apply_gates": lambda: reg.apply_gates(a, gates),
        "measure_singles": lambda: reg.measure_singles(a, in_x),
        "measure_bells": lambda: reg.measure_bells(b, c),
    }[method]
    assert _peak_bytes_per_item(call, n) <= _BYTES_PER_ITEM[method]


def test_growing_a_large_register_allocates_only_its_new_tables():
    # 8192 single photons added to 8192 pairs, as Eve's resend adds them
    # in an 8192-pair trial, double the row tables and grow the seats to
    # 32768; their new capacity is about 144 bytes per photon (160 with
    # numpy 2.4.6, all told).  Two seat arrays or a fancy-indexed copy of
    # the new rows would each add 32 more.
    n = 8192
    reg = Register(seed=33)
    reg.prepare_bells(n, BellLabel.PSI_MINUS)
    states = np.random.default_rng(34).integers(len(SingleState), size=n)
    assert _peak_bytes_per_item(lambda: reg.prepare_singles(states), n) <= 168
    assert len(reg._amps) == reg._next_row == 2 * n


def test_liveness_at_the_ends_of_the_tables():
    # The tables past the used entries hold zeros, which must read as no
    # photon: ids outside [0, _next_photon), the first id past the seat
    # capacity and photon 0 of an empty register are not live.  In the
    # grown register photon 0 is measured, so its seat, onto which -1 and
    # the unused seat entries point, is empty.
    empty, grown = Register(seed=1), Register(seed=1)
    grown.prepare_bells(20, BellLabel.PSI_MINUS)
    grown.measure_singles([0], [False])
    assert len(grown._seat) > grown._next_photon > 32
    cases = [(empty, 0), (grown, 0)]
    for reg in (empty, grown):
        cases += [(reg, p) for p in (-1, reg._next_photon, len(reg._seat), 10**9)]
    for reg, photon in cases:
        assert not reg.is_live(photon)
        with pytest.raises(ConsumedPhotonError):
            reg.apply_gates([photon], [SingleGate.I])
        with pytest.raises(ConsumedPhotonError):
            reg.measure_singles([photon], [False])
        with pytest.raises(ConsumedPhotonError):
            reg.measure_bells([photon], [1])
        with pytest.raises(ConsumedPhotonError):
            reg.amplitudes_of(photon)
    assert grown.live_photons == frozenset(range(1, 40))


@pytest.mark.parametrize("poison", [np.nan, np.inf])
def test_a_poisoned_row_fails_the_norm_check(poison):
    calls = (
        lambda reg, a, c: reg.apply_gates([a], [SingleGate.X]),
        lambda reg, a, c: reg.measure_singles([a], [False]),
        lambda reg, a, c: reg.measure_bells([a], [c]),
    )
    for call in calls:
        reg = Register(seed=8)
        (a, c), _ = reg.prepare_bells(2, BellLabel.PSI_MINUS)
        reg._amps[0, 0, 1] = poison
        # inf times a zero coefficient is NaN, which numpy warns of; the
        # norm check must raise all the same.
        with np.errstate(invalid="ignore"), pytest.raises(RegisterError, match="norm"):
            call(reg, a, c)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=40),
    st.integers(-1, 40),
)
def test_first_touch_of_one_row_per_item(pairs, stale):
    # An item comes first when no earlier item touches any of its rows,
    # whatever the scratch held before.
    rows_a = np.array([a for a, _ in pairs], dtype=np.int64)
    rows_b = np.array([b for _, b in pairs], dtype=np.int64)
    for lists in ((rows_a,), (rows_a, rows_b)):
        seen, want = set(), []
        for rows in zip(*lists):
            want.append(seen.isdisjoint(rows))
            seen.update(rows)
        stamp = np.full(13, stale, dtype=np.int64)
        assert _first_touch(lists[0], lists[-1], stamp).tolist() == want
