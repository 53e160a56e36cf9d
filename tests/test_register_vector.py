"""Vector register calls against the loops of per-photon calls they stand for.

Two registers with the same seed run the same operations, one through
vector calls (integer codes) and one through the equivalent loop of
per-photon calls (enums); the outcomes must be equal and every live
photon's amplitudes must agree to 1e-12.  The items of a vector call
touch distinct rows, so a generated list goes to the register as
consecutive one-round calls.  Both run the same kernels, so a seeded mix
of operations also pins the kernels' outcomes and amplitudes bit for bit
against recorded digests.
"""

import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qss_sim import register
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
)


def _assert_same_state(vec: Register, ref: Register) -> None:
    assert vec.live_photons == ref.live_photons
    for p in vec.live_photons:
        photons_v, amps_v = vec.amplitudes_of(p)
        photons_r, amps_r = ref.amplitudes_of(p)
        assert photons_v == photons_r
        np.testing.assert_allclose(amps_v, amps_r, rtol=0, atol=1e-12)


def _row(reg: Register, photon: int) -> int:
    """A key of the row that holds `photon`: its first live photon."""
    return reg.amplitudes_of(int(photon))[0][0]


def _segments(reg: Register, op: str, *lists):
    """Call `op` on `lists` (the photon lists, then one value per item) as
    consecutive one-round calls, each running up to the first item that
    touches a row an earlier item of it touches (one empty call for empty
    lists); returns the results of the calls, joined, or None for gates.  Items on distinct rows commute,
    and consecutive calls draw consecutive uniforms, so this replays the
    loop of per-photon calls over the lists."""
    photon_lists = lists[: 2 if op == "measure_bells" else 1]
    n, start, out = len(lists[0]), 0, []
    while start < n or not out:
        end, touched = start, set()
        while end < n:
            rows = {_row(reg, photons[end]) for photons in photon_lists}
            if not touched.isdisjoint(rows):
                break
            touched |= rows
            end += 1
        out.append(getattr(reg, op)(*(values[start:end] for values in lists)))
        start = end
    return None if op == "apply_gates" else np.concatenate(out)


def _run(vec: Register, ref: Register, op: str, *args):
    """The vector calls on `vec` (see `_segments`), their per-photon loop
    on `ref`; returns the vector calls' result, as enums and lists, after
    checking that both agree."""
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
        got = _segments(vec, op, photons, gates)
        for p, g in zip(photons, gates):
            ref.apply_gate(p, g)
        want = None
    elif op == "measure_singles":
        photons, bases = args
        got = _segments(vec, op, photons, [b is Basis.X for b in bases]).tolist()
        want = [ref.measure_single(p, b) for p, b in zip(photons, bases)]
    else:
        a, b = args
        got = [BellLabel(k) for k in _segments(vec, op, a, b).tolist()]
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
            # Repeats allowed: gates on one photon or one pair go in order.
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


def _tables(reg: Register) -> tuple:
    return (
        reg._amps.tobytes(),
        reg._members.tobytes(),
        reg._seat.tobytes(),
        reg._next_row,
        reg._next_photon,
        reg.live_photons,
    )


def _refused(reg: Register, op: str, *args, error: type = RegisterError) -> None:
    """Call `op` and require an `error` that leaves the tables and the
    generator as they were."""
    before, state = _tables(reg), reg.rng.bit_generator.state
    with pytest.raises(error):
        getattr(reg, op)(*args)
    assert _tables(reg) == before
    assert reg.rng.bit_generator.state == state


@pytest.mark.parametrize("basis", list(Basis))
def test_measure_both_photons_of_one_pair_in_one_call(basis):
    vec, ref = _twins()
    a, b = _run(vec, ref, "prepare_bells", 6, BellLabel.PSI_MINUS)
    photons = [p for pair in zip(b, a) for p in pair]
    _refused(vec, "measure_singles", photons, [basis is Basis.X] * len(photons))
    # As a Z/X check measures them: the remote halves, then the local ones.
    remote = _run(vec, ref, "measure_singles", b, [basis] * len(b))
    local = _run(vec, ref, "measure_singles", a, [basis] * len(a))
    assert all(x ^ y == 1 for x, y in zip(remote, local))


def test_bell_measurements_leaving_zero_one_or_two_survivors():
    vec, ref = _twins()
    firsts, seconds = _run(vec, ref, "prepare_bells", 4, BellLabel.PSI_MINUS)
    (a1, a2, a3, a4), (b1, b2, b3, b4) = firsts, seconds
    (s,) = _run(vec, ref, "prepare_singles", [SingleState.PLUS])
    _run(vec, ref, "measure_singles", [a4], [Basis.X])
    # (a1, b1) shares a row and leaves no survivor; (b2, a3) spans two
    # rows and leaves a2 and b3 in one row, where (b3, s) then leaves a2
    # alone.
    _run(vec, ref, "measure_bells", [a1, b2], [b1, a3])
    assert vec.amplitudes_of(a2)[0] == [a2, b3]
    _run(vec, ref, "measure_bells", [b3], [s])
    assert vec.amplitudes_of(a2)[0] == [a2]
    # Two rows whose other sides are both dead: no survivor.
    _run(vec, ref, "measure_bells", [b4], [a2])
    assert vec.live_photons == frozenset()


def test_bell_measurements_in_one_call_that_share_a_row_are_refused():
    vec, ref = _twins()
    (a1, a2), (b1, b2) = _run(vec, ref, "prepare_bells", 2, BellLabel.PSI_MINUS)
    # The first measurement would swap a1 and b2 into one row for the
    # second to measure; in one call, a1's row is touched twice.
    _refused(vec, "measure_bells", [b1, a1], [a2, b2])
    labels = _run(vec, ref, "measure_bells", [b1, a1], [a2, b2])
    assert len(labels) == 2
    assert vec.live_photons == frozenset()


def test_gates_on_both_photons_of_one_pair_in_one_call():
    vec, ref = _twins()
    (a,), (b,) = _run(vec, ref, "prepare_bells", 1, BellLabel.PSI_MINUS)
    gates = [SingleGate.H, SingleGate.X, SingleGate.IY, SingleGate.H, SingleGate.Z]
    _refused(vec, "apply_gates", [a, b], gates[:2])
    _refused(vec, "apply_gates", [a, a], gates[:2])
    _run(vec, ref, "apply_gates", [a, b, a, b, b], gates)


def test_listing_a_photon_twice_in_a_measuring_call_raises():
    # A photon sits on one row, so a call whose items touch distinct
    # rows lists no photon twice.  [b, a, a] and the Bell call over
    # [b, a, e] and [c, d, a] repeat a photon that is not its row's
    # first.  In the call over [c, a] and [a, e], a repeats an earlier
    # item's photon from the other list, and [a] with [a] repeats one
    # within an item.  Every refused call draws and writes nothing.
    reg = Register(seed=3)
    (a,), (b,) = reg.prepare_bells(1, BellLabel.PSI_MINUS)
    (c,), (d,) = reg.prepare_bells(1, BellLabel.PSI_MINUS)
    (e,), (f,) = reg.prepare_bells(1, BellLabel.PSI_MINUS)
    (g,), (h,) = reg.prepare_bells(1, BellLabel.PSI_MINUS)
    refused = [
        ("measure_singles", [a, a], [False, False]),
        ("measure_singles", [b, a, a], [False, True, False]),
        ("measure_singles", [a, b, a], [False, False, True]),
        ("measure_bells", [a, b], [c, a]),
        ("measure_bells", [a], [a]),
        ("measure_bells", [b, a, e], [c, d, a]),
        ("measure_bells", [c, a], [a, e]),
    ]
    for op, *args in refused:
        _refused(reg, op, *args)
    assert reg.live_photons == {a, b, c, d, e, f, g, h}
    # A Bell item may hold both photons of one row, beside an item that
    # spans two others and leaves d and f in one row.
    assert len(reg.measure_bells([a, c], [b, e])) == 2
    assert reg.amplitudes_of(d)[0] == [d, f]
    assert len(reg.measure_singles([d, g], [False, True])) == 2
    assert reg.live_photons == {f, h}


_CALLS = ("apply_gates", "measure_singles", "measure_bells")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_a_call_raises_exactly_when_two_items_share_a_row(data):
    # Pairs and singles, some measured and some swapped into a shared row
    # by a Bell measurement, so live photons sit on both sides and beside
    # dead sides.  The lists may repeat a photon across items, across the
    # two Bell lists and within one item, and may name both photons of one
    # row in two items or in one Bell item.  A set-based oracle refuses a
    # call whose items' rows meet or that lists one photon twice in a Bell
    # item; a refused call draws and writes nothing.
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    vec, ref = _twins(seed)
    _run(vec, ref, "prepare_bells", data.draw(st.integers(0, 4), label="pairs"), BellLabel.PSI_MINUS)
    _run(vec, ref, "prepare_singles", data.draw(st.lists(st.sampled_from(SingleState), max_size=3)))
    chosen = data.draw(st.permutations(sorted(vec.live_photons)))
    k = data.draw(st.integers(0, min(2, len(chosen) // 2)), label="swaps")
    m = data.draw(st.integers(0, len(chosen) - 2 * k), label="measured")
    _run(vec, ref, "measure_bells", chosen[:k], chosen[k : 2 * k])
    _run(vec, ref, "measure_singles", chosen[2 * k : 2 * k + m], [Basis.Z] * m)
    live = sorted(vec.live_photons)
    if not live:
        return
    op = data.draw(st.sampled_from(_CALLS))
    first = data.draw(st.lists(st.sampled_from(live), max_size=6), label="first")
    if op == "apply_gates":
        args, items = (first, data.draw(_each(first, SingleGate))), [[p] for p in first]
    elif op == "measure_singles":
        args, items = (first, data.draw(_each(first, Basis))), [[p] for p in first]
    else:
        second = data.draw(_each(first, live), label="second")
        args, items = (first, second), [[p, q] for p, q in zip(first, second)]
    # The photons on each item's rows: one row's live photons are its group.
    rows = [set().union(*(vec.amplitudes_of(p)[0] for p in item)) for item in items]
    shared = any(not x.isdisjoint(y) for x, y in itertools.combinations(rows, 2))
    twice = any(len(set(item)) < len(item) for item in items)
    if shared or twice:
        _refused(vec, op, *args)
    else:
        _run(vec, ref, op, *args)


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
    # Unequal lists draw and write nothing.
    reg = Register(seed=4)
    (a, b), (c, d) = reg.prepare_bells(2, BellLabel.PSI_MINUS)
    _refused(reg, "apply_gates", [a, b], [SingleGate.X])
    _refused(reg, "measure_singles", [a, b], [False])
    _refused(reg, "measure_bells", [a, b], [c])
    assert reg.live_photons == {a, b, c, d}


def _kernel_mix(n: int, seed: int) -> tuple[str, str]:
    """Every kernel case over n positions in a seeded order, each list
    issued as consecutive one-round calls (see `_segments`); returns the
    sha256 of the outcomes and of the amplitude table."""
    reg, pick = Register(seed=seed), np.random.default_rng(seed + 1)
    a, b = reg.prepare_bells(n, BellLabel.PHI_PLUS)
    c, d = reg.prepare_bells(n, BellLabel.PSI_MINUS)
    e, f = reg.prepare_bells(n, BellLabel.PSI_PLUS)
    s, t, u = (reg.prepare_singles(pick.integers(4, size=n)) for _ in range(3))

    def gates(photons):
        # H and the four Paulis on both sides of rows, twice each, shuffled.
        photons = pick.permutation(np.concatenate((photons, photons)))
        _segments(reg, "apply_gates", photons, pick.integers(len(SingleGate), size=len(photons)))

    outcomes = []
    gates(np.concatenate((a, b, c, d, e, f, s, t, u)))
    # One call mixes same-row pairs (e, f), which leave no survivor, with
    # cross-row pairs (b, c), which leave a and d in one row.
    same, order = pick.random(n) < 0.5, pick.permutation(n)
    first, second = np.where(same, e, b)[order], np.where(same, f, c)[order]
    outcomes.append(_segments(reg, "measure_bells", first, second))
    gates(np.concatenate((a, d, t)))
    # Cross-row pairs with one survivor (a or c), then with none.
    outcomes.append(_segments(reg, "measure_bells", d, s))
    outcomes.append(_segments(reg, "measure_bells", t, u))
    live = np.array(sorted(reg.live_photons), dtype=np.int64)
    gates(live)
    # Z and X measurements of two thirds of the rest, often both sides
    # of one row in one list.
    chosen = pick.permutation(live)[: 2 * len(live) // 3]
    outcomes.append(_segments(reg, "measure_singles", chosen, pick.random(len(chosen)) < 0.5))
    # + 0.0 turns -0.0 into 0.0, so a zero's sign does not count.
    amps = reg._amps[: reg._next_row] + 0.0
    return (
        hashlib.sha256(np.concatenate(outcomes).astype(np.int64).tobytes()).hexdigest(),
        hashlib.sha256(amps.tobytes()).hexdigest(),
    )


# n -> sha256 of the outcomes and of the amplitude table of _kernel_mix,
# recorded from the item-major kernels the component-major ones replaced,
# when a call ran the items that share a row in list order.  Each Bell
# list of the mix touches distinct rows and lists n items, so at n = 3001
# it is one call of at least two blocks while _BLOCK is at most 3000.
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


def test_blocks_give_the_bits_of_whole_rounds(monkeypatch):
    # The same op lists with whole calls and with blocks of 3 items, so
    # calls break at block edges.
    assert max(_KERNEL_DIGESTS) > register._BLOCK
    whole = _kernel_mix(50, seed=950)
    monkeypatch.setattr(register, "_BLOCK", 3)
    assert _kernel_mix(50, seed=950) == whole


def _peak_bytes_per_item(call, n: int) -> float:
    """Peak bytes that `call` holds at once in new allocations, per item."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / n
    finally:
        tracemalloc.stop()


# Peak bytes per item that a call of n items allocates, each a few
# percent above its value with numpy 2.4.6: (86, 77, 138) at 4608 items
# and (25, 25, 33) at 32768.  The kernels compute in place, reuse their
# buffers and run at most _BLOCK items at once, so a large call allocates
# its own arrays of ids, seats, uniforms and outcomes, a few words per
# item, plus one block's temporaries; one stray (4, 4, n) temporary costs
# 128 bytes per item.
_BYTES_PER_ITEM = {
    "apply_gates": {4608: 91, 32768: 27},
    "measure_singles": {4608: 82, 32768: 27},
    "measure_bells": {4608: 146, 32768: 35},
}


@pytest.mark.parametrize("method", sorted(_BYTES_PER_ITEM))
def test_large_calls_allocate_a_small_multiple_of_their_amplitudes(method):
    for n, bound in _BYTES_PER_ITEM[method].items():
        reg, pick = Register(seed=31), np.random.default_rng(32)
        a, b = reg.prepare_bells(n, BellLabel.PSI_MINUS)
        c, _ = reg.prepare_bells(n, BellLabel.PHI_PLUS)
        gates, in_x = pick.integers(len(SingleGate), size=n), pick.random(n) < 0.5
        call = {
            "apply_gates": lambda: reg.apply_gates(a, gates),
            "measure_singles": lambda: reg.measure_singles(a, in_x),
            "measure_bells": lambda: reg.measure_bells(b, c),
        }[method]
        assert _peak_bytes_per_item(call, n) <= bound, n


# Peak bytes per photon of a Z/X check's two measuring calls, the remote
# photons and then the local ones, each a few percent above its value
# with numpy 2.4.6: 42.7 at 4608 pairs and 16.5 at 32768.  Each call
# holds its own arrays and one block's temporaries, then frees them.
_ZX_BYTES_PER_PHOTON = {4608: 44, 32768: 17}


def test_a_zx_checks_two_calls_allocate_a_small_multiple_of_their_amps():
    for n, bound in _ZX_BYTES_PER_PHOTON.items():
        reg, pick = Register(seed=31), np.random.default_rng(32)
        local, remote = reg.prepare_bells(n, BellLabel.PSI_MINUS)
        in_x = pick.random(n) < 0.5

        def check():
            reg.measure_singles(remote, in_x)
            reg.measure_singles(local, in_x)

        assert _peak_bytes_per_item(check, 2 * n) <= bound, n
        assert reg.live_photons == frozenset()


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
    # A call that names one draws and writes nothing.
    for reg, photon in cases:
        assert not reg.is_live(photon)
        _refused(reg, "apply_gates", [photon], [SingleGate.I], error=ConsumedPhotonError)
        _refused(reg, "measure_singles", [photon], [False], error=ConsumedPhotonError)
        _refused(reg, "measure_bells", [photon], [1], error=ConsumedPhotonError)
        with pytest.raises(ConsumedPhotonError):
            reg.amplitudes_of(photon)
    assert grown.live_photons == frozenset(range(1, 40))


@pytest.mark.parametrize("poison", [np.nan, np.inf])
def test_a_poisoned_row_fails_the_norm_check(poison):
    # Photon a's row is poisoned; c (another row) and the pair (e, f) are
    # sound and sit in the same call, which is one block.
    calls = (
        lambda reg, a, c, e, f: reg.apply_gates([a, c], [SingleGate.X, SingleGate.X]),
        lambda reg, a, c, e, f: reg.measure_singles([a, c], [False, False]),
        lambda reg, a, c, e, f: reg.measure_bells([a, e], [c, f]),
    )
    for call in calls:
        reg = Register(seed=8)
        (a, c, e), (_, _, f) = reg.prepare_bells(3, BellLabel.PSI_MINUS)
        reg._amps[0, 0, 1] = poison
        before = _tables(reg)
        # inf times a zero coefficient is NaN, which numpy warns of; the
        # norm check must raise all the same.
        with np.errstate(invalid="ignore"), pytest.raises(RegisterError, match="norm"):
            call(reg, a, c, e, f)
        # The check runs before any write, so only the uniforms a
        # measuring call drew are spent.
        assert _tables(reg) == before
