"""Array-at-a-time statevector engine for polarization photons.

The register keeps the whole state in one float64 table of shape
(rows, 2, 2).  Every Bell pair and every single photon owns one row: a
normalized amplitude tensor over (side 0, side 1).  A single photon sits
on side 0, with side 1 held in |0>.  Side s of row r is seat 2*r + s: one
int64 per photon gives its seat, and one per seat gives the live photon
on it, stored as id + 1 so that 0 reads as an empty seat.  Liveness
checks, gathers and the bookkeeping of a Bell measurement are then flat
lookups.  The tables grow by doubling into ``np.zeros`` arrays, whose
pages the system maps on first write, so capacity past the rows and
photons in use is never written.

Real amplitudes suffice.  Every state, gate and Bell tensor the protocols
use is a Clifford object with real entries (iY is [[0, 1], [-1, 0]]), and
measurement only projects and rescales, so no amplitude ever acquires an
imaginary part; Born probabilities are a*a.  The kernel tables are
derived from ``GATE_MATRICES``, ``SINGLE_STATE_VECTORS`` and
``BELL_TENSORS`` at import, which raises if any entry has a non-zero
imaginary part.  Every amplitude is rounded exactly as a complex table
would round its real part, so seeded outcomes are those of a complex
engine.

Measurements are destructive.  A measured side collapses in place: the
slice of the outcome not seen is set to exactly 0, so the side stays in
its row as a dead axis with a single non-zero slice.  A Bell measurement
across two rows forms their (2, 2, 2, 2) product, contracts the two
measured axes and writes the two remaining axes back into the first row,
which is what makes entanglement swapping work; the second row is
retired.  No row ever holds more than two photons, so the table is closed
under every operation.

The kernels gather the amplitudes a call touches into C-contiguous,
component-major working arrays, with the call's n items on the last axis:
(2, 2, n) per photon row and (4, 4, n) for the Bell product.  So every
numpy loop runs over n contiguous items, not over one row's 2 entries.
Each amplitude and Born probability is the same expression, rounded in the
same order, as in a loop over rows, and the results are scattered back
into the table, whose layout is unchanged.  The kernels are lean in
memory: they compute in place in the gathered arrays.  A Bell
measurement turns its product into the four residuals in place, with a
sum/difference butterfly over pairs of product rows, adds their squares
slice by slice into one (4, n) array of probabilities and frees each
spent array once the drawn residuals are read.  An X measurement applies
its Hadamard to the amplitudes its collapse gathered, and preparation
writes its fresh, contiguous rows and photons as slices.  A large call
therefore allocates only a small multiple of the amplitudes it reads.

The vector methods (``prepare_bells``, ``prepare_singles``,
``apply_gates``, ``measure_singles``, ``measure_bells``) act on a whole
array of photons per call, and the per-photon methods are their
one-element case.  Both speak the ``SingleGate``, ``SingleState``,
``Basis`` and ``BellLabel`` enums, whose values are the integer codes the
arrays carry, so a list of members and an array of codes are the same
argument: a Pauli gate's code is its ``PauliOp`` code and H's is 4, a
state's is 2*(basis is X) + bit, a basis is its X-mask entry and a Bell
outcome's code is its place in the draw.  Operations of one call that
touch the same row run in list order: the call runs in rounds of items
on distinct rows, each round found by one first-touch pass whose cost
grows with the call's n items, not with the rows of the table.  A
measuring call draws its Born-rule uniforms with one ``rng.random(n)``
in list order, which yields the same numbers as n scalar draws, so a
vector call replays exactly the outcomes of the loop of per-photon
calls it stands for.

All randomness comes from the register's own numpy Generator, so a fixed
seed and a fixed operation sequence reproduce the same outcomes exactly.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence

import numpy as np

from .pauli import Basis, BellLabel, PauliOp

_SQ2 = 1.0 / math.sqrt(2.0)

NORM_TOL = 1e-12

# The largest number of pairs or checking photons a config may ask for.
# numpy refuses an array over np.intp's largest byte count; a trial makes
# a few rows per pair or checking photon, and a call's largest working
# array, the Bell product, holds 16 float64 per item, so 1024 bytes per
# photon stays under that limit.
MAX_PHOTONS = np.iinfo(np.intp).max // 1024


class RegisterError(Exception):
    """Base class for statevector engine errors."""


class ConsumedPhotonError(RegisterError):
    """An operation referenced a photon that was already measured."""


class SingleGate(enum.IntEnum):
    """Gate codes: the four Paulis keep their `pauli` code, so an array of
    Pauli codes is an array of gate codes."""

    I = PauliOp.I
    X = PauliOp.X
    IY = PauliOp.IY
    Z = PauliOp.Z
    H = len(PauliOp)


class SingleState(enum.IntEnum):
    """State codes 2*(basis is X) + bit."""

    ZERO = 0
    ONE = 1
    PLUS = 2
    MINUS = 3

    @property
    def basis(self) -> Basis:
        return Basis(self >> 1)

    @property
    def bit(self) -> int:
        return self & 1


GATE_MATRICES = {
    SingleGate.I: np.eye(2),
    SingleGate.X: np.array([[0.0, 1.0], [1.0, 0.0]]),
    SingleGate.IY: np.array([[0.0, 1.0], [-1.0, 0.0]]),
    SingleGate.Z: np.array([[1.0, 0.0], [0.0, -1.0]]),
    SingleGate.H: np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]]),
}

SINGLE_STATE_VECTORS = {
    SingleState.ZERO: np.array([1.0, 0.0]),
    SingleState.ONE: np.array([0.0, 1.0]),
    SingleState.PLUS: np.array([_SQ2, _SQ2]),
    SingleState.MINUS: np.array([_SQ2, -_SQ2]),
}

# Amplitude tensors over (photon_a, photon_b), computational ordering.
BELL_TENSORS = {
    BellLabel.PHI_PLUS: np.array([[_SQ2, 0.0], [0.0, _SQ2]]),
    BellLabel.PHI_MINUS: np.array([[_SQ2, 0.0], [0.0, -_SQ2]]),
    BellLabel.PSI_PLUS: np.array([[0.0, _SQ2], [_SQ2, 0.0]]),
    BellLabel.PSI_MINUS: np.array([[0.0, _SQ2], [-_SQ2, 0.0]]),
}


def _real_table(entries: list) -> np.ndarray:
    """The entries stacked into one float64 kernel table.  The amplitude
    table is real, so a gate, state or Bell tensor with a non-zero
    imaginary part cannot be represented: raise rather than drop it."""
    table = np.array(entries)
    if np.iscomplexobj(table):
        if np.any(table.imag != 0):
            raise RegisterError("the register's amplitude table is real; got a complex entry")
        table = table.real
    return np.ascontiguousarray(table, dtype=np.float64)


# _GATE_COEFFS[r, c, g] is entry (r, c) of gate g's matrix: gate g sends
# its photon's amplitude slices (a0, a1) to (m00*a0 + m01*a1,
# m10*a0 + m11*a1).  The Pauli entries are 0 and +-1, so for them this is
# an exact flip and/or negation; for H it is _SQ2*a0 +- _SQ2*a1.
_GATE_COEFFS = np.ascontiguousarray(
    _real_table([GATE_MATRICES[gate] for gate in sorted(SingleGate)]).transpose(1, 2, 0)
)
# _BELL_PROJECTORS[l, 2*a + b]: contracting a pair of measured axes (a, b)
# with row l gives the residual of outcome l.  Every entry is real, so the
# projector is the Bell tensor itself.
_BELL_PROJECTORS = _real_table([BELL_TENSORS[b] for b in sorted(BellLabel)]).reshape(4, 4)


def _bell_butterfly(projectors: np.ndarray) -> tuple[float, tuple, np.ndarray]:
    """The scale s of the projectors' entries, the column pairs (c0, c1)
    of the butterfly and, per outcome, the product row that holds its
    residual after the butterfly.  Raises unless every projector row is
    s at one column c0 and +s or -s at one more column c1, and every
    pair (c0, c1) is the sum of one outcome and the difference of
    another.

    A residual is then two rounded products and one addition, as every
    unfused sum of the four products rounds, and no fused multiply-add
    (which a BLAS product may use) changes a bit.  Since x * -s is
    exactly -(x * s) and y + -z is exactly y - z, the residual is the sum
    or the difference of two rows of the product scaled by s, so the
    butterfly that overwrites row c0 with the sum and row c1 with the
    difference makes all four in place."""
    scale = float(np.abs(projectors).max())
    pairs, rows = set(), []
    for row in projectors:
        cols = np.flatnonzero(row)
        if len(cols) != 2 or row[cols[0]] != scale or abs(row[cols[1]]) != scale:
            raise RegisterError("a Bell projector row is not s at one entry and +-s at one more")
        c0, c1 = int(cols[0]), int(cols[1])
        pairs.add((c0, c1))
        rows.append(c0 if row[c1] > 0 else c1)
    every = list(range(len(projectors)))
    if sorted(rows) != every or sorted(c for pair in pairs for c in pair) != every:
        raise RegisterError("the Bell projector rows do not pair into sums and differences")
    return scale, tuple(sorted(pairs)), np.array(rows)


# _BELL_ROWS[l]: the product row that holds outcome l's residual.
_BELL_SCALE, _BELL_PAIRS, _BELL_ROWS = _bell_butterfly(_BELL_PROJECTORS)
# _OFFSETS[k, j, side]: offset, from twice the seat of a photon on `side`
# (see ``Register``), of the amplitude with that photon in state k and
# the other side of its row in state j.  Twice a seat is 4*row + 2*side,
# so this is the offset within the row less 2*side.
_OFFSETS = np.array([[[0, 0], [1, 2]], [[2, 1], [3, 3]]]) - np.array([0, 2])
# The row of a single photon in each state: side 1 held in |0>.
_SINGLE_ROWS = _real_table(
    [np.outer(SINGLE_STATE_VECTORS[s], [1, 0]) for s in sorted(SingleState)]
)


def _sum_of_squares(terms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum of squares over the first axis, of length 4, added left to
    right, which is how numpy reduces a short contiguous axis: the norms
    (and, in that order, the Bell probabilities) round as a sum over each
    row's block does.
    The squares go to `out`, or to a new array if it is None."""
    s = np.multiply(terms, terms, out)
    return ((s[0] + s[1]) + s[2]) + s[3]


def _check_norm(blocks: np.ndarray, spent: np.ndarray | None = None) -> None:
    """Raise unless every amplitude block of a component-major (2, 2, n)
    or (4, n) array has unit norm.  The squares go to `spent`, an array
    of the same shape whose values are no longer needed, if one is
    given."""
    terms = blocks.reshape(4, -1)
    norm2 = _sum_of_squares(terms, None if spent is None else spent.reshape(terms.shape))
    # Written so that a NaN or infinite norm fails too.
    good = np.abs(norm2 - 1.0) <= NORM_TOL
    if not good.all():
        raise RegisterError(f"state norm drifted: |amps|^2 = {float(norm2[~good][0])!r}")


def _bell_residuals(product: np.ndarray) -> np.ndarray:
    """Turn the (4, 4, n) Bell product (see ``Register._bell``) into the
    residuals in place and return their Born probabilities, (4, n).  Row
    _BELL_ROWS[l] of both then belongs to outcome l (see
    ``_bell_butterfly``)."""
    product *= _BELL_SCALE
    spare = np.empty_like(product[0])
    for c0, c1 in _BELL_PAIRS:
        np.subtract(product[c0], product[c1], spare)
        product[c0] += product[c1]
        product[c1] = spare
    # Each residual's squares summed over 2*x + y, left to right as
    # _sum_of_squares adds them.
    probs = np.multiply(product[:, 0], product[:, 0])
    for k in range(1, 4):
        probs += np.multiply(product[:, k], product[:, k], spare)
    return probs


def _bell_picks(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The drawn outcomes: for each item, the first outcome whose
    cumulative probability exceeds u, else the last one, that is, the
    number of the sums p0, p0 + p1 and (p0 + p1) + p2 that do not exceed
    u."""
    p0, p1, p2 = (probs[r] for r in _BELL_ROWS[:3])
    p01 = p0 + p1
    return (p0 <= u).astype(np.int64) + (p01 <= u) + (p01 + p2 <= u)


def _first_touch(rows_a: np.ndarray, rows_b: np.ndarray, stamp: np.ndarray) -> np.ndarray:
    """Mask of the items whose rows no earlier item touches.  Pass one
    array twice for items that touch one row each.  `stamp` is scratch
    indexed by row; only the items' rows are written, so the cost grows
    with the number of items, not with the number of rows."""
    n = len(rows_a)
    order = np.arange(n)
    lists = (rows_a,) if rows_a is rows_b else (rows_a, rows_b)
    # stamp[r] becomes the first item that touches row r.
    for rows in lists:
        stamp[rows] = n
    for rows in lists:
        np.minimum.at(stamp, rows, order)
    now = stamp[rows_a] == order
    if rows_b is not rows_a:
        now &= stamp[rows_b] == order
    return now


def _gate_blocks(coeffs: np.ndarray, a: np.ndarray) -> np.ndarray:
    """New blocks from the gate coefficients coeffs[r, c, m] (see
    ``_GATE_COEFFS``) and the (2, 2, n) blocks `a`, which are
    overwritten: out[r] = coeffs[r, 0] * a[0] + coeffs[r, 1] * a[1]."""
    out = coeffs[:, 0, None] * a[0]
    a[0] = a[1]
    a *= coeffs[:, 1, None]
    out += a
    return out


def _rotate_x_to_z(a: np.ndarray, xs: np.ndarray) -> None:
    """Apply H, with _gate's arithmetic, to the items `xs` of the (2, 2, n)
    blocks `a`: an X measurement is H, then a Z measurement.  A function
    of its own, so that its temporaries are freed before the collapse
    goes on."""
    spent = a.take(xs, axis=2)
    h = _gate_blocks(_GATE_COEFFS[:, :, SingleGate.H, None], spent)
    _check_norm(h, spent)
    a[:, :, xs] = h


def _integers(values: Sequence[int], what: str) -> np.ndarray:
    """The values as an int64 array; raises unless their dtype is an
    integer type, so a float is not truncated and a bool not taken as 0
    or 1.  An empty list passes."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise RegisterError(f"{what} must be integers, not {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def _codes(values: Sequence[int], symbols: type[enum.IntEnum], what: str) -> np.ndarray:
    """The codes as an array; raises unless each one is a code of
    `symbols`."""
    codes = _integers(values, f"{what} codes")
    if codes.size and (codes.min() < 0 or codes.max() >= len(symbols)):
        bad = codes[(codes < 0) | (codes >= len(symbols))][0]
        raise RegisterError(f"unknown {what} code {int(bad)}")
    return codes


def _require_distinct(ids: np.ndarray) -> None:
    """Raise if a measuring call lists a photon twice."""
    ordered = np.sort(ids)
    if (ordered[1:] == ordered[:-1]).any():
        raise RegisterError("a measurement lists the same photon twice")


def _raise_not_live(photon: int):
    raise ConsumedPhotonError(
        f"photon {photon} is not live (never created or already measured)"
    )


def _grow(arr: np.ndarray, need: int) -> np.ndarray:
    """`arr`, or a copy of it with room for at least `need` entries.  The
    new capacity comes from ``np.zeros``, whose fresh pages the system
    maps on first write, so no entry past the used ones is written."""
    if need <= len(arr):
        return arr
    out = np.zeros((max(need, 2 * len(arr)),) + arr.shape[1:], dtype=arr.dtype)
    out[: len(arr)] = arr
    return out


class Register:
    """A set of live photons with Born-rule measurements from a seeded stream.

    ``_seat[p]`` is the seat 2*row + side of photon p, and
    ``_members[seat]`` is one more than the id of the live photon on that
    seat, or 0 if there is none."""

    def __init__(
        self,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
    ):
        if rng is None:
            rng = np.random.default_rng(seed)
        self.rng = rng
        self._amps = np.zeros((16, 2, 2))
        self._members = np.zeros(32, dtype=np.int64)
        # Scratch of `_first_touch`, one entry per row.
        self._stamp = np.zeros(16, dtype=np.int64)
        self._seat = np.zeros(32, dtype=np.int64)
        self._next_photon = 0
        self._next_row = 0

    # -- bookkeeping ------------------------------------------------------

    @property
    def live_photons(self) -> frozenset[int]:
        members = self._members[: 2 * self._next_row]
        return frozenset((members[members > 0] - 1).tolist())

    def is_live(self, photon: int) -> bool:
        return 0 <= photon < self._next_photon and bool(
            self._members[self._seat[photon]] == photon + 1
        )

    def _require(self, photons: Sequence[int]) -> np.ndarray:
        """The photon ids as an array; raises unless every one is live."""
        ids = _integers(photons, "photon ids")
        # An id past the last photon is clipped onto some seat, whose
        # member never equals it.  -1 is clipped onto photon 0's seat,
        # which reads 0 = -1 + 1 once photon 0 is measured: hence the
        # sign check.
        seats = self._seat.take(ids, mode="clip")
        live = (self._members.take(seats) == ids + 1) & (ids >= 0)
        if not live.all():
            _raise_not_live(int(ids[~live][0]))
        return ids

    def _row_of(self, photon: int) -> int:
        if not self.is_live(photon):
            _raise_not_live(photon)
        return self._seat[photon] >> 1

    def _new_rows(self, count: int) -> slice:
        start = self._next_row
        self._next_row += count
        self._amps = _grow(self._amps, self._next_row)
        self._members = _grow(self._members, 2 * self._next_row)
        self._stamp = _grow(self._stamp, self._next_row)
        return slice(start, self._next_row)

    def _new_photons(self, count: int) -> slice:
        start = self._next_photon
        self._next_photon += count
        self._seat = _grow(self._seat, self._next_photon)
        return slice(start, self._next_photon)

    def _rounds(self, first: np.ndarray, second: np.ndarray):
        """Yield the items of a call (index arrays, or a slice for all of
        them) in rounds that touch distinct rows, each item after every
        earlier item that shares a row with it.  Rows are looked up again
        for each round, after the caller has processed the one before."""
        if len(first) == 1:
            yield slice(None)
            return
        items = np.arange(len(first))
        while len(items):
            rows = self._seat[first[items]] >> 1
            other = rows if first is second else self._seat[second[items]] >> 1
            now = _first_touch(rows, other, self._stamp)
            # Free them while the caller runs the round.
            del rows, other
            if len(items) == len(first) and now.all():
                yield slice(None)
                return
            yield items[now]
            items = items[~now]

    def _gather(self, seats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat table indices and amplitudes of the rows of the photons on
        `seats`, both (2, 2, n): axis 0 is the photon, axis 1 the other
        side of its row."""
        # take keeps the result C-contiguous; indexing _OFFSETS[:, :, sides]
        # gives a strided one, over which the kernels run several times
        # slower.
        slots = _OFFSETS.take(seats & 1, axis=2)
        slots += 2 * seats
        return slots, self._amps.reshape(-1).take(slots)

    def group_norm_sq(self, photon: int) -> float:
        """Squared norm of the amplitude row holding `photon`."""
        row = self._amps[self._row_of(photon)]
        return float(np.sum(row * row))

    def amplitudes_of(self, photon: int) -> tuple[list[int], np.ndarray]:
        """The entangled group containing `photon`: (photon ids, amplitude
        tensor of shape (2,)*k).  For inspection and tests only."""
        row = self._row_of(photon)
        members = self._members[2 * row : 2 * row + 2]
        amps = self._amps[row].copy()
        # A dead side has one non-zero slice; summing over it drops it.
        for side in (1, 0):
            if members[side] == 0:
                amps = amps.sum(axis=side)
        return [int(m) - 1 for m in members if m > 0], amps

    # -- preparation ------------------------------------------------------

    def prepare_bells(self, n: int, label: BellLabel) -> tuple[np.ndarray, np.ndarray]:
        """Create `n` fresh pairs jointly in the named Bell state; returns
        the first and the second photon of each pair."""
        if n < 0:
            raise RegisterError(f"cannot prepare {n} Bell pairs")
        (code,) = _codes([label], BellLabel, "Bell")
        rows, photons = self._new_rows(n), self._new_photons(2 * n)
        pairs = np.arange(photons.start, photons.stop).reshape(n, 2)
        self._amps[rows] = BELL_TENSORS[BellLabel(code)]
        # Pair i's photons take both seats of row i, in order.
        seats = slice(2 * rows.start, 2 * rows.stop)
        self._members[seats] = np.arange(photons.start + 1, photons.stop + 1)
        self._seat[photons] = np.arange(seats.start, seats.stop)
        return pairs[:, 0], pairs[:, 1]

    def prepare_singles(self, states: Sequence[int]) -> np.ndarray:
        """Create one fresh photon per state code (``SingleState``)."""
        codes = _codes(states, SingleState, "state")
        rows, photons = self._new_rows(len(codes)), self._new_photons(len(codes))
        ids = np.arange(photons.start, photons.stop)
        # mode="clip" lets take write into the table unbuffered; the codes
        # are already checked.
        _SINGLE_ROWS.take(codes, axis=0, out=self._amps[rows], mode="clip")
        # Each photon takes side 0 of its row.  Side 1 stays empty: rows
        # are never reused, so a fresh row's seats still read 0.
        self._members[2 * rows.start : 2 * rows.stop : 2] = ids + 1
        self._seat[photons] = np.arange(2 * rows.start, 2 * rows.stop, 2)
        return ids

    def prepare_bell(self, label: BellLabel) -> tuple[int, int]:
        """Create two fresh photons jointly in the named Bell state."""
        (a,), (b,) = self.prepare_bells(1, label)
        return int(a), int(b)

    def prepare_single(self, state: SingleState) -> int:
        """Create one fresh photon in |0>, |1>, |+> or |->."""
        return int(self.prepare_singles([state])[0])

    # -- unitaries --------------------------------------------------------

    def apply_gates(self, photons: Sequence[int], gates: Sequence[int]) -> None:
        """Apply the gate with code gates[i] (``SingleGate``) to
        photons[i], in list order."""
        ids = self._require(photons)
        codes = _codes(gates, SingleGate, "gate")
        if len(codes) != len(ids):
            raise RegisterError("apply_gates needs one gate per photon")
        for items in self._rounds(ids, ids):
            self._gate(ids[items], codes[items])

    def apply_gate(self, photon: int, gate: SingleGate) -> None:
        self.apply_gates([photon], [gate])

    def _gate(self, ids: np.ndarray, codes: np.ndarray) -> None:
        """Apply one gate per photon; the photons' rows are distinct."""
        slots, a = self._gather(self._seat[ids])
        # take, not _GATE_COEFFS[:, :, codes]: see _gather.
        blocks = _gate_blocks(_GATE_COEFFS.take(codes, axis=2), a)
        self._amps.reshape(-1)[slots] = blocks
        _check_norm(blocks, a)

    # -- measurements (destructive) ---------------------------------------

    def measure_singles(self, photons: Sequence[int], in_x: Sequence[bool]) -> np.ndarray:
        """Born-rule single-photon measurements, in list order, in the X
        basis where `in_x` is set and in the Z basis elsewhere; returns
        0/1 per photon (in the X basis 0 means the '+' outcome).  `in_x`
        is a bool mask or a list of ``Basis`` codes.  Consumes the
        photons."""
        ids = self._require(photons)
        in_x = np.asarray(in_x)
        if in_x.dtype != bool:
            in_x = _codes(in_x, Basis, "basis").astype(bool)
        if len(in_x) != len(ids):
            raise RegisterError("measure_singles needs one basis per photon")
        _require_distinct(ids)
        u = self.rng.random(len(ids))
        out = np.zeros(len(ids), dtype=np.int64)
        for items in self._rounds(ids, ids):
            out[items] = self._collapse(ids[items], u[items], in_x[items])
        return out

    def measure_single(self, photon: int, basis: Basis) -> int:
        """Born-rule single-photon measurement; returns 0/1 (in the X basis
        0 means the '+' outcome).  Consumes the photon."""
        return int(self.measure_singles([photon], [basis])[0])

    def _collapse(self, ids: np.ndarray, u: np.ndarray, in_x: np.ndarray) -> np.ndarray:
        """Measure one photon per row, in the X basis where `in_x` is set
        and in the Z basis elsewhere; the photons' rows are distinct."""
        seats = self._seat[ids]
        slots, a = self._gather(seats)
        if in_x.any():
            _rotate_x_to_z(a, np.flatnonzero(in_x))
        p0 = a[0, 0] * a[0, 0]
        p0 += a[0, 1] * a[0, 1]
        one = u >= p0
        # p0 becomes the probability of the observed bit.
        np.subtract(1.0, p0, out=p0, where=one)
        # Keep the slice of the observed bit, zero the other one, and
        # divide by sqrt(prob) as a product with the rounded reciprocal:
        # numpy divides complex numbers that way, so the amplitudes keep
        # every bit they would have in a complex table.
        bits = one.astype(np.int64)
        a *= np.arange(2)[:, None, None] == bits
        a *= np.divide(1.0, np.sqrt(p0, p0), p0)
        self._amps.reshape(-1)[slots] = a
        self._members[seats] = 0
        _check_norm(a)
        return bits

    def measure_bells(self, a: Sequence[int], b: Sequence[int]) -> np.ndarray:
        """Joint Bell-basis measurements of the pairs (a[i], b[i]), in
        list order; returns each outcome's code (``BellLabel``).

        Each draws an outcome by the Born rule and leaves the surviving
        photons in the correct post-measurement state (which is what makes
        entanglement swapping work).  All listed photons are consumed."""
        ids_a, ids_b = self._require(a), self._require(b)
        if len(ids_a) != len(ids_b):
            raise RegisterError("measure_bells needs two equally long photon lists")
        if (ids_a == ids_b).any():
            raise RegisterError("Bell measurement needs two distinct photons")
        _require_distinct(np.concatenate((ids_a, ids_b)))
        u = self.rng.random(len(ids_a))
        picks = np.zeros(len(ids_a), dtype=np.int64)
        for items in self._rounds(ids_a, ids_b):
            picks[items] = self._bell(ids_a[items], ids_b[items], u[items])
        return picks

    def measure_bell(self, a: int, b: int) -> BellLabel:
        """Joint Bell-basis measurement of two photons.

        Draws an outcome by the Born rule and leaves the surviving photons
        in the correct post-measurement state (which is what makes
        entanglement swapping work).  Both photons are consumed."""
        return BellLabel(int(self.measure_bells([a], [b])[0]))

    def _bell(self, ids_a: np.ndarray, ids_b: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Bell-measure each pair; no two pairs share a row."""
        seats = self._seat[np.stack((ids_a, ids_b))]
        seats_a, seats_b = seats
        ta, tb = self._gather(seats_a)[1], self._gather(seats_b)[1]
        n = len(ids_a)
        # product[2*a + b, 2*x + y, m]: the measured axes (a, b) and the
        # other side x of row a and y of row b.
        product = np.multiply(ta[:, None, :, None], tb[None, :, None, :]).reshape(4, 4, n)
        # Two photons of one row sit on its seats 2*row and 2*row + 1.
        # The row itself is then the pair over (a, b), and no other axis
        # is left (only x = y = 0).
        same = (seats_a ^ seats_b) == 1
        if same.any():
            product[:, :, same] = 0.0
            product[:, 0, same] = ta[:, :, same].reshape(4, -1)
        # Free the spent halves before the residuals are made.
        del ta, tb
        probs = _bell_residuals(product)
        picks = _bell_picks(probs, u)
        # The drawn residual of each pair, item-major as the table is.
        # Each spent array is freed once it is read.
        drawn, idx = _BELL_ROWS.take(picks), np.arange(n)
        scale = probs[drawn, idx]
        del probs
        blocks = product[drawn, :, idx]
        del product
        blocks *= np.divide(1.0, np.sqrt(scale, scale), scale)[:, None]
        rows_a = seats_a >> 1
        self._amps[rows_a] = blocks.reshape(n, 2, 2)

        # The survivors of a and b: the other seat of each row, unless that
        # seat was empty or (for two photons of one row) just measured.
        # Row b is retired, and row a takes a's survivor on side 0 and b's
        # on side 1.
        self._members[seats] = 0
        others = seats ^ 1
        survivors = self._members[others]
        self._members[others[1]] = 0
        moved_to = 2 * rows_a + np.arange(2)[:, None]
        self._members[moved_to] = survivors
        moved = survivors > 0
        self._seat[survivors[moved] - 1] = moved_to[moved]
        _check_norm(blocks.T)
        return picks
