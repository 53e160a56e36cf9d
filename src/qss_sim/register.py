"""Array-at-a-time statevector engine for polarization photons.

The register keeps the whole state in one float64 table of shape
(rows, 2, 2).  Every Bell pair and every single photon owns one row: a
normalized amplitude tensor over (side 0, side 1).  A single photon sits
on side 0, with side 1 held in |0>.  Per-photon arrays give each photon's
row and side, and a per-row member array gives the live photon on each
side (or -1).

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
memory: they compute in place in the gathered arrays, a Bell measurement
forms each residual as one sum or difference of two scaled product rows
and writes its squares back over the product, an X measurement applies
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


def _bell_terms(projectors: np.ndarray) -> tuple[float, tuple]:
    """The scale s of the projectors' entries and, per row, the columns
    (c0, c1) of its two non-zero entries and ``np.add`` or
    ``np.subtract``: the row is s at c0 and +s or -s at c1.  Raises
    unless every row has that form.

    A residual is then two rounded products and one addition, as every
    unfused sum of the four products rounds, and no fused multiply-add
    (which a BLAS product may use) changes a bit.  Since x * -s is
    exactly -(x * s) and y + -z is exactly y - z, the residual is the sum
    or the difference of two rows of the product scaled by s."""
    scale = float(np.abs(projectors).max())
    terms = []
    for row in projectors:
        cols = np.flatnonzero(row)
        if len(cols) != 2 or row[cols[0]] != scale or abs(row[cols[1]]) != scale:
            raise RegisterError("a Bell projector row is not s at one entry and +-s at one more")
        terms.append((int(cols[0]), int(cols[1]), np.add if row[cols[1]] > 0 else np.subtract))
    return scale, tuple(terms)


_BELL_SCALE, _BELL_TERMS = _bell_terms(_BELL_PROJECTORS)
# _OFFSETS[k, j, side]: offset, within its row, of the amplitude with the
# photon on `side` in state k and the other side in state j.
_OFFSETS = np.array([[[0, 0], [1, 2]], [[2, 1], [3, 3]]])
# The row of a single photon in each state: side 1 held in |0>.
_SINGLE_ROWS = _real_table(
    [np.outer(SINGLE_STATE_VECTORS[s], [1, 0]) for s in sorted(SingleState)]
)


def _sum_of_squares(terms: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum of squares over the first axis, of length 4, added left to
    right, which is how numpy reduces a short contiguous axis: the Born
    probabilities and norms round as a sum over each row's block does.
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
    bad = np.abs(norm2 - 1.0) > NORM_TOL
    if bad.any():
        raise RegisterError(f"state norm drifted: |amps|^2 = {float(norm2[bad][0])!r}")


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


def _codes(values: Sequence[int], symbols: type[enum.IntEnum], what: str) -> np.ndarray:
    """The codes as an array; raises unless each one is a code of
    `symbols`."""
    codes = np.asarray(values, dtype=np.int64)
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


def _grow(arr: np.ndarray, need: int, fill) -> np.ndarray:
    if need <= len(arr):
        return arr
    out = np.full((max(need, 2 * len(arr)),) + arr.shape[1:], fill, dtype=arr.dtype)
    out[: len(arr)] = arr
    return out


class Register:
    """A set of live photons with Born-rule measurements from a seeded stream."""

    def __init__(
        self,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
    ):
        if rng is None:
            rng = np.random.default_rng(seed)
        self.rng = rng
        self._amps = np.zeros((16, 2, 2))
        self._members = np.full((16, 2), -1, dtype=np.int64)
        # Scratch of `_first_touch`, one entry per row.
        self._stamp = np.zeros(16, dtype=np.int64)
        self._row = np.zeros(32, dtype=np.int64)
        self._side = np.zeros(32, dtype=np.int64)
        self._next_photon = 0
        self._next_row = 0

    # -- bookkeeping ------------------------------------------------------

    @property
    def live_photons(self) -> frozenset[int]:
        members = self._members[: self._next_row]
        return frozenset(members[members >= 0].tolist())

    def is_live(self, photon: int) -> bool:
        return 0 <= photon < self._next_photon and bool(
            self._members[self._row[photon], self._side[photon]] == photon
        )

    def _require(self, photons: Sequence[int]) -> np.ndarray:
        """The photon ids as an array; raises unless every one is live."""
        ids = np.asarray(photons, dtype=np.int64)
        # An id past the last photon is clipped onto some row, whose
        # members never equal it.
        rows, sides = self._row.take(ids, mode="clip"), self._side.take(ids, mode="clip")
        live = (self._members[rows, sides] == ids) & (ids >= 0)
        if not live.all():
            _raise_not_live(int(ids[~live][0]))
        return ids

    def _row_of(self, photon: int) -> int:
        if not self.is_live(photon):
            _raise_not_live(photon)
        return self._row[photon]

    def _new_rows(self, count: int) -> slice:
        start = self._next_row
        self._next_row += count
        self._amps = _grow(self._amps, self._next_row, 0)
        self._members = _grow(self._members, self._next_row, -1)
        self._stamp = _grow(self._stamp, self._next_row, 0)
        return slice(start, self._next_row)

    def _new_photons(self, count: int) -> slice:
        start = self._next_photon
        self._next_photon += count
        self._row = _grow(self._row, self._next_photon, 0)
        self._side = _grow(self._side, self._next_photon, 0)
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
            rows = self._row[first[items]]
            other = rows if first is second else self._row[second[items]]
            now = _first_touch(rows, other, self._stamp)
            # Free them while the caller runs the round.
            del rows, other
            if len(items) == len(first) and now.all():
                yield slice(None)
                return
            yield items[now]
            items = items[~now]

    def _gather(self, rows: np.ndarray, sides: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat table indices of the rows and their amplitudes, both
        (2, 2, n): axis 0 is the photon on `sides`, axis 1 the other side
        of its row."""
        # take keeps the result C-contiguous; indexing _OFFSETS[:, :, sides]
        # gives a strided one, over which the kernels run several times
        # slower.
        slots = _OFFSETS.take(sides, axis=2)
        slots += 4 * rows
        return slots, self._amps.reshape(-1).take(slots)

    def group_norm_sq(self, photon: int) -> float:
        """Squared norm of the amplitude row holding `photon`."""
        row = self._amps[self._row_of(photon)]
        return float(np.sum(row * row))

    def amplitudes_of(self, photon: int) -> tuple[list[int], np.ndarray]:
        """The entangled group containing `photon`: (photon ids, amplitude
        tensor of shape (2,)*k).  For inspection and tests only."""
        row = self._row_of(photon)
        members = self._members[row]
        amps = self._amps[row].copy()
        # A dead side has one non-zero slice; summing over it drops it.
        for side in (1, 0):
            if members[side] < 0:
                amps = amps.sum(axis=side)
        return [int(m) for m in members if m >= 0], amps

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
        self._members[rows] = pairs
        self._row[photons].reshape(n, 2)[...] = np.arange(rows.start, rows.stop)[:, None]
        self._side[photons].reshape(n, 2)[...] = (0, 1)
        return pairs[:, 0], pairs[:, 1]

    def prepare_singles(self, states: Sequence[int]) -> np.ndarray:
        """Create one fresh photon per state code (``SingleState``)."""
        codes = _codes(states, SingleState, "state")
        rows, photons = self._new_rows(len(codes)), self._new_photons(len(codes))
        ids = np.arange(photons.start, photons.stop)
        self._amps[rows] = _SINGLE_ROWS[codes]
        self._members[rows, 0] = ids
        self._members[rows, 1] = -1
        self._row[photons] = np.arange(rows.start, rows.stop)
        self._side[photons] = 0
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
        slots, a = self._gather(self._row[ids], self._side[ids])
        # take, not _GATE_COEFFS[:, :, codes]: see _gather.
        blocks = _gate_blocks(_GATE_COEFFS.take(codes, axis=2), a)
        self._amps.reshape(-1)[slots] = blocks
        _check_norm(blocks, a)

    # -- measurements (destructive) ---------------------------------------

    def measure_singles(self, photons: Sequence[int], in_x: Sequence[bool]) -> np.ndarray:
        """Born-rule single-photon measurements, in list order, in the X
        basis where `in_x` is set and in the Z basis elsewhere; returns
        0/1 per photon (in the X basis 0 means the '+' outcome).
        Consumes the photons."""
        ids = self._require(photons)
        in_x = np.asarray(in_x, dtype=bool)
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
        rows, sides = self._row[ids], self._side[ids]
        slots, a = self._gather(rows, sides)
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
        self._members[rows, sides] = -1
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
        rows_a, rows_b = self._row[ids_a], self._row[ids_b]
        sides_a, sides_b = self._side[ids_a], self._side[ids_b]
        ta, tb = self._gather(rows_a, sides_a)[1], self._gather(rows_b, sides_b)[1]
        n = len(ids_a)
        # product[2*a + b, 2*x + y, m]: the measured axes (a, b) and the
        # other side x of row a and y of row b.
        product = np.multiply(ta[:, None, :, None], tb[None, :, None, :]).reshape(4, 4, n)
        same = rows_a == rows_b
        if same.any():
            # Two photons of one row: the row itself is the pair over
            # (a, b), and no other axis is left (only x = y = 0).
            product[:, :, same] = 0.0
            product[:, 0, same] = ta[:, :, same].reshape(4, -1)
        # Free the spent halves before the residuals are made.
        del ta, tb
        # residuals[l, 2*x + y, m]: the residual of outcome l, the sum or
        # the difference of two rows of the scaled product (_bell_terms).
        product *= _BELL_SCALE
        residuals = np.empty_like(product)
        for out, (c0, c1, combine) in zip(residuals, _BELL_TERMS):
            combine(product[c0], product[c1], out)
        # The squares of the residuals overwrite the spent product.
        probs = _sum_of_squares(residuals.swapaxes(0, 1), product.swapaxes(0, 1))
        # The first outcome whose cumulative probability exceeds u, else
        # the last one: the number of the sums p0, p0 + p1 and
        # (p0 + p1) + p2 that do not exceed u.
        p01 = probs[0] + probs[1]
        picks = (probs[0] <= u).astype(np.int64) + (p01 <= u) + (p01 + probs[2] <= u)
        # The drawn residual of each pair, item-major as the table is.
        idx = np.arange(n)
        scale = probs[picks, idx]
        blocks = residuals[picks, :, idx]
        blocks *= np.divide(1.0, np.sqrt(scale, scale), scale)[:, None]
        self._amps[rows_a] = blocks.reshape(n, 2, 2)

        # The survivors: the other side of each row, unless that side was
        # dead or (for two photons of one row) just measured.
        self._members[rows_a, sides_a] = -1
        self._members[rows_b, sides_b] = -1
        survivor_a = self._members[rows_a, 1 - sides_a]
        survivor_b = self._members[rows_b, 1 - sides_b]
        self._members[rows_b] = -1
        self._members[rows_a, 0] = survivor_a
        self._members[rows_a, 1] = survivor_b
        self._side[survivor_a[survivor_a >= 0]] = 0
        moved = survivor_b >= 0
        self._row[survivor_b[moved]] = rows_a[moved]
        self._side[survivor_b[moved]] = 1
        _check_norm(blocks.T)
        return picks
