"""A dense statevector register: an independent engine for the tests.

The whole state is one complex ndarray with an axis per live photon, built
only from `oracles`' ``BELL_VECTORS``, ``PAULI_MATRICES``, ``HADAMARD`` and
``_KET``.  It shares no code with `qss_sim.register`: no row table, no
seats, no kernels.  A gate is a matrix product on one axis, a measured
axis is projected out and the state renormalized, and a Bell measurement
contracts two axes with each Bell vector.

It answers the five vector methods the protocols call, with the
register's photon ids and draw rules: one ``rng.random(n)`` per measuring
call, its items in list order; bit 1 iff u >= p0; the Bell pick is how
many of the sums p0, p0 + p1 and (p0 + p1) + p2 do not exceed u.  Like the
register, it refuses a call whose items touch one row: here a row is a
photon with its partner, the photon it was prepared or swapped into a pair
with, while both are live.
"""

import numpy as np

from qss_sim.oracles import _KET, BELL_VECTORS, HADAMARD, PAULI_MATRICES
from qss_sim.pauli import BellLabel, PauliOp

_GATES = [PAULI_MATRICES[p] for p in sorted(PauliOp)] + [HADAMARD]
_STATES = [_KET[name] for name in "01+-"]
# _PROJECTORS[l]: the conjugate of Bell state l over the two measured axes.
_PROJECTORS = np.conj([BELL_VECTORS[label].reshape(2, 2) for label in sorted(BellLabel)])


class DenseRegister:
    """The register's five vector methods on one dense state, for tests."""

    def __init__(self, rng: np.random.Generator | None = None, seed: int | None = None):
        self.rng = np.random.default_rng(seed) if rng is None else rng
        self.state = np.ones((), dtype=complex)
        self.photons: list[int] = []  # the photon on each axis
        self.partner: dict[int, int] = {}
        self._next = 0

    @property
    def live_photons(self) -> frozenset[int]:
        return frozenset(self.photons)

    def _add(self, tensor: np.ndarray, count: int) -> list[int]:
        ids = list(range(self._next, self._next + count))
        self._next += count
        self.state = np.multiply.outer(self.state, tensor)
        self.photons += ids
        return ids

    def _axis(self, photon: int) -> int:
        return self.photons.index(photon)

    def _drop(self, photon: int) -> None:
        del self.photons[self._axis(photon)]
        partner = self.partner.pop(photon, None)
        if partner is not None:
            del self.partner[partner]

    def _items(self, *lists) -> list[tuple[int, ...]]:
        """The call's items as tuples of ints; raises unless it is one
        round of live photons."""
        items = [tuple(int(p) for p in item) for item in zip(*lists, strict=True)]
        touched: set[int] = set()
        for item in items:
            rows = {q for p in item for q in (p, self.partner.get(p, p))}
            if len(set(item)) < len(item) or not touched.isdisjoint(rows):
                raise ValueError(f"item {item} is not on rows of its own")
            if not set(item) <= set(self.photons):
                raise ValueError(f"item {item} holds a photon that is not live")
            touched |= rows
        return items

    def amplitudes_of(self, photon: int) -> tuple[list[int], np.ndarray]:
        """The photons on `photon`'s row, in id order, and their pure
        state, one axis each in that order, normalized; raises unless they
        are in a product with the other photons."""
        photons = sorted({photon, self.partner.get(photon, photon)})
        axes = [self._axis(p) for p in photons]
        matrix = np.moveaxis(self.state, axes, range(len(axes))).reshape(2 ** len(axes), -1)
        column = matrix[:, np.argmax(np.linalg.norm(matrix, axis=0))]
        vec = column / np.linalg.norm(column)
        if not np.allclose(np.outer(vec, vec.conj() @ matrix), matrix, rtol=0, atol=1e-12):
            raise AssertionError(f"photons {photons} are entangled with the rest")
        return photons, vec.reshape((2,) * len(axes))

    def prepare_bells(self, n: int, label: BellLabel) -> tuple[np.ndarray, np.ndarray]:
        ids = []
        for _ in range(n):
            a, b = self._add(BELL_VECTORS[BellLabel(label)].reshape(2, 2), 2)
            self.partner.update({a: b, b: a})
            ids.append((a, b))
        firsts, seconds = np.array(ids, dtype=np.int64).reshape(n, 2).T
        return firsts, seconds

    def prepare_singles(self, states) -> np.ndarray:
        return np.array([self._add(_STATES[int(s)], 1)[0] for s in states], dtype=np.int64)

    def _split(self, photon: int) -> np.ndarray:
        """The state as a (before, 2, after) view around `photon`'s axis."""
        return self.state.reshape(2 ** self._axis(photon), 2, -1)

    def _gate(self, matrix: np.ndarray, photon: int) -> None:
        self.state = (matrix @ self._split(photon)).reshape(self.state.shape)

    def apply_gates(self, photons, gates) -> None:
        for (photon,), gate in zip(self._items(photons), gates, strict=True):
            self._gate(_GATES[int(gate)], photon)

    def measure_singles(self, photons, in_x) -> np.ndarray:
        items = self._items(photons)
        in_x = np.asarray(in_x).astype(bool)
        bits = []
        for (photon,), x, u in zip(items, in_x, self.rng.random(len(items)), strict=True):
            if x:
                self._gate(HADAMARD, photon)
            halves = self._split(photon)
            bit = int(u >= np.vdot(halves[:, 0], halves[:, 0]).real)
            kept = halves[:, bit]
            self.state = (kept / np.linalg.norm(kept)).reshape(self.state.shape[1:])
            self._drop(photon)
            bits.append(bit)
        return np.array(bits, dtype=np.int64)

    def measure_bells(self, a, b) -> np.ndarray:
        items = self._items(a, b)
        picks = []
        for (pa, pb), u in zip(items, self.rng.random(len(items))):
            axes = (self._axis(pa), self._axis(pb))
            residuals = np.tensordot(_PROJECTORS, self.state, axes=((1, 2), axes))
            p0, p1, p2 = (np.vdot(r, r).real for r in residuals[:3])
            pick = int(p0 <= u) + int(p0 + p1 <= u) + int((p0 + p1) + p2 <= u)
            survivors = [
                self.partner[p] for p in (pa, pb) if self.partner.get(p, p) not in (pa, pb)
            ]
            self.state = residuals[pick] / np.linalg.norm(residuals[pick])
            for p in (pa, pb):
                self._drop(p)
            if len(survivors) == 2:
                self.partner.update({survivors[0]: survivors[1], survivors[1]: survivors[0]})
            picks.append(pick)
        return np.array(picks, dtype=np.int64)
