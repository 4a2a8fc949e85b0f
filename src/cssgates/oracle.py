"""Brute-force reference checks for diagonal gates on small CSS codes.

Everything here decides membership by direct bookkeeping over explicitly
enumerated codewords or gate vectors, sharing only the binary-code and
residue layers (plus the consistency error type) with the kernel-based
engine. That independence is the point: agreement between the two routes
is what the acceptance tests certify, so nothing in this module may call
the group computations it is checking.

All routines are exponential and guarded by explicit size caps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .bincode import BitVector
from .gates import ConsistencyError, CssCode
from .zmod import MAX_LEVEL, howell_form

__all__ = [
    "GateClass",
    "OracleResult",
    "coset_phase_check",
    "enumerate_group",
    "amplitude_fix_check",
]

_INNER_CAP = 24
_LOGICAL_CAP = 16
_ENUM_CAP = 1 << 22


class GateClass(enum.Enum):
    """Classification of a diagonal gate against one CSS code, coarsest to
    finest; the value strings are the stable external names."""

    OUTSIDE = "NotInH"
    FIXES_CODE = "InH"
    TRANSVERSAL = "TransversalLogical"
    IDENTITY = "LogicalIdentity"

    @property
    def rank(self) -> int:
        return _CLASS_RANK[self]


_CLASS_RANK = {
    GateClass.OUTSIDE: 0,
    GateClass.FIXES_CODE: 1,
    GateClass.TRANSVERSAL: 2,
    GateClass.IDENTITY: 3,
}


@dataclass(frozen=True)
class OracleResult:
    """Outcome of a brute-force classification.

    phases holds the raw per-coset phase exponents (global phase included)
    when the gate at least fixes the code, else None. witness pins down
    the first failure of the next-finer class, when there is one.
    """

    gate_class: GateClass
    phases: np.ndarray | None
    witness: dict | None


def _check_level(ell: int) -> int:
    if not 1 <= ell <= MAX_LEVEL:
        raise ValueError(f"level must be in [1, {MAX_LEVEL}]")
    return 1 << ell


def _span_words(rows: list[BitVector], n: int) -> np.ndarray:
    """All 2^k sums of the rows as a (2^k, n) 0/1 int64 matrix, ordered so
    that index v picks the rows on the set bits of v (row 0 first)."""
    out = np.zeros((1 << len(rows), n), dtype=np.int64)
    for i, row in enumerate(rows):
        bit = 1 << i
        out[bit : 2 * bit] = out[:bit] ^ row.to_array()
    return out


def _coset_labels(code: CssCode) -> np.ndarray:
    """Physical labels of the representative word of each logical index:
    y_z plus the chosen extension rows on the set bits."""
    base = _span_words(list(code.pair.beta1_ext), code.n)
    return base ^ code.y_z.to_array()


def _gate_array(ell: int, b) -> np.ndarray:
    N = 1 << ell
    arr = np.asarray(b, dtype=np.int64) % N
    if arr.ndim != 1:
        raise ValueError("gate vector must be one-dimensional")
    return arr


def coset_phase_check(code: CssCode, ell: int, b) -> OracleResult:
    """Classify a gate by evaluating its phase on every codeword.

    A gate fixes the code iff the phase exponent is constant on each
    coset; it is transversal iff on top of that the normalized coset
    phases are additive over the logical bits, and logical identity iff
    every raw phase vanishes. Caps: dim C2 <= 24, logical qubits <= 16.
    """
    N = _check_level(ell)
    pair = code.pair
    if pair.c2.k > _INNER_CAP:
        raise ValueError(f"inner code dimension exceeds the cap of {_INNER_CAP}")
    if code.num_logical > _LOGICAL_CAP:
        raise ValueError(f"logical qubit count exceeds the cap of {_LOGICAL_CAP}")
    arr = _gate_array(ell, b)
    if arr.shape[0] != code.n:
        raise ValueError("gate vector length does not match the code length")
    inner = _span_words(list(pair.beta2), code.n)
    labels = _coset_labels(code)
    phases = np.zeros(len(labels), dtype=np.int64)
    for v, label in enumerate(labels):
        words = inner ^ label
        ph = words @ arr % N
        if not (ph == ph[0]).all():
            bad = int(np.flatnonzero(ph != ph[0])[0])
            word = "".join(str(x) for x in words[bad])
            return OracleResult(
                GateClass.OUTSIDE,
                None,
                {"coset": v, "word": word, "phase": int(ph[bad]), "expected": int(ph[0])},
            )
        phases[v] = ph[0]
    norm = (phases - phases[0]) % N
    additive = np.zeros_like(norm)
    for v in range(1, len(norm)):
        low = v & -v
        additive[v] = (additive[v & (v - 1)] + norm[low]) % N
    if (phases == 0).all():
        return OracleResult(GateClass.IDENTITY, phases, None)
    mismatch = np.flatnonzero(norm != additive)
    if mismatch.size:
        v = int(mismatch[0])
        return OracleResult(
            GateClass.FIXES_CODE,
            phases,
            {"coset": v, "phase": int(norm[v]), "additive": int(additive[v])},
        )
    return OracleResult(GateClass.TRANSVERSAL, phases, None)


def enumerate_group(code: CssCode, ell: int, which: str = "fixing") -> np.ndarray:
    """Every gate vector of the requested group, by exhaustive scan.

    which is one of "fixing", "transversal", "identity". Returns the
    members as a (count, n) array in odometer order (first coordinate most
    significant). The count is checked to be a power of two matching the
    span of the members, so a non-subgroup outcome cannot pass silently.
    Cap: N^n <= 2^22.
    """
    N = _check_level(ell)
    if which not in ("fixing", "transversal", "identity"):
        raise ValueError(f"unknown group selector: {which!r}")
    n = code.n
    total = N**n
    if total > _ENUM_CAP:
        raise ValueError(f"enumeration space {total} exceeds the cap of {_ENUM_CAP}")
    pair = code.pair
    inner = _span_words(list(pair.beta2), n)
    labels = _coset_labels(code)
    shifts = (ell * (n - 1 - np.arange(n))).astype(np.int64)
    kept: list[np.ndarray] = []
    chunk = 1 << 14
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        gates = (idx[:, None] >> shifts[None, :]) & (N - 1)
        ok = np.ones(len(idx), dtype=bool)
        coset_phase = np.zeros((len(labels), len(idx)), dtype=np.int64)
        for v, label in enumerate(labels):
            ph = (inner ^ label) @ gates.T % N
            ok &= (ph == ph[0]).all(axis=0)
            coset_phase[v] = ph[0]
        if which == "identity":
            ok &= (coset_phase == 0).all(axis=0)
        elif which == "transversal":
            norm = (coset_phase - coset_phase[0]) % N
            additive = np.zeros_like(norm)
            for v in range(1, len(labels)):
                low = v & -v
                additive[v] = (additive[v & (v - 1)] + norm[low]) % N
            ok &= (norm == additive).all(axis=0)
        kept.append(gates[ok])
    members = np.vstack(kept)
    span = howell_form(list(members), ell, n=n)
    if 1 << span.length != len(members):
        raise ConsistencyError(
            f"enumerated {which} set of size {len(members)} is not the module it spans"
        )
    return members


def amplitude_fix_check(code: CssCode, ell: int, b) -> bool:
    """Check code fixing at the level of basis-state amplitudes.

    Builds each coset state from its support labels, requires distinct
    cosets to have distinct supports, and checks that the gate maps each
    state to a multiple of itself: its phase exponent is constant on the
    state's support. The y_x character only multiplies amplitudes by
    signs, which a diagonal gate leaves in place, so y_x cannot change
    the answer. Caps: dim C2 <= 16, n <= 24.
    """
    N = _check_level(ell)
    pair = code.pair
    if pair.c2.k > 16:
        raise ValueError("inner code dimension exceeds the cap of 16")
    if code.n > 24:
        raise ValueError("code length exceeds the cap of 24")
    arr = _gate_array(ell, b)
    if arr.shape[0] != code.n:
        raise ValueError("gate vector length does not match the code length")
    inner = _span_words(list(pair.beta2), code.n)
    packer = np.int64(1) << np.arange(code.n, dtype=np.int64)
    supports = set()
    fixes = True
    for label in _coset_labels(code):
        words = inner ^ label
        key = np.sort(words @ packer).tobytes()
        if key in supports:
            raise ConsistencyError("two cosets share a support set")
        supports.add(key)
        phases = words @ arr % N
        fixes = fixes and bool((phases == phases[0]).all())
    return fixes
