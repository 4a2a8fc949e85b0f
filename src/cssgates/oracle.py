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

from .bincode import BitVector, _limbs, _lift, _pack, _span_blocks, _span_words
from .gates import ConsistencyError, CssCode
from .zmod import _check_level, howell_form

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
_ENUM_WORK_CAP = 1 << 26  # gates times codewords over one enumeration
_ENUM_CHUNK_ENTRIES = 1 << 18  # codewords (or coordinates) times gates per chunk


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


def _outer_blocks(code: CssCode):
    """Every word of y_z + C1 as packed limb rows, in blocks (_span_blocks).
    Word v * 2^k2 + u is y_z plus the extension rows on the set bits of v
    and the inner rows on the set bits of u: coset v, inner word u."""
    rows = _limbs([v.bits for v in code.pair.beta1], code.n)
    return _span_blocks(rows, first=_limbs([code.y_z.bits], code.n)[0])


def _gate_masks(code: CssCode, ell: int, b) -> np.ndarray:
    """Row j packs the coordinates whose residue of b mod 2^ell has bit j
    set, so the phase of a word w is sum_j 2^j * popcount(w & mask_j).

    That phase is at most n * (2^ell - 1), exact in int64 for n < 2^33.
    """
    arr = np.asarray(b, dtype=np.int64) % (1 << ell)
    if arr.ndim != 1:
        raise ValueError("gate vector must be one-dimensional")
    if arr.shape[0] != code.n:
        raise ValueError("gate vector length does not match the code length")
    assert code.n * ((1 << ell) - 1) < 1 << 63
    return _pack(arr >> np.arange(ell)[:, None] & 1)


def _phases(words: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """The exact phase exponent of each packed word (see _gate_masks)."""
    out = np.zeros(len(words), dtype=np.int64)
    for j, mask in enumerate(masks):
        if mask.any():
            out += np.bitwise_count(words & mask).sum(axis=1, dtype=np.int64) << j
    return out


def _additive(norm: np.ndarray, N: int) -> np.ndarray:
    """The rows, one per coset, that each coset's phases would have if
    they were additive: the one-hot cosets' rows summed over the set bits
    of the coset index, mod N."""
    K = len(norm).bit_length() - 1
    return _span_words(norm[1 << np.arange(K)], np.add) % N


def coset_phase_check(code: CssCode, ell: int, b) -> OracleResult:
    """Classify a gate by evaluating its phase on every codeword.

    A gate fixes the code iff the phase exponent is constant on each
    coset; it is transversal iff on top of that the normalized coset
    phases are additive over the logical bits, and logical identity iff
    every raw phase vanishes. Caps: dim C2 <= 24, logical qubits <= 16.
    The words are walked in packed blocks, cosets in order, so memory
    stays bounded by the block size whatever dim C2 is.
    """
    N = _check_level(ell)
    k2 = len(code.pair.beta2)
    if k2 > _INNER_CAP:
        raise ValueError(f"inner code dimension exceeds the cap of {_INNER_CAP}")
    if code.num_logical > _LOGICAL_CAP:
        raise ValueError(f"logical qubit count exceeds the cap of {_LOGICAL_CAP}")
    masks = _gate_masks(code, ell, b)
    phases = np.zeros(1 << code.num_logical, dtype=np.int64)
    for start, words in _outer_blocks(code):
        ph = _phases(words, masks) % N
        # one row per coset in the block, or one row inside a long coset
        per = ph.reshape(-1, min(len(ph), 1 << k2))
        if start % (1 << k2) == 0:
            ref = per[:, :1]
            phases[start >> k2 : (start >> k2) + len(per)] = ref[:, 0]
        bad = np.flatnonzero(per != ref)
        if bad.size:
            i = int(bad[0])
            word = BitVector(code.n, int.from_bytes(words[i].tobytes(), "little"))
            return OracleResult(
                GateClass.OUTSIDE,
                None,
                {
                    "coset": (start + i) >> k2,
                    "word": word.to_string(),
                    "phase": int(ph[i]),
                    "expected": int(ref[i // per.shape[1], 0]),
                },
            )
    norm = (phases - phases[0]) % N
    additive = _additive(norm[:, None], N)[:, 0]
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
    Caps: N^n <= 2^22, and N^n * 2^k1 <= 2^26 gate-codeword pairs,
    checked before anything is allocated. Gates are scanned in chunks of
    at most 2^18 / max(2^k1, n), so neither the chunk of gates nor the
    phases of every codeword under it hold more than 2^18 entries.
    """
    N = _check_level(ell)
    if which not in ("fixing", "transversal", "identity"):
        raise ValueError(f"unknown group selector: {which!r}")
    n = code.n
    total = N**n
    if total > _ENUM_CAP:
        raise ValueError(f"enumeration space {total} exceeds the cap of {_ENUM_CAP}")
    k1 = len(code.pair.beta1)
    if total << k1 > _ENUM_WORK_CAP:
        raise ValueError(f"{total} gates times {1 << k1} codewords exceeds the cap of {_ENUM_WORK_CAP}")
    # the codewords, one (2^k2, n) 0/1 matrix per coset, for the matmul
    words = np.vstack([block for _, block in _outer_blocks(code)])
    cosets = _lift(words, n).reshape(1 << code.num_logical, -1, n)
    shifts = (ell * (n - 1 - np.arange(n))).astype(np.int64)
    kept: list[np.ndarray] = []
    chunk = max(1, _ENUM_CHUNK_ENTRIES // max(1 << k1, n))
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        gates = (idx[:, None] >> shifts[None, :]) & (N - 1)
        # every codeword against every gate of the chunk, coset by coset
        ph = cosets @ gates.T % N
        ok = (ph == ph[:, :1]).all(axis=(0, 1))
        coset_phase = ph[:, 0]
        if which == "identity":
            ok &= (coset_phase == 0).all(axis=0)
        elif which == "transversal":
            norm = (coset_phase - coset_phase[0]) % N
            ok &= (norm == _additive(norm, N)).all(axis=0)
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

    Walks each coset state's support and checks that the gate maps the
    state to a multiple of itself: its phase exponent is constant on the
    state's support. The y_x character only multiplies amplitudes by
    signs, which a diagonal gate leaves in place, so y_x cannot change
    the answer. Caps: dim C2 <= 16, n <= 24.
    """
    N = _check_level(ell)
    k2 = len(code.pair.beta2)
    if k2 > 16:
        raise ValueError("inner code dimension exceeds the cap of 16")
    if code.n > 24:
        raise ValueError("code length exceeds the cap of 24")
    masks = _gate_masks(code, ell, b)
    span = 1 << k2
    for _, words in _outer_blocks(code):
        # dim C2 <= 16 puts whole cosets in each block: a row of phases is
        # one coset's support
        phases = (_phases(words, masks) % N).reshape(-1, span)
        if (phases != phases[:, :1]).any():
            return False
    return True
