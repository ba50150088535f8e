"""Bit vectors, seeded hash families, and the classic Bloom filter.

Positions are 0-based everywhere. A hash family is fully determined by
(count, range_size, mode, seed): the same tuple reproduces the same positions
for an element across calls, runs, and machines, and families whose shapes
differ are statistically independent even under the same seed.
"""

from __future__ import annotations

import struct
from hashlib import blake2b

MASK64 = (1 << 64) - 1

MODE_RANDOM = "seeded-random-allocation"
MODE_DOUBLE = "double-hashing"
_MODES = (MODE_RANDOM, MODE_DOUBLE)

_UNPACK_8Q = struct.Struct("<8Q").unpack
_UNPACK_2Q = struct.Struct("<2Q").unpack


def element_to_bytes(element) -> bytes:
    """Canonical byte encoding of an element id (int, str, or bytes).

    Type-tagged so e.g. the int 5 and the bytes b"5" never collide.
    """
    if isinstance(element, int):
        if 0 <= element <= MASK64:
            return b"i" + element.to_bytes(8, "little")
        return b"I" + str(element).encode("ascii")
    if isinstance(element, str):
        return b"s" + element.encode("utf-8")
    if isinstance(element, bytes):
        return b"b" + element
    raise TypeError(f"unsupported element type: {type(element).__name__}")


def derive_seed(*parts) -> int:
    """Fold ints/strings/bytes into a 64-bit seed.

    Used to give trials and allocations their own independent streams, so
    results do not depend on execution order.
    """
    h = blake2b(digest_size=8)
    for part in parts:
        data = element_to_bytes(part)
        h.update(len(data).to_bytes(4, "little"))
        h.update(data)
    return int.from_bytes(h.digest(), "little")


class BitVector:
    """Fixed-length vector of bits backed by a single int."""

    __slots__ = ("length", "_bits")

    def __init__(self, length: int, bits: int = 0):
        if length < 1:
            raise ValueError(f"length must be positive, got {length}")
        if bits < 0 or bits >> length:
            raise ValueError(f"bits out of range for length {length}")
        self.length = length
        self._bits = bits

    @classmethod
    def from_positions(cls, length: int, positions) -> BitVector:
        bits = 0
        for pos in positions:
            if not 0 <= pos < length:
                raise ValueError(f"position {pos} out of range [0, {length})")
            bits |= 1 << pos
        return cls(length, bits)

    @classmethod
    def from_bitstring(cls, text: str) -> BitVector:
        """Parse a '0'/'1' string; character i is bit i."""
        if not text or set(text) - {"0", "1"}:
            raise ValueError("bit string must be a non-empty run of 0s and 1s")
        bits = 0
        for i, ch in enumerate(text):
            if ch == "1":
                bits |= 1 << i
        return cls(len(text), bits)

    def get(self, position: int) -> bool:
        if not 0 <= position < self.length:
            raise ValueError(f"position {position} out of range [0, {self.length})")
        return bool(self._bits >> position & 1)

    def set(self, position: int) -> None:
        if not 0 <= position < self.length:
            raise ValueError(f"position {position} out of range [0, {self.length})")
        self._bits |= 1 << position

    def popcount(self) -> int:
        return self._bits.bit_count()

    def as_int(self) -> int:
        return self._bits

    def positions(self) -> tuple[int, ...]:
        """Indices of the set bits, ascending."""
        return tuple(i for i in range(self.length) if self._bits >> i & 1)

    def to_bitstring(self) -> str:
        return "".join("1" if self._bits >> i & 1 else "0" for i in range(self.length))

    def __or__(self, other: BitVector) -> BitVector:
        if self.length != other.length:
            raise ValueError(f"length mismatch: {self.length} vs {other.length}")
        return BitVector(self.length, self._bits | other._bits)

    def __and__(self, other: BitVector) -> BitVector:
        if self.length != other.length:
            raise ValueError(f"length mismatch: {self.length} vs {other.length}")
        return BitVector(self.length, self._bits & other._bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self.length == other.length and self._bits == other._bits

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return f"BitVector({self.length}, 0b{self._bits:0{self.length}b})"


def is_subset(a: BitVector, b: BitVector) -> bool:
    """True iff every set bit of a is set in b (b_a AND b_b == b_a)."""
    if a.length != b.length:
        raise ValueError(f"length mismatch: {a.length} vs {b.length}")
    return a._bits & b._bits == a._bits


class HashFamily:
    """Deterministic family of hash functions onto [0, range_size).

    count may be 0 (no functions, empty position list). In the default
    seeded-random-allocation mode each function is an independent uniform
    draw, with replacement unless distinct=True. Double-hashing mode derives
    all positions from two base hashes, the usual cheap alternative.
    """

    __slots__ = ("count", "range_size", "mode", "seed", "distinct", "_key", "_hasher",
                 "_suffixes", "_unpack")

    def __init__(self, count: int, range_size: int, *, mode: str = MODE_RANDOM,
                 seed: int = 0, distinct: bool = False):
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if range_size < 1:
            raise ValueError(f"range_size must be positive, got {range_size}")
        if mode not in _MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if distinct and count > range_size:
            raise ValueError(f"cannot draw {count} distinct positions from {range_size}")
        if distinct and mode == MODE_DOUBLE:
            raise ValueError("distinct positions are not available in double-hashing mode")
        self.count = count
        self.range_size = range_size
        self.mode = mode
        self.seed = seed & MASK64
        self.distinct = distinct
        flags = _MODES.index(mode) | (distinct << 1)
        self._key = struct.pack("<QQQB", self.seed, count, range_size, flags)
        # keyed once; each digest copies it, skipping the key block's compression
        self._hasher = blake2b(key=self._key,
                               digest_size=16 if mode == MODE_DOUBLE else 64)
        # Without distinct a random-mode walk takes exactly the first count
        # chunks, so its blocks and their unpacker are fixed by the shape.
        self._suffixes = tuple(block.to_bytes(4, "little")
                               for block in range(-(-count // 8)))
        self._unpack = struct.Struct(f"<{count}Q").unpack_from

    def positions(self, element) -> list[int]:
        """Hash positions of the element, one per function, order fixed."""
        out: list[int] = []
        self.encoded_mask(element_to_bytes(element), out)
        return out

    def element_mask(self, element) -> int:
        """The element's bits as an int, the form the filters compare against."""
        return self.encoded_masks((element_to_bytes(element),))[0]

    def encoded_masks(self, datas) -> list[int]:
        """encoded_mask of each element already encoded by element_to_bytes.

        A random-mode family without distinct walks the whole list in one
        loop, loading the keyed hasher, the block suffixes, the unpacker and
        the range once per list: per element, those lookups and the call
        cost more than the bit arithmetic. Other families take encoded_mask
        once per item.
        """
        if self.distinct or self.mode == MODE_DOUBLE:
            encode = self.encoded_mask
            return [encode(data) for data in datas]
        hasher = self._hasher
        suffixes = self._suffixes
        unpack = self._unpack
        size = self.range_size
        masks = []
        for data in datas:
            stream = b""
            for suffix in suffixes:
                h = hasher.copy()
                h.update(data + suffix)
                stream += h.digest()
            mask = 0
            for c in unpack(stream):
                mask |= 1 << c % size
            masks.append(mask)
        return masks

    def encoded_mask(self, data: bytes, out: list | None = None) -> int:
        """element_mask of an element already encoded by element_to_bytes.

        The per-element hash-stream walker. Random mode reads 64-bit chunks
        of the digests of data + u32 block number, blocks 0, 1, ..., until
        count positions are taken. Without distinct that is the first count
        chunks of blocks 0 .. ceil(count/8)-1, read with one unpack, the
        walk encoded_masks batches; it stays here for positions(). With
        distinct, positions already set are skipped, so the walk goes on
        block by block. A list given as out receives the positions in
        order, duplicates kept.
        """
        need = self.count
        size = self.range_size
        mask = 0
        if self.mode == MODE_DOUBLE and need:
            h = self._hasher.copy()
            h.update(data)
            h1, h2 = _UNPACK_2Q(h.digest())
            a, b = h1 % size, h2 % size or 1
            taken = [(a + i * b) % size for i in range(need)]
            if out is not None:
                out.extend(taken)
            for pos in taken:
                mask |= 1 << pos
            return mask
        hasher = self._hasher
        if not self.distinct:
            stream = b""
            for suffix in self._suffixes:
                h = hasher.copy()
                h.update(data + suffix)
                stream += h.digest()
            chunks = self._unpack(stream)
            for c in chunks:
                mask |= 1 << c % size
            if out is not None:
                out.extend([c % size for c in chunks])
            return mask
        block = 0
        suffix = b"\0\0\0\0"
        while need:
            h = hasher.copy()
            h.update(data + suffix)
            for c in _UNPACK_8Q(h.digest()):
                bit = 1 << c % size
                if mask & bit:
                    continue
                mask |= bit
                if out is not None:
                    out.append(c % size)
                need -= 1
                if not need:
                    return mask
            block += 1
            suffix = block.to_bytes(4, "little")
        return mask

    def __eq__(self, other) -> bool:
        if not isinstance(other, HashFamily):
            return NotImplemented
        return self._key == other._key

    def __repr__(self) -> str:
        return (f"HashFamily(count={self.count}, range_size={self.range_size}, "
                f"mode={self.mode!r}, seed={self.seed}, distinct={self.distinct})")


class BloomFilter:
    """Classic Bloom filter: insert sets k bits, membership is a subset test.

    No false negatives ever; false positives at the usual rate for the
    (bits, hashes, inserted) shape.
    """

    __slots__ = ("_mask", "family", "inserted_count")

    def __init__(self, bits: int, hashes: int, *, seed: int = 0,
                 mode: str = MODE_RANDOM, distinct: bool = False):
        if hashes < 1:
            raise ValueError(f"hashes must be >= 1, got {hashes}")
        self._mask = 0
        self.family = HashFamily(hashes, bits, mode=mode, seed=seed, distinct=distinct)
        self.inserted_count = 0

    @classmethod
    def from_family(cls, family: HashFamily) -> BloomFilter:
        if family.count < 1:
            raise ValueError("a Bloom filter needs at least one hash function")
        bf = cls.__new__(cls)
        bf._mask = 0
        bf.family = family
        bf.inserted_count = 0
        return bf

    @property
    def vector(self) -> BitVector:
        """The filter's bits; a copy, so writing to it changes nothing here."""
        return BitVector(self.bits, self._mask)

    @property
    def bits(self) -> int:
        return self.family.range_size

    @property
    def hashes(self) -> int:
        return self.family.count

    def element_vector(self, element) -> BitVector:
        """The element's own k-bit pattern b_e."""
        return BitVector(self.bits, self.family.element_mask(element))

    def insert(self, element) -> None:
        self._mask |= self.family.element_mask(element)
        self.inserted_count += 1

    def contains(self, element) -> bool:
        mask = self.family.element_mask(element)
        return mask & self._mask == mask

    def union(self, other: BloomFilter) -> BloomFilter:
        """Bitwise OR; equals inserting both element sets into one filter."""
        if self.family != other.family:
            raise ValueError("union requires identical length and hash family")
        out = BloomFilter.from_family(self.family)
        out._mask = self._mask | other._mask
        out.inserted_count = self.inserted_count + other.inserted_count
        return out

    def __eq__(self, other) -> bool:
        """Same family and same bits; insert bookkeeping is metadata."""
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return self.family == other.family and self._mask == other._mask

    def __repr__(self) -> str:
        return (f"BloomFilter(bits={self.bits}, hashes={self.hashes}, "
                f"set={self._mask.bit_count()}, inserted={self.inserted_count})")
