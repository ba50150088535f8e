"""Seeded hash families and the classic Bloom filter.

Positions are 0-based everywhere, and a set of positions is an int mask
with bit i set for position i. A hash family is fully determined by
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


class HashFamily:
    """Deterministic family of hash functions onto [0, range_size).

    count may be 0 (no functions, empty position list). In the default
    seeded-random-allocation mode each function is an independent uniform
    draw, with replacement. Double-hashing mode derives
    all positions from two base hashes, the usual cheap alternative.
    """

    __slots__ = ("count", "range_size", "mode", "seed", "_key", "_hasher",
                 "_suffixes", "_unpack")

    def __init__(self, count: int, range_size: int, *, mode: str = MODE_RANDOM,
                 seed: int = 0):
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if range_size < 1:
            raise ValueError(f"range_size must be positive, got {range_size}")
        if mode not in _MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.count = count
        self.range_size = range_size
        self.mode = mode
        self.seed = seed & MASK64
        flags = _MODES.index(mode)
        self._key = struct.pack("<QQQB", self.seed, count, range_size, flags)
        # keyed once; each digest copies it, skipping the key block's compression
        self._hasher = blake2b(key=self._key,
                               digest_size=16 if mode == MODE_DOUBLE else 64)
        # An element's digests are of its encoding + each suffix. A random-mode
        # walk takes exactly the first count chunks of blocks
        # 0 .. ceil(count/8)-1, so its blocks and their unpacker are fixed by
        # the shape; a double-hashing walk takes one unsuffixed digest.
        if mode == MODE_DOUBLE:
            self._suffixes = (b"",) if count else ()
        else:
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

        A random-mode family walks the whole list in one loop, loading the
        keyed hasher, the block suffixes, the unpacker and the range once
        per list: per element, those lookups and the call cost more than the
        bit arithmetic. A double-hashing family takes encoded_mask once per
        item.
        """
        if self.mode == MODE_DOUBLE:
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

    def digests(self, datas) -> bytes:
        """The digests each element's walk reads, elements end to end, for
        elements already encoded by element_to_bytes.

        Per element, random mode gives blocks 0 .. ceil(count/8)-1 of 64
        bytes, whose first count little-endian 64-bit chunks c give the
        positions c % range_size. Double-hashing mode gives one 16-byte
        digest, its chunks h1 and h2, or nothing when count is 0. For
        callers that reduce many elements' chunks to masks at once.
        """
        hasher = self._hasher
        suffixes = self._suffixes
        out = []
        append = out.append
        for data in datas:
            for suffix in suffixes:
                h = hasher.copy()
                h.update(data + suffix)
                append(h.digest())
        return b"".join(out)

    def encoded_mask(self, data: bytes, out: list | None = None) -> int:
        """element_mask of an element already encoded by element_to_bytes.

        The per-element hash-stream walker. Random mode reads the first
        count 64-bit chunks of the digests of data + u32 block number,
        blocks 0 .. ceil(count/8)-1, with one unpack: the walk
        encoded_masks batches; it stays here for positions(). A list given
        as out receives the positions in order, duplicates kept.
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
        chunks = self._unpack(self.digests((data,)))
        for c in chunks:
            mask |= 1 << c % size
        if out is not None:
            out.extend([c % size for c in chunks])
        return mask

    def __eq__(self, other) -> bool:
        if not isinstance(other, HashFamily):
            return NotImplemented
        return self._key == other._key

    def __repr__(self) -> str:
        return (f"HashFamily(count={self.count}, range_size={self.range_size}, "
                f"mode={self.mode!r}, seed={self.seed})")


class BloomFilter:
    """Classic Bloom filter: insert sets k bits, membership is a subset test.

    No false negatives ever; false positives at the usual rate for the
    (bits, hashes, inserted) shape. mask holds the filter's bits as an int,
    bit i for position i.
    """

    __slots__ = ("mask", "family", "inserted_count")

    def __init__(self, bits: int, hashes: int, *, seed: int = 0,
                 mode: str = MODE_RANDOM):
        if hashes < 1:
            raise ValueError(f"hashes must be >= 1, got {hashes}")
        self.mask = 0
        self.family = HashFamily(hashes, bits, mode=mode, seed=seed)
        self.inserted_count = 0

    @property
    def bits(self) -> int:
        return self.family.range_size

    @property
    def hashes(self) -> int:
        return self.family.count

    def insert(self, element) -> None:
        self.mask |= self.family.element_mask(element)
        self.inserted_count += 1

    def contains(self, element) -> bool:
        mask = self.family.element_mask(element)
        return mask & self.mask == mask

    def __eq__(self, other) -> bool:
        """Same family and same bits; insert bookkeeping is metadata."""
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return self.family == other.family and self.mask == other.mask

    def __repr__(self) -> str:
        return (f"BloomFilter(bits={self.bits}, hashes={self.hashes}, "
                f"set={self.mask.bit_count()}, inserted={self.inserted_count})")
