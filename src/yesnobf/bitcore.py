"""Seeded hash families and the classic Bloom filter.

Positions are 0-based everywhere, and a set of positions is an int mask
with bit i set for position i. A hash family is fully determined by
(count, range_size, mode, seed): the same tuple reproduces the same positions
for an element across calls, runs, and machines, and families whose shapes
differ are statistically independent even under the same seed.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from hashlib import blake2b
from itertools import repeat
from operator import itemgetter

MASK64 = (1 << 64) - 1

MODE_RANDOM = "seeded-random-allocation"
MODE_DOUBLE = "double-hashing"
_MODES = (MODE_RANDOM, MODE_DOUBLE)


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


def _encoded_ids(ids) -> list[bytes]:
    """element_to_bytes of each 64-bit id, in one numpy pass: the tag
    b"i", then the id's 8 bytes little-endian."""
    import numpy as np

    records = np.empty((len(ids), 9), np.uint8)
    records[:, 0] = ord("i")
    records[:, 1:] = np.array(ids, "<u8").view(np.uint8).reshape(-1, 8)
    return records.view("V9").ravel().tolist()


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


# A walk ORs or tests bits[position] rather than 1 << position, which builds
# a new int per position. Ranges up to _TABLE_SIZE share one table (108 KB);
# a table's size grows with the square of its range, so a wider range shifts.
_TABLE_SIZE = 1024
_BITS = tuple(1 << i for i in range(_TABLE_SIZE))


class _ShiftedBits:
    """bits[i] is 1 << i, for ranges past the table."""

    __slots__ = ()

    def __getitem__(self, i: int) -> int:
        return 1 << i


@lru_cache(maxsize=256)
def _shape(count: int, range_size: int, mode: str) -> tuple:
    """(digest size, bit table, blocks) of a family shape: the one place
    bitcore decides a hash mode. mask_rows, below, carries a numpy copy of
    both position rules, and its tests hold its ints to encoded_mask's.

    blocks pairs each digest suffix with a reader of that digest's chunks:
    an element's digests are of its encoding + each suffix, and chunk c
    gives position c % range_size. A random-mode walk takes exactly the
    first count chunks of blocks 0 .. ceil(count/8)-1, eight to a block,
    so its blocks and their unpackers are fixed by the shape. Where
    range_size divides 256, a little-endian chunk mod range_size is its
    low byte mod range_size, so a reader gives each chunk's first byte
    instead of unpacking 64 bits. A double-hashing walk takes one
    unsuffixed digest, read as h1 and h2, and its chunks are the
    progression h1 % range + i * stride. A family of count 0 has no
    blocks and reads no chunks, in either mode. None of it depends on the
    seed, so families rebuilt per seed share it.
    """
    bits = _BITS if range_size <= _TABLE_SIZE else _ShiftedBits()
    if mode == MODE_DOUBLE and count:
        unpack = struct.Struct("<2Q").unpack_from

        def read(digest):
            h1, h2 = unpack(digest)
            start, stride = h1 % range_size, h2 % range_size or 1
            return range(start, start + count * stride, stride)
        return 16, bits, ((b"", read),)
    blocks = []
    for start in range(0, count, 8):
        n = min(8, count - start)
        read = (struct.Struct(f"<{n}Q").unpack_from if 256 % range_size
                else itemgetter(slice(0, 8 * n, 8)))
        blocks.append(((start // 8).to_bytes(4, "little"), read))
    return 64, bits, tuple(blocks)


class HashFamily:
    """Deterministic family of hash functions onto [0, range_size).

    count may be 0 (no functions, an empty mask). In the default
    seeded-random-allocation mode each function is an independent uniform
    draw, with replacement. Double-hashing mode derives
    all positions from two base hashes, the usual cheap alternative.
    """

    __slots__ = ("count", "range_size", "mode", "seed", "_key", "_hasher",
                 "_bits", "_blocks")

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
        digest_size, self._bits, self._blocks = _shape(count, range_size, mode)
        # keyed once; each digest copies it rather than deriving the key and
        # parameter block again. The copy still holds the key block, which
        # blake2b buffers until data arrives, so every digest compresses it.
        self._hasher = blake2b(key=self._key, digest_size=digest_size)

    def element_mask(self, element) -> int:
        """The element's bits as an int, the form the filters compare against."""
        return self.encoded_mask(element_to_bytes(element))

    def encoded_mask(self, data: bytes) -> int:
        """element_mask of one element already encoded by element_to_bytes.

        It reads the keyed hasher one digest block at a time, as mask_rows
        does for lists, and ORs in the position of each chunk.
        """
        hasher = self._hasher
        size = self.range_size
        bits = self._bits
        mask = 0
        for suffix, read in self._blocks:
            h = hasher.copy()
            h.update(data + suffix)
            for c in read(h.digest()):
                mask |= bits[c % size]
        return mask

    def encoded_within(self, data: bytes, mask: int) -> bool:
        """Whether the element_mask of one element already encoded by
        element_to_bytes lies inside mask: count_within for one element.

        It reads the keyed hasher as encoded_mask does, and returns False
        at the first position outside mask, as a Bloom filter read stops
        at its first clear bit, before digesting any later block.
        """
        hasher = self._hasher
        size = self.range_size
        bits = self._bits
        for suffix, read in self._blocks:
            h = hasher.copy()
            h.update(data + suffix)
            for c in read(h.digest()):
                if not mask & bits[c % size]:
                    return False
        return True

    def count_within(self, datas, mask: int) -> int:
        """How many elements of a list already encoded by element_to_bytes
        have their element_mask inside mask: a classic Bloom filter's hits.

        Each element is one encoded_within walk, so it stops at its first
        position outside mask, as a Bloom filter query stops at its first
        clear bit, and digests no later block.
        """
        return sum(map(self.encoded_within, datas, repeat(mask)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, HashFamily):
            return NotImplemented
        return self._key == other._key

    def __repr__(self) -> str:
        return (f"HashFamily(count={self.count}, range_size={self.range_size}, "
                f"mode={self.mode!r}, seed={self.seed})")


def mask_rows(walks) -> list[int]:
    """encoded_mask of each element of every (family, datas) walk, in order.

    The families share count, range_size and mode, and may differ in
    seed; no walk, or two shapes, raise ValueError. Elements are digested
    as encoded_mask digests them, but block-major: every element's block
    0, then every element's block 1, so a one-block shape is one tight
    loop per walk. Each walk's datas is made a list first, as a shape of
    several blocks reads it once per block. numpy turns the chunks into
    positions by _shape's rules and ORs them into a uint8 row per element,
    byte 0 lowest. numpy is imported only when this runs.
    """
    import numpy as np

    walks = [(family, list(datas)) for family, datas in walks]
    shapes = {(f.count, f.range_size, f.mode) for f, _ in walks}
    if len(shapes) != 1:
        raise ValueError(f"mask_rows needs one family shape, got {sorted(shapes)}")
    [(count, size, mode)] = shapes
    items = sum(len(datas) for _, datas in walks)
    if not count:
        return [0] * items
    digest_size, _, blocks = _shape(count, size, mode)
    out = []
    append = out.append
    for suffix, _ in blocks:
        for family, datas in walks:
            copy = family._hasher.copy
            for data in datas:
                h = copy()
                h.update(data + suffix)
                append(h.digest())
    # (blocks, items, words) to one row of every block's words per element
    words = digest_size // 8
    chunks = np.frombuffer(b"".join(out), "<u8").reshape(
        len(blocks), items, words).transpose(1, 0, 2).reshape(
        items, len(blocks) * words)
    width = (size + 7) // 8
    size = np.uint64(size)
    if mode == MODE_DOUBLE:
        # chunk i is h1 % size + i * stride, stride = h2 % size or 1, as
        # _shape's reader gives; each is below count * size
        stride = chunks[:, 1:] % size
        stride[stride == 0] = 1
        chunks = chunks[:, :1] % size + np.arange(count, dtype=np.uint64) * stride
    positions = chunks[:, :count] % size
    rows = np.zeros(items * width, np.uint8)
    # .at ORs a position repeated within an element once, as the int walk
    # does
    np.bitwise_or.at(
        rows,
        (positions >> 3).astype(np.intp)
        + np.arange(0, items * width, width)[:, None],
        np.left_shift(1, positions & 7).astype(np.uint8))
    # a bytes-string view drops a row's trailing zero bytes, which are its
    # high zeros, so each value is unchanged
    return list(map(int.from_bytes, rows.view(f"S{width}").tolist(),
                    repeat("little")))


def walk_masks(walks) -> list[int]:
    """mask_rows without numpy: encoded_mask of each element of every
    (family, datas) walk, in order, one encoded_mask call per element.
    Builds, classifications and topology experiments sketch through it,
    so they never import numpy. It walks each family on its own, so unlike
    mask_rows it also takes families of several shapes, or no walk."""
    return [m for family, datas in walks for m in map(family.encoded_mask, datas)]


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
        return self.family.encoded_within(element_to_bytes(element), self.mask)

    def __eq__(self, other) -> bool:
        """Same family and same bits; insert bookkeeping is metadata."""
        if not isinstance(other, BloomFilter):
            return NotImplemented
        return self.family == other.family and self.mask == other.mask

    def __repr__(self) -> str:
        return (f"BloomFilter(bits={self.bits}, hashes={self.hashes}, "
                f"seed={self.family.seed}, mode={self.family.mode!r}, "
                f"set={self.mask.bit_count()}, inserted={self.inserted_count})")
