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
from operator import itemgetter

MASK64 = (1 << 64) - 1

MODE_RANDOM = "seeded-random-allocation"
MODE_DOUBLE = "double-hashing"
_MODES = (MODE_RANDOM, MODE_DOUBLE)


# the record of an int id in [0, 2**64): the tag b"i", then 8 bytes
# little-endian
_pack_u64 = struct.Struct("<cQ").pack


def element_to_bytes(element) -> bytes:
    """Canonical byte encoding of an element id (int, str, or bytes).

    Type-tagged so e.g. the int 5 and the bytes b"5" never collide. An int
    in [0, 2**64) is the 64-bit record _encode_u64s also writes; any other
    int is b"I" + its decimal digits.
    """
    if isinstance(element, int):
        if 0 <= element <= MASK64:
            return _pack_u64(b"i", element)
        return b"I" + str(element).encode("ascii")
    if isinstance(element, str):
        return b"s" + element.encode("utf-8")
    if isinstance(element, bytes):
        return b"b" + element
    raise TypeError(f"unsupported element type: {type(element).__name__}")


def _encode_u64s(ids) -> list[bytes]:
    """element_to_bytes of each int id in [0, 2**64), in order."""
    return [_pack_u64(b"i", i) for i in ids]


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


def _readers(count: int, range_size: int, blocks, per_block: int,
             byte_table: bool) -> tuple:
    """The four readers of one family shape, written out as straight-line
    source and compiled once, the way dataclasses writes __init__:
    mask(hasher, bits, data) and within(hasher, bits, data, m) of one
    element, and their list forms masks(hasher, bits, datas), the list of
    masks, and count(hasher, bits, datas, m), how many lie inside m.

    Block b digests data + its suffix from a copy of hasher and unpacks
    its chunks, per_block of them or the count left, through its reader
    read<b>, a closure cell of the factory that makes the readers.
    Each chunk's position is then one term, bits[c % range_size], or
    bits[c] over the 256-entry byte table: mask ORs the terms, eight to a
    line, and within returns False at the first term outside m, before
    any later block is digested. masks and count run the same lines once
    per element inside one loop over datas, which may be any iterable,
    with hasher.copy bound once; count goes on to the next element where
    within returns False. hasher and bits are arguments, not bound in, so
    the calling family's own hasher and table are the ones read.
    """
    index = "{}" if byte_table else f"{{}} % {range_size}"

    def walk(copy: str, stop: str | None) -> list[str]:
        """One element's lines: a mask's into out, or with stop a test's,
        stop running at the first position outside m."""
        lines = []
        for b, (suffix, _) in enumerate(blocks):
            names = [f"c{i}" for i in range(min(per_block, count - b * per_block))]
            lines += [f"h = {copy}()",
                      f"h.update(data + {suffix!r})" if suffix else "h.update(data)",
                      f"[{', '.join(names)}] = read{b}(h.digest())"]
            terms = [f"bits[{index.format(c)}]" for c in names]
            if stop:
                for t in terms:
                    lines += [f"if not m & {t}:", f"    {stop}"]
            else:
                lines += [f"out {'|=' if b or i else '='} " + " | ".join(terms[i:i + 8])
                          for i in range(0, len(terms), 8)]
        return lines

    def indent(depth: int, lines: list[str]) -> list[str]:
        return ["    " * depth + line for line in lines]

    out = "out" if blocks else "0"
    reads = ", ".join(f"read{b}" for b in range(len(blocks)))
    source = "\n".join([
        f"def factory({reads}):",
        "    def mask(hasher, bits, data):",
        *indent(2, walk("hasher.copy", None) + [f"return {out}"]),
        "    def within(hasher, bits, data, m):",
        *indent(2, walk("hasher.copy", "return False") + ["return True"]),
        "    def masks(hasher, bits, datas):",
        *indent(2, ["copy = hasher.copy", "outs = []", "append = outs.append",
                    "for data in datas:"]),
        *indent(3, walk("copy", None) + [f"append({out})"]),
        "        return outs",
        "    def count(hasher, bits, datas, m):",
        *indent(2, ["copy = hasher.copy", "hits = 0", "for data in datas:"]),
        *indent(3, walk("copy", "continue") + ["hits += 1"]),
        "        return hits",
        "    return mask, within, masks, count"])
    namespace = {}
    exec(compile(source, f"<readers {count}x{range_size}>", "exec"), namespace)
    return namespace["factory"](*(read for _, read in blocks))


@lru_cache(maxsize=256)
def _shape(count: int, range_size: int, mode: str) -> tuple:
    """(digest size, bit table, blocks, mask, within, masks, count) of a
    family shape: the one place bitcore decides a hash mode. Every walk
    of a keyed hasher, for one element or for a list, runs through one of
    the four readers built here.

    blocks pairs each digest suffix with a reader of that digest's chunks:
    an element's digests are of its encoding + each suffix, and chunk c
    gives position c % range_size. A random-mode walk takes exactly the
    first count chunks of blocks 0 .. ceil(count/8)-1, eight to a block,
    so its blocks and their unpackers are fixed by the shape. Where
    range_size divides 256, a little-endian chunk mod range_size is its
    low byte mod range_size, so a reader gives each chunk's first byte
    instead of unpacking 64 bits, and the bit table has 256 entries, entry
    b the bit of b % range_size, so no % range_size runs. A double-hashing
    walk takes one unsuffixed digest, read as h1 and h2, and its chunks
    are the progression h1 % range + i * stride. A family of count 0 has
    no blocks and reads no chunks, in either mode.

    mask, within, masks and count are the shape's straight-line readers
    from _readers, built once here, so HashFamily.encoded_mask,
    encoded_within, encoded_masks and count_within are each one call.
    None of it depends on the seed, so families rebuilt per seed share it.
    """
    bits = _BITS if range_size <= _TABLE_SIZE else _ShiftedBits()
    byte_table = False
    if mode == MODE_DOUBLE and count:
        unpack = struct.Struct("<2Q").unpack_from

        def read(digest):
            h1, h2 = unpack(digest)
            start, stride = h1 % range_size, h2 % range_size or 1
            return range(start, start + count * stride, stride)
        digest_size, per_block, blocks = 16, count, ((b"", read),)
    else:
        byte_table = not 256 % range_size
        if byte_table:
            bits = tuple(_BITS[b % range_size] for b in range(256))
        blocks = []
        for start in range(0, count, 8):
            n = min(8, count - start)
            read = (itemgetter(slice(0, 8 * n, 8)) if byte_table
                    else struct.Struct(f"<{n}Q").unpack_from)
            blocks.append(((start // 8).to_bytes(4, "little"), read))
        digest_size, per_block, blocks = 64, 8, tuple(blocks)
    return (digest_size, bits, blocks,
            *_readers(count, range_size, blocks, per_block, byte_table))


class HashFamily:
    """Deterministic family of hash functions onto [0, range_size).

    count may be 0 (no functions, an empty mask). In the default
    seeded-random-allocation mode each function is an independent uniform
    draw, with replacement. Double-hashing mode derives
    all positions from two base hashes, the usual cheap alternative.
    """

    __slots__ = ("count", "range_size", "mode", "seed", "_key", "_hasher",
                 "_bits", "_mask", "_within", "_masks", "_count")

    def __init__(self, count: int, range_size: int, *, mode: str = MODE_RANDOM,
                 seed: int = 0):
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if range_size < 1:
            raise ValueError(f"range_size must be positive, got {range_size}")
        # the key packs both as unsigned 64-bit words
        if count > MASK64:
            raise ValueError(f"count must be below 2**64, got {count}")
        if range_size > MASK64:
            raise ValueError(f"range_size must be below 2**64, got {range_size}")
        if mode not in _MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.count = count
        self.range_size = range_size
        self.mode = mode
        self.seed = seed & MASK64
        flags = _MODES.index(mode)
        self._key = struct.pack("<QQQB", self.seed, count, range_size, flags)
        (digest_size, self._bits, _, self._mask, self._within, self._masks,
         self._count) = _shape(count, range_size, mode)
        # keyed once; each digest copies it rather than deriving the key and
        # parameter block again. The copy still holds the key block, which
        # blake2b buffers until data arrives, so every digest compresses it.
        self._hasher = blake2b(key=self._key, digest_size=digest_size)

    def element_mask(self, element) -> int:
        """The element's bits as an int, the form the filters compare against."""
        return self.encoded_mask(element_to_bytes(element))

    def encoded_mask(self, data: bytes) -> int:
        """element_mask of one element already encoded by element_to_bytes.

        One call to the shape's mask reader, built once per shape by
        _shape: it reads the keyed hasher one digest block at a time, as
        encoded_masks does for each element of a list, and ORs in the
        position of each chunk.
        """
        return self._mask(self._hasher, self._bits, data)

    def encoded_within(self, data: bytes, mask: int) -> bool:
        """Whether the element_mask of one element already encoded by
        element_to_bytes lies inside mask: count_within for one element.

        One call to the shape's within reader, built once per shape by
        _shape: it reads the keyed hasher as encoded_mask does, and returns
        False at the first position outside mask, as a Bloom filter read
        stops at its first clear bit, before digesting any later block.
        """
        return self._within(self._hasher, self._bits, data, mask)

    def encoded_masks(self, datas) -> list[int]:
        """encoded_mask of each element of an iterable already encoded by
        element_to_bytes, in order.

        One call to the shape's masks reader, built once per shape by
        _shape: one loop over datas runs encoded_mask's walk for each
        element, with no call per element.
        """
        return self._masks(self._hasher, self._bits, datas)

    def count_within(self, datas, mask: int) -> int:
        """How many elements of an iterable already encoded by
        element_to_bytes have their element_mask inside mask: a classic
        Bloom filter's hits.

        One call to the shape's count reader, built once per shape by
        _shape: one loop over datas runs encoded_within's walk for each
        element, so each stops at its first position outside mask, as a
        Bloom filter query stops at its first clear bit, and digests no
        later block.
        """
        return self._count(self._hasher, self._bits, datas, mask)

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
