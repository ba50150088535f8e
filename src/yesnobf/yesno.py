"""The yes-no Bloom filter: a yes-filter plus r small no-filters.

The yes-filter is a classic Bloom filter over the member set S. When the
caller can enumerate the set T of non-members that will actually be queried,
construction finds the yes-filter's false positives F within T and records as
many as it can in the no-filters. A query then answers positive only if it
passes the yes-filter AND is not recognized by any no-filter, which removes
known false positives without touching membership answers: by default every
commit to a no-filter is guarded so that no member's no-pattern ever becomes
covered, keeping the structure free of false negatives.

With r=0 the whole thing degenerates to a classic Bloom filter of p bits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import reduce
from itertools import compress
from operator import or_

from .bitcore import _MODES, MODE_RANDOM, HashFamily, element_to_bytes


@dataclass(frozen=True)
class YesNoParams:
    """Geometry of a yes-no filter.

    m total bits = p (yes-filter) + q * r (r no-filters of q bits each);
    k and k_prime are the hash counts of the yes and no families. With
    allow_false_negatives the construction skips the member guard and
    accepts every recordable false positive, trading correctness of member
    answers for mitigation capacity.
    """

    p: int
    q: int
    r: int
    k: int
    k_prime: int
    allow_false_negatives: bool = False

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"p must be positive, got {self.p}")
        if self.q < 1:
            raise ValueError(f"q must be positive, got {self.q}")
        if self.r < 0:
            raise ValueError(f"r must be >= 0, got {self.r}")
        if self.q >= self.p:
            raise ValueError(f"q ({self.q}) must be smaller than p ({self.p})")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.k_prime < 0:
            raise ValueError(f"k_prime must be >= 0, got {self.k_prime}")
        if self.r > 0 and self.k_prime < 1:
            raise ValueError("k_prime must be >= 1 when there are no-filters")

    @property
    def m(self) -> int:
        return self.p + self.q * self.r

    @classmethod
    def of(cls, p: int, q: int, r: int, k: int, k_prime: int,
           allow_false_negatives: bool = False) -> YesNoParams:
        """Construct from the part lengths; m follows from them."""
        return cls(p, q, r, k, k_prime, allow_false_negatives)


# An element's two hash patterns as int masks: (p-bit yes part, q-bit no
# part). A plain tuple, so sketching allocates no wrapper objects. The no
# part is None where the library did not hash it because no query reads it.
ElementSketch = tuple[int, int | None]


class Sketcher:
    """Bundles params with a seed and produces element sketches.

    The yes and no families share the seed; their different (count, range)
    shapes keep their position streams independent. A classic Bloom filter
    built from HashFamily(k, p, seed=seed) sees exactly the yes parts.
    """

    __slots__ = ("params", "seed", "mode", "yes_family", "no_family")

    def __init__(self, params: YesNoParams, seed: int = 0, mode: str = MODE_RANDOM):
        self.params = params
        self.seed = seed
        self.mode = mode
        self.yes_family = HashFamily(params.k, params.p, mode=mode, seed=seed)
        self.no_family = HashFamily(params.k_prime, params.q, mode=mode, seed=seed)

    def sketch(self, element) -> ElementSketch:
        """The element's full sketch: both parts hashed."""
        data = element_to_bytes(element)
        return (self.yes_family.encoded_mask(data),
                self.no_family.encoded_mask(data))


def _sketch(sketcher: Sketcher, datas, n: int, yes_mask: int | None = None
            ) -> list[ElementSketch]:
    """The sketches of one trial's elements as a query reads them: datas
    holds their element_to_bytes encodings as a list, the n members first.

    The yes family walks every element in one encoded_masks call, and the
    no family the elements a query reads in a second. This is the one
    no-part rule: an element's no part is hashed only with r > 0
    no-filters, and only where its yes part lies inside yes_mask if given
    (classify passes the filter's yes_filter), else inside the OR of the
    members' yes parts, the mask a build lays down. No query reads the no
    part of a yes-stage negative, so it is None there, and everywhere when
    r is 0.
    """
    parts = sketcher.yes_family.encoded_masks(datas)
    if yes_mask is None:
        yes_mask = reduce(or_, parts[:n], 0)
    hits = ([y & yes_mask == y for y in parts] if sketcher.params.r
            else [False] * len(parts))
    no_parts = iter(sketcher.no_family.encoded_masks(compress(datas, hits)))
    return [(y, next(no_parts) if hit else None) for y, hit in zip(parts, hits)]


def _trial(sketcher: Sketcher, members, candidates, datas
           ) -> tuple[ConstructionReport, Classification]:
    """One trial's (report, Classification): _sketch of datas, the
    element_to_bytes encodings of members, then candidates, then
    YesNoFilter.build_from_sketches over those sketches and
    classify_sketches of the same elements, as YesNoFilter.build, then
    classify, would give.

    Both methods are looked up through the class at each call, and the
    build is classified before this returns, so a wrapper on either sees
    every build, then its classification. This is the one place a trial
    is sketched, built and classified: the sweep's trials and the
    topology experiments' allocations all run through here.
    """
    n = len(members)
    sketches = _sketch(sketcher, datas, n)
    member_sketches, candidate_sketches = sketches[:n], sketches[n:]
    built, report = YesNoFilter.build_from_sketches(
        sketcher.params, member_sketches, candidate_sketches,
        seed=sketcher.seed, mode=sketcher.mode)
    return report, built.classify_sketches(
        list(zip(members, member_sketches)),
        list(zip(candidates, candidate_sketches)))


class QueryResult(enum.Enum):
    POSITIVE = "positive"
    NEGATIVE_YES_STAGE = "negative_yes_stage"
    NEGATIVE_NO_STAGE = "negative_no_stage"


# Queries return these module globals: loading one costs about a tenth of
# looking a member up on the Enum class, which costs more than the bit tests.
_POSITIVE = QueryResult.POSITIVE
_NEGATIVE_YES_STAGE = QueryResult.NEGATIVE_YES_STAGE
_NEGATIVE_NO_STAGE = QueryResult.NEGATIVE_NO_STAGE


@dataclass(frozen=True, slots=True)
class ConstructionReport:
    """What construction saw and did.

    f_count is the number of yes-filter false positives found in T,
    r_count how many of them the no-filters accepted, unmitigated the
    leftovers, per_no_filter_load the acceptance count per no-filter.
    """

    n: int
    t: int
    f_count: int
    r_count: int
    unmitigated: int
    per_no_filter_load: tuple[int, ...]


@dataclass(frozen=True)
class Classification:
    """Partition of S and T by query outcome, input order preserved."""

    true_positives: list = field(default_factory=list)
    yes_stage_negatives: list = field(default_factory=list)
    no_stage_rejections: list = field(default_factory=list)
    residual_false_positives: list = field(default_factory=list)
    false_negatives: list = field(default_factory=list)

    @property
    def fp_count(self) -> int:
        """Residual false positives, the count the structure exists to shrink."""
        return len(self.residual_false_positives)

    @property
    def yes_filter_fp_count(self) -> int:
        """False positives of the yes stage alone (mitigated or not)."""
        return len(self.no_stage_rejections) + len(self.residual_false_positives)


def _check_disjoint_sets(members, candidates):
    member_list = list(members)
    candidate_list = list(candidates)
    member_set = set(member_list)
    candidate_set = set(candidate_list)
    if len(member_set) != len(member_list):
        raise ValueError("duplicate elements in the member set")
    if len(candidate_set) != len(candidate_list):
        raise ValueError("duplicate elements in the queryable set")
    overlap = member_set & candidate_set
    if overlap:
        sample = next(iter(overlap))
        raise ValueError(f"member and queryable sets overlap (e.g. {sample!r})")
    return member_list, candidate_list


class YesNoFilter:
    """Built two-stage filter; treat as immutable once constructed.

    yes_filter is the p-bit yes filter and no_filters the r q-bit no
    filters, each an int mask with bit i for position i. The constructor
    raises ValueError on a mask that is negative or wider than p or q, a
    no-filter count other than r, or an unknown hash mode, so
    build_from_sketches and from_bitstring refuse one too. Masks do not
    record the seed and mode they were hashed with, so both are required.
    """

    __slots__ = ("params", "seed", "mode", "yes_filter", "no_filters", "_sketcher")

    def __init__(self, params: YesNoParams, yes_filter: int,
                 no_filters: list[int], *, seed: int, mode: str):
        if yes_filter < 0 or yes_filter >> params.p:
            raise ValueError("yes_filter does not fit in params.p bits")
        if len(no_filters) != params.r:
            raise ValueError("expected exactly r no-filters")
        if any(nf < 0 or nf >> params.q for nf in no_filters):
            raise ValueError("every no-filter must fit in params.q bits")
        if mode not in _MODES:
            raise ValueError(f"unknown mode {mode!r}")
        self.params = params
        self.seed = seed
        self.mode = mode
        self.yes_filter = yes_filter
        self.no_filters = list(no_filters)
        self._sketcher = None  # made on first query, or handed over by a build

    @classmethod
    def build(cls, params: YesNoParams, members, candidates, seed: int = 0,
              mode: str = MODE_RANDOM) -> tuple[YesNoFilter, ConstructionReport]:
        """Construct from the member set and the queryable non-member set.

        members and candidates must each be duplicate-free and mutually
        disjoint; candidate order fixes the order in which false positives
        compete for no-filter space (first come, first placed).
        """
        member_list, candidate_list = _check_disjoint_sets(members, candidates)
        sk = Sketcher(params, seed, mode)
        n = len(member_list)
        datas = list(map(element_to_bytes, member_list + candidate_list))
        sketches = _sketch(sk, datas, n)
        built, report = cls.build_from_sketches(
            params, sketches[:n], sketches[n:], seed=seed, mode=mode)
        built._sketcher = sk
        return built, report

    @classmethod
    def build_from_sketches(cls, params: YesNoParams, member_sketches,
                            candidate_sketches, *, seed: int,
                            mode: str = MODE_RANDOM
                            ) -> tuple[YesNoFilter, ConstructionReport]:
        """Construction core for callers that already hold the sketches.

        The sketches must come from a Sketcher with the same params, seed
        and mode, or later queries will not see the bits laid down here.
        A sketch does not record its seed, so seed is a required keyword.
        A no part may be None where nothing reads it: on a candidate the
        yes stage rejects, and on any element when r is 0. A member part,
        or the no part of a yes-stage false positive, wider than its filter
        raises ValueError, and so does a None no part that the guard or a
        query would read, and an empty member no part when r > 0.
        """
        p, q, r = params.p, params.q, params.r
        yes_mask = 0
        member_no_masks = []
        for y, mn in member_sketches:
            if not mn:
                # an empty no part lies inside every no filter, even an
                # empty one, so the member would answer no
                if r:
                    raise ValueError("a member sketch lacks its no part"
                                     if mn is None else
                                     "a member no part is empty")
            # a wide no part would spill into the next member's guard lane;
            # a shift per member is cheaper than OR-ing them all and testing
            # once, as each OR allocates an int
            elif mn >> q:
                raise ValueError("a member no part is wider than q bits")
            yes_mask |= y
            member_no_masks.append(mn)
        if yes_mask >> p:
            raise ValueError("a member yes part is wider than p bits")

        outside = yes_mask ^ ((1 << p) - 1)
        left = []  # the no parts of the yes stage's false positives, in order
        for y, fno in candidate_sketches:
            if y & outside or y >> p:  # a bit outside the p-bit yes filter
                continue
            if fno is None:
                if r:
                    raise ValueError("a yes-stage false positive lacks its no part")
            elif fno >> q:
                raise ValueError("a candidate no part is wider than q bits")
            left.append(fno)
        f_count = len(left)

        # First fit, one no-filter at a time: filter j reads only its mask and
        # the pins its earlier attempts set, and is offered, in input order, the
        # false positives 0..j-1 refused, as a candidate-major first fit does. It
        # moves those it refuses to the front of left: no list is made per j.
        no_masks = [0] * r
        loads = [0] * r
        guard = not params.allow_false_negatives
        if guard and r and left:
            # Lane i of packed is member i's no-mask under a set stop bit;
            # lows and highs hold every lane's lowest bit and stop bit.
            width = q + 1
            lane = (1 << width) - 1
            lows = ((1 << width * len(member_no_masks)) - 1) // lane
            highs = lows << q
            packed = 0
            for mn in reversed(member_no_masks):
                packed = packed << width | mn
            packed |= highs
        for j in range(r):
            if not left:
                break
            # pinned: bits each the only one some member's no-pattern lacks in
            # nm. The guard refuses every candidate carrying one: never set.
            nm = pinned = stay = 0
            for fno in left:
                if fno & pinned:
                    left[stay] = fno
                    stay += 1
                    continue
                candidate_mask = nm | fno
                # A placement that adds no bit leaves nm as the guard last
                # passed it, and no member no part is empty, so it covers
                # no member.
                if guard and candidate_mask != nm:
                    # Masked, lane i keeps its stop bit and member i's bits
                    # outside the candidate. Subtracting lows borrows from the
                    # stop bit, never past it, only when there are none: when
                    # the placement would cover member i.
                    kept = (packed & (candidate_mask ^ lane) * lows) - lows
                    if kept & highs != highs:
                        # The lowest cleared stop bit is the first covered
                        # member in input order, the one a scan stops at.
                        covered = highs & ~kept
                        mn = member_no_masks[
                            ((covered & -covered).bit_length() - 1) // width]
                        missing = mn & ~nm
                        if not missing & (missing - 1):
                            pinned |= missing
                        left[stay] = fno
                        stay += 1
                        continue
                nm = candidate_mask
            no_masks[j] = nm
            loads[j] = len(left) - stay
            del left[stay:]

        report = ConstructionReport(len(member_sketches), len(candidate_sketches),
                                    f_count, f_count - len(left), len(left), tuple(loads))
        return cls(params, yes_mask, no_masks, seed=seed, mode=mode), report

    def query_sketch(self, s: ElementSketch) -> QueryResult:
        """Two-stage decision for an element already sketched with
        matching params and seed; classify() answers through it, one call
        per element, so a subclass that overrides it is obeyed there.

        classify() hashes the no part only where it can be read, so an
        override is shown (y, None) for an element the yes stage rejects,
        and for every element when r is 0. query() and contains() do not
        call it.
        """
        y, fno = s
        if y & self.yes_filter != y:
            return _NEGATIVE_YES_STAGE
        for nm in self.no_filters:
            if fno & nm == fno:
                return _NEGATIVE_NO_STAGE
        return _POSITIVE

    def query(self, element) -> QueryResult:
        """The element's two-stage answer. The yes stage is a classic Bloom
        filter read: it stops at the element's first clear bit. The no
        family hashes the element only after the yes stage passes, so a
        yes-stage negative costs what a classic read of it costs."""
        sk = self._sketcher
        if sk is None:
            sk = self._sketcher = Sketcher(self.params, self.seed, self.mode)
        data = element_to_bytes(element)
        if not sk.yes_family.encoded_within(data, self.yes_filter):
            return _NEGATIVE_YES_STAGE
        no_filters = self.no_filters
        if no_filters:
            fno = sk.no_family.encoded_mask(data)
            for nm in no_filters:
                if fno & nm == fno:
                    return _NEGATIVE_NO_STAGE
        return _POSITIVE

    def contains(self, element) -> bool:
        return self.query(element) is _POSITIVE

    def classify(self, members, candidates) -> Classification:
        """Partition members and candidates by query outcome.

        Members land in true_positives (or false_negatives, possible only
        when the filter was built with allow_false_negatives); candidates
        land in yes_stage_negatives, no_stage_rejections, or
        residual_false_positives — the last being the queries the structure
        still gets wrong.
        """
        member_list, candidate_list = _check_disjoint_sets(members, candidates)
        sk = self._sketcher
        if sk is None:
            sk = self._sketcher = Sketcher(self.params, self.seed, self.mode)
        n = len(member_list)
        datas = list(map(element_to_bytes, member_list + candidate_list))
        sketches = _sketch(sk, datas, n, self.yes_filter)
        return self.classify_sketches(list(zip(member_list, sketches)),
                                      list(zip(candidate_list, sketches[n:])))

    def classify_sketches(self, member_pairs, candidate_pairs) -> Classification:
        """classify() core over (element, sketch) pairs: one query_sketch
        call per element, so a subclass that overrides it is obeyed."""
        out = Classification()
        query = self.query_sketch
        true_positive = out.true_positives.append
        false_negative = out.false_negatives.append
        for e, s in member_pairs:
            if query(s) is _POSITIVE:
                true_positive(e)
            else:
                false_negative(e)
        yes_stage_negative = out.yes_stage_negatives.append
        no_stage_rejection = out.no_stage_rejections.append
        residual = out.residual_false_positives.append
        for e, s in candidate_pairs:
            result = query(s)
            if result is _NEGATIVE_YES_STAGE:
                yes_stage_negative(e)
            elif result is _NEGATIVE_NO_STAGE:
                no_stage_rejection(e)
            else:
                residual(e)
        return out

    def to_bitstring(self) -> str:
        """All m bits as '0'/'1', character i being bit i: the yes-filter
        first, then each no-filter in order."""
        params = self.params
        parts = [format(self.yes_filter, f"0{params.p}b")[::-1]]
        parts.extend(format(nf, f"0{params.q}b")[::-1] for nf in self.no_filters)
        return "".join(parts)

    @classmethod
    def from_bitstring(cls, params: YesNoParams, text: str, *, seed: int,
                       mode: str) -> YesNoFilter:
        """The filter of a to_bitstring text. The bits do not record the
        seed and hash mode they were built with, so the caller names both;
        under any others, members may answer no. Raises ValueError unless
        text holds exactly params.m characters, each '0' or '1'."""
        if len(text) != params.m:
            raise ValueError(f"expected {params.m} bits, got {len(text)}")
        # checked here, since int(text, 2) also accepts "_" and spaces
        if set(text) - {"0", "1"}:
            raise ValueError("bit string must hold only 0s and 1s")
        bits = int(text[::-1], 2)
        p, q = params.p, params.q
        no_filters = [(bits >> (p + j * q)) & ((1 << q) - 1) for j in range(params.r)]
        return cls(params, bits & ((1 << p) - 1), no_filters, seed=seed, mode=mode)

    def __eq__(self, other) -> bool:
        if not isinstance(other, YesNoFilter):
            return NotImplemented
        return (self.params == other.params and self.seed == other.seed
                and self.mode == other.mode and self.yes_filter == other.yes_filter
                and self.no_filters == other.no_filters)

    def __repr__(self) -> str:
        return (f"YesNoFilter(p={self.params.p}, q={self.params.q}, "
                f"r={self.params.r}, k={self.params.k}, "
                f"k_prime={self.params.k_prime}, seed={self.seed}, "
                f"mode={self.mode!r})")
