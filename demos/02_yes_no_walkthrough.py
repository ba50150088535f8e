"""
Yes-no filter walkthrough
=========================

A yes-no filter spends its m bits in two stages: a p-bit yes-filter over the
member set, plus r q-bit no-filters recording the yes-filter's known false
positives among the queries the deployment will actually see. This script
builds one and walks through what each stage did.
"""

from yesnobf import MODE_RANDOM, QueryResult, YesNoFilter, YesNoParams

# 96 bits total: a 64-bit yes stage and two 16-bit no-filters
params = YesNoParams.of(p=64, q=16, r=2, k=3, k_prime=2)
members = [f"route-{i}" for i in range(12)]
traffic = [f"flow-{i}" for i in range(400)]

filt, report = YesNoFilter.build(params, members, traffic, seed=9)

# the report says how much mitigation happened at build time
print(f"yes-stage false positives found: {report.f_count}")
print(f"recorded into no-filters:        {report.r_count}")
print(f"left unmitigated:                {report.unmitigated}")
print(f"per-no-filter load:              {report.per_no_filter_load}")

# members must survive both stages; the construction guard guarantees it
assert all(filt.contains(e) for e in members)

# classify splits every query by where its answer was decided
outcome = filt.classify(members, traffic)
print(f"rejected by the no stage:  {len(outcome.no_stage_rejections)}")
print(f"still false positive:      {outcome.fp_count} "
      f"(yes-filter alone: {outcome.yes_filter_fp_count})")

# query results name the deciding stage
sample = outcome.no_stage_rejections[0]
print(f"{sample!r} -> {filt.query(sample)}")
assert filt.query(sample) is QueryResult.NEGATIVE_NO_STAGE

# the whole structure serializes to its m bits and comes back intact
wire = filt.to_bitstring()
# the bits do not record the hashing, so the load names its seed and mode
back = YesNoFilter.from_bitstring(params, wire, seed=9, mode=MODE_RANDOM)
print(f"{len(wire)} bits on the wire, round-trip intact: {back == filt}")
