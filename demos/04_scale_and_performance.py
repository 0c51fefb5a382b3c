"""The codec at scale: a hundred-thousand-digit integer, round-tripped.

Interesting inputs are astronomically large: an integer with 10^5
factorial-base digits has about 456,000 decimal digits.  The conversion
splits the factorial base with a product tree whose divisions recurse down
to multiplications, and places and counts entries in a pool of unused
values: one list up to 10,240 entries, and above that arrays of 10,240
consecutive values (array('i')), so no step moves more than 10,240
entries.  decode first checks that its input is a permutation: each entry
marks one byte.  This script times the full pipeline in both directions.

Its one round trip is cold: it runs in a fresh process, so encode forms
every weight of the product tree, and decode, at the same length, reuses
them.  A process that round-trips again at this length or any shorter one
forms no weight.  Expect one to two seconds for the round trip on a small
x86-64 VM.  The big-integer halves cost the most: integer -> digits in
encode, digits -> integer in decode.
"""

from math import factorial
from random import Random
from time import perf_counter

from factoradic import decode, encode, inversion_set, minimal_prefix_length

s = 100_000
rng = Random(0)
n = rng.randrange(factorial(s - 1), factorial(s))
print(f"prefix length s = {s:,d}")
print(f"decimal digits of n: about {n.bit_length() * 30103 // 100000:,d}\n")

t0 = perf_counter()
p = encode(n)
t1 = perf_counter()
print(f"encode:          {t1 - t0:6.2f} s  ({len(p):,d} entries)")

back = decode(p)
t2 = perf_counter()
print(f"decode:          {t2 - t1:6.2f} s  (round trip {'ok' if back == n else 'BROKEN'})")

count = inversion_set(p).count()
t3 = perf_counter()
print(f"inversion count: {t3 - t2:6.2f} s  ({count:,d} inversions)")

assert back == n
assert minimal_prefix_length(n) == s

print("\nResidues still need only the k-prefix, so they are instant:")
from factoradic import residue_from_prefix  # noqa: E402  (narrative order)

t4 = perf_counter()
residues = {k: residue_from_prefix(p[:k], k) for k in (7, 30, 97)}
t5 = perf_counter()
for k, r in residues.items():
    assert r == n % k
    print(f"  n mod {k:2d} = {r:2d}  (from {k} entries)")
print(f"  all three in {(t5 - t4) * 1000:.2f} ms, verified against n % k")
