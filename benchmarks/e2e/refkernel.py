"""The frozen reference kernel every host-time metric is divided by.

``ref()`` is a fixed amount of pure-Python work shaped like the
simulator's inner loop: tuple-keyed heap pushes of slotted objects, a
dict store, and a pop plus a bound-method call every other iteration,
then a full drain.  It is run once between every two passes, and a
pass's cost is its seconds divided by the mean of the two adjacent
``ref()`` runs, so a host that slows down (shared vCPUs, frequency
drift) slows numerator and denominator alike.

This file is hashed into ``manifest.json``: changing a single byte of
it changes the unit every cost is expressed in, so it needs a
``manifest_version`` bump and a fresh baseline.  Do not "optimise" it.
"""

from heapq import heappop, heappush

#: Heap pushes per ``ref()`` run.
REF_ITERATIONS = 20_000

#: Operations one ``ref()`` run performs: one push and one dict store per
#: iteration, one pop and one method call per pushed item.
REF_OPERATIONS = 4 * REF_ITERATIONS

#: The nominal duration of one ``ref()`` run, used only to express
#: ``setup_s`` in seconds again after dividing it by a measured run.
REF_NOMINAL_S = 0.025


class _Item:
    __slots__ = ("key", "hits")

    def __init__(self, key):
        self.key = key
        self.hits = 0

    def touch(self):
        self.hits += 1
        return self.key


def ref():
    """Run the kernel once; return the number of operations performed."""
    heap = []
    store = {}
    operations = 0
    key = 12345
    for i in range(REF_ITERATIONS):
        key = (key * 1103515245 + 12345) % 2147483648
        item = _Item(key)
        heappush(heap, (key, i, item))
        store[i] = item
        operations += 2
        if i & 1:
            operations += 1 + (heappop(heap)[2].touch() >= 0)
    while heap:
        operations += 1 + (heappop(heap)[2].touch() >= 0)
    return operations
