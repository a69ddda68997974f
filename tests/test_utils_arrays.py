"""``first_occurrences``: the frontier dedupe that never stable-argsorts.

The reference is the form it replaced,
``ids[np.sort(np.unique(ids, return_index=True)[1])]``: equal as a set
for the ascending form, as a sequence for the ordered one — with a stamp
scratch, without one, and on ids the scratch cannot index.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.algorithms.people_search import _VisitedTracker
from repro.utils.arrays import first_occurrences

SMALL = st.integers(0, 40)
ANY = st.one_of(SMALL, st.integers(-5, -1),
                st.integers(2**26 - 2, 2**26 + 2), st.integers(2**40, 2**62))


def reference(ids):
    return ids[np.sort(np.unique(ids, return_index=True)[1])]


def as_ids(values):
    return np.array(values, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(st.lists(ANY, max_size=60))
def test_ascending_form_is_the_sorted_set(values):
    ids = as_ids(values)
    out = first_occurrences(ids)
    assert out.dtype == ids.dtype
    assert out.tolist() == sorted(set(values))
    assert set(out.tolist()) == set(reference(ids).tolist())


@settings(max_examples=200, deadline=None)
@given(st.lists(SMALL, max_size=60), st.integers(0, 8))
def test_stamp_form_keeps_first_seen_order_and_marks(values, spare):
    ids = as_ids(values)
    stamp = np.zeros(41 + spare, dtype=np.int32)
    out = first_occurrences(ids, ordered=True, stamp=stamp)
    assert out.tolist() == reference(ids).tolist()
    # nonzero at exactly the values returned
    assert np.flatnonzero(stamp).tolist() == sorted(set(values))


@settings(max_examples=200, deadline=None)
@given(st.lists(ANY, max_size=60), st.booleans())
def test_ordered_form_falls_back_where_the_stamp_cannot_index(values, stamped):
    ids = as_ids(values)
    stamp = np.zeros(64, dtype=np.int32) if stamped else None
    out = first_occurrences(ids, ordered=True, stamp=stamp)
    assert out.tolist() == reference(ids).tolist()


def test_edges():
    empty = as_ids([])
    assert first_occurrences(empty).tolist() == []
    assert first_occurrences(empty, ordered=True).tolist() == []
    assert first_occurrences(empty, ordered=True,
                             stamp=np.zeros(4, np.int32)).tolist() == []
    same = as_ids([7] * 50)
    assert first_occurrences(same).tolist() == [7]
    assert first_occurrences(same, ordered=True,
                             stamp=np.zeros(8, np.int32)).tolist() == [7]
    # more positions than the stamp's dtype can rank: the unique form
    tiny = np.zeros(8, dtype=np.int8)
    many = as_ids([3, 1, 3, 2] * 40)
    assert first_occurrences(many, ordered=True,
                             stamp=tiny).tolist() == [3, 1, 2]
    assert not tiny.any()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(ANY, max_size=30), max_size=6))
def test_tracker_hops_match_a_python_set(hops):
    """The way the searches use it: unseen → first_occurrences → add,
    hop after hop, through the switch to the sorted representation."""
    tracker = _VisitedTracker(0)
    seen = {0}
    for hop in hops:
        flat = as_ids(hop)
        new = first_occurrences(flat[tracker.unseen(flat)], ordered=True,
                                stamp=tracker.stamp)
        tracker.add(new)
        expected = [v for v in hop if v not in seen and not seen.add(v)]
        assert new.tolist() == expected
        assert tracker.count == len(seen)
