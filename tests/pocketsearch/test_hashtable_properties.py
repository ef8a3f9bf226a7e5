"""Property-based tests for the query hash table."""

from hypothesis import given, settings, strategies as st

from repro.pocketsearch.hashtable import QueryHashTable

queries = st.text(alphabet="abcdefg ", min_size=1, max_size=8)
results = st.integers(min_value=0, max_value=30)
scores = st.floats(min_value=0, max_value=10, allow_nan=False)


@given(
    ops=st.lists(st.tuples(queries, results, scores), max_size=60),
    width=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_table_matches_reference_dict(ops, width):
    """The hash table behaves like a dict of {query: {result: max score}}."""
    table = QueryHashTable(results_per_entry=width)
    reference = {}
    for query, result, score in ops:
        table.insert(query, result, score)
        bucket = reference.setdefault(query, {})
        bucket[result] = max(bucket.get(result, 0.0), score)
    for query, bucket in reference.items():
        looked = table.lookup(query)
        assert looked is not None
        assert dict(looked) == bucket
        # Ranked descending by score.
        ranked = [s for _, s in looked]
        assert all(b <= a for a, b in zip(ranked, ranked[1:]))
    assert table.n_pairs == sum(len(b) for b in reference.values())


@given(
    ops=st.lists(st.tuples(queries, results, scores), min_size=1, max_size=40),
    removals=st.lists(st.tuples(queries, results), max_size=20),
)
@settings(max_examples=60, deadline=None)
def test_remove_is_consistent(ops, removals):
    table = QueryHashTable(results_per_entry=2)
    reference = {}
    for query, result, score in ops:
        table.insert(query, result, score)
        bucket = reference.setdefault(query, {})
        bucket[result] = max(bucket.get(result, 0.0), score)
    for query, result in removals:
        existed = result in reference.get(query, {})
        assert table.remove(query, result) == existed
        if existed:
            del reference[query][result]
    for query, bucket in reference.items():
        looked = table.lookup(query)
        assert dict(looked or []) == bucket


@given(ops=st.lists(st.tuples(queries, results, scores), max_size=50))
@settings(max_examples=60, deadline=None)
def test_footprint_accounts_every_pair(ops):
    """Entries are exactly the slots needed: ceil(results/width) per query."""
    table = QueryHashTable(results_per_entry=2)
    reference = {}
    for query, result, score in ops:
        table.insert(query, result, score)
        reference.setdefault(query, set()).add(result)
    expected_entries = sum(-(-len(r) // 2) for r in reference.values())
    assert table.n_entries == expected_entries


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "remove", "clone"]),
            queries,
            results,
            scores,
        ),
        max_size=60,
    ),
    width=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=100, deadline=None)
def test_serialized_len_matches_blob(ops, width):
    """The wire length is computed without building the blob, on the
    table and on clones that share entries with it."""
    tables = [QueryHashTable(results_per_entry=width)]
    for op, query, result, score in ops:
        table = tables[-1]
        if op == "insert":
            table.insert(query, result, score)
        elif op == "remove":
            table.remove(query, result)
        else:
            tables.append(table.clone())
        for t in tables:
            assert t.serialized_len() == len(t.serialize())
