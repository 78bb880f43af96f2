"""Unit tests of the input rules: budgets, strata, determinism."""

import pytest

import inputs
from repro.core.model import NestedSet


def _records(sizes):
    return [(f"k{i:03d}", NestedSet([f"a{i}_{j}" for j in range(size)]))
            for i, size in enumerate(sizes)]


def test_take_postings_stops_at_the_budget():
    records = _records([3, 4, 5, 6])
    assert [k for k, _ in inputs.take_postings(records, 7)] == ["k000", "k001"]
    assert len(inputs.take_postings(records, 8)) == 3
    with pytest.raises(ValueError):
        inputs.take_postings(records, 100)


def test_stratified_sample_takes_one_record_per_size_stratum():
    records = _records(range(1, 101))
    picked = inputs.stratified_sample(records, 10)
    assert [inputs.postings(tree) for _k, tree in picked] == \
        [6, 16, 26, 36, 46, 56, 66, 76, 86, 96]


def test_stratified_sample_closes_on_the_atom_total():
    records = _records(range(1, 101))
    picked = inputs.stratified_sample(records, 10, total_atoms=464)
    sizes = [inputs.postings(tree) for _k, tree in picked]
    assert sizes[:-1] == [6, 16, 26, 36, 46, 56, 66, 76, 86]
    assert sizes[-1] == 50 and sum(sizes) == 464
    # a size that is already picked is not picked twice
    again = inputs.stratified_sample(records, 10, total_atoms=450)
    assert len({key for key, _tree in again}) == 10
    assert abs(sum(inputs.postings(t) for _k, t in again) - 450) == 1


def test_paper_mix_alternates_and_balances_the_halves():
    records = _records(list(range(1, 101)) + [300, 400])
    mix = inputs.paper_mix(records, 20, seed=1, total_atoms=1000,
                           max_atoms=100)
    assert [query.positive for query in mix[:4]] == [True, False, True, False]
    assert len({query.key for query in mix}) == 20
    assert len({query.source_key for query in mix}) == 20
    positive = sum(inputs.postings(q.query) for q in mix if q.positive)
    negative = sum(inputs.postings(q.query) - 1 for q in mix
                   if not q.positive)
    assert abs(positive - 500) <= 1 and abs(negative - 500) <= 2
    assert max(inputs.postings(q.query) for q in mix) <= 101


def test_stratified_sample_rejects_oversampling():
    with pytest.raises(ValueError):
        inputs.stratified_sample(_records([1, 2]), 3)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = inputs.make_inputs(workload, 3, smoke=True)
    again = inputs.make_inputs(workload, 3, smoke=True)
    other = inputs.make_inputs(workload, 4, smoke=True)
    assert inputs.digest_inputs(first) == inputs.digest_inputs(again)
    assert inputs.digest_inputs(first) != inputs.digest_inputs(other)


@pytest.mark.parametrize("workload", ["point_uniform", "served_rw"])
def test_budgets_hold_from_seed_to_seed(workload):
    for seed in (1, 2, 3):
        made = inputs.make_inputs(workload, seed, smoke=True)
        total = sum(inputs.postings(tree) for _k, tree in made.records)
        budget = made.sizes["postings"]
        assert budget <= total < budget * 1.25
        atoms = sum(inputs.postings(read.query) for read in made.reads
                    if read.positive)
        atoms += sum(inputs.postings(read.query) - 1 for read in made.reads
                     if not read.positive)
        assert abs(atoms - made.sizes["read_atoms"]) <= 4
        assert max(inputs.postings(read.query) for read in made.reads) \
            <= inputs.MAX_QUERY_ATOMS + 1


def test_fresh_records_use_keys_outside_the_collection():
    made = inputs.make_inputs("skew_twitter", 1, smoke=True)
    keys = {key for key, _tree in made.records}
    assert not keys & {key for key, _tree in made.fresh}
    assert len(made.fresh_groups()[0]) == made.group


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        inputs.make_inputs("nope", 0)
