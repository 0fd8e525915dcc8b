"""Invariants of the transitivity path search and of ``Task``.

``TrustTransitivity._search`` extends each path's chain trust by one
Eq. 7 combine and carries the ω1 flag on its stack.  Whatever it
returns must equal the whole-path recomputation: the hop trusts along
the path, folded with ``combine_chain``, and the ω gates applied to
those hops.
"""

import dataclasses
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.task import Task
from repro.core.transitivity import (
    MappingKnowledge,
    TrustTransitivity,
    _edge_trust_for,
    combine_chain,
)

CHARACTERISTICS = ("a", "b", "c", "d")
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def task_args(draw):
    chars = draw(st.lists(
        st.sampled_from(CHARACTERISTICS), min_size=1, max_size=4,
        unique=True,
    ))
    weights = draw(st.one_of(
        st.none(),
        st.fixed_dictionaries({
            ch: st.floats(min_value=0.01, max_value=5.0) for ch in chars
        }),
    ))
    name = draw(st.sampled_from(("t0", "t1", "t2")))
    return name, chars, weights


def tasks():
    return task_args().map(lambda args: Task(*args))


@st.composite
def knowledge(draw, max_nodes=7):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    edges = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1), tasks(), unit,
    ).filter(lambda edge: edge[0] != edge[1])
    mapping = MappingKnowledge()
    for holder, about, task, trust in draw(st.lists(edges, max_size=4 * n)):
        mapping.add_experience(holder, about, task, trust)
    return mapping


class TestSearchInvariants:
    @given(
        knowledge(), tasks(), unit, unit,
        st.integers(min_value=1, max_value=4), st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_assessments_match_whole_path_recomputation(
        self, mapping, task, omega_recommend, omega_execute, max_depth,
        singleton,
    ):
        engine = TrustTransitivity(
            knowledge=mapping,
            omega_recommend=omega_recommend,
            omega_execute=omega_execute,
            max_depth=max_depth,
        )
        requirements = (
            [frozenset((ch,)) for ch in sorted(task.characteristics)]
            if singleton else [frozenset(task.characteristics)]
        )
        for required in requirements:
            assessments = engine._search(0, task, required, set())
            for assessment in assessments:
                path = assessment.path
                assert path[0] == 0 and len(set(path)) == len(path)
                assert 2 <= len(path) <= max_depth + 1
                hops = [
                    _edge_trust_for(mapping.experienced(u, v), required)
                    for u, v in zip(path, path[1:])
                ]
                assert None not in hops
                assert assessment.trust.value == combine_chain(hops)
                assert assessment.trust.direct == (len(hops) == 1)
                admitted = (
                    all(hop >= omega_recommend for hop in hops[:-1])
                    and hops[-1] >= omega_execute
                )
                assert assessment.admitted == admitted
                assert assessment.reason == (
                    "" if admitted else "omega gate failed"
                )
                assert assessment.characteristics == required


class TestTaskLookup:
    @given(tasks())
    def test_weight_map_is_a_fresh_dict(self, task):
        first = task.weight_map
        first["zzz"] = 1.0
        first.clear()
        assert task.weight_map == dict(task.weights)
        assert task.weight_map is not task.weight_map

    @given(tasks())
    def test_weight_of_matches_weight_map(self, task):
        for ch in CHARACTERISTICS:
            assert task.weight_of(ch) == task.weight_map.get(ch, 0.0)

    @given(task_args())
    def test_eq_hash_repr_and_pickle_round_trip(self, args):
        task = Task(*args)
        twin = Task(*args)
        assert twin == task and hash(twin) == hash(task)
        assert repr(task) == (
            f"Task({task.name!r}, {{{','.join(sorted(task.characteristics))}}})"
        )
        restored = pickle.loads(pickle.dumps(task))
        assert restored == task and hash(restored) == hash(task)
        assert repr(restored) == repr(task)
        assert restored.weight_map == task.weight_map
        for ch in CHARACTERISTICS:
            assert restored.weight_of(ch) == task.weight_of(ch)

    def test_lookup_is_not_a_dataclass_field(self):
        names = [f.name for f in dataclasses.fields(Task)]
        assert names == ["name", "characteristics", "weights"]
        assert Task("x", ["a"]) != Task("y", ["a"])
