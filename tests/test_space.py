"""Dimensions, placement, normal forms, restructuring, and capacity."""

import random

import pytest

from ksengine.errors import (
    AlreadyPlaced,
    DimensionNameClash,
    DuplicateId,
    EmptySubset,
    FullSubset,
    InvalidId,
    InvalidRep,
    MissingCoordinate,
    NonPositiveInput,
    UnknownCategory,
    UnknownDimension,
    UnknownResource,
)
from ksengine.ksif import export_state, import_state
from ksengine.space import Space, can_hold, join_spaces
from ksengine.state import EngineState

import oracles
from generators import random_space, space_as_tables


def small_space():
    """Two dimensions with a couple of levels and three placed resources."""
    space = Space()
    topic = space.add_dimension("topic")
    tech = space.add_category(topic.id, "tech", topic.root)
    ai = space.add_category(topic.id, "ai", tech)
    arts = space.add_category(topic.id, "arts", topic.root)
    year = space.add_dimension("year")
    y1 = space.add_category(year.id, "1936", year.root)
    y2 = space.add_category(year.id, "1950", year.root)
    space.place("paper1", {topic.id: ai, year.id: y1})
    space.place("paper2", {topic.id: tech, year.id: y2})
    space.place("paper3", {topic.id: arts, year.id: y2})
    return space, topic, year, {"tech": tech, "ai": ai, "arts": arts, "y1": y1, "y2": y2}


def test_can_hold_is_the_order_comparison():
    assert can_hold(2.0, 2)
    assert can_hold(2.0, 3)
    assert not can_hold(3.0, 2)
    assert can_hold(2.718281828459045, 3)
    assert not can_hold(2.718281828459045, 2)


def test_can_hold_rejects_bad_input():
    with pytest.raises(NonPositiveInput):
        can_hold(0.0, 3)
    with pytest.raises(NonPositiveInput):
        can_hold(-1.0, 3)
    with pytest.raises(NonPositiveInput):
        can_hold(2.0, 0)
    with pytest.raises(NonPositiveInput):
        can_hold(2.0, 2.5)
    with pytest.raises(NonPositiveInput):
        can_hold(True, 2)


def test_can_hold_agrees_with_exact_power_comparison():
    for x in (2.0, 2.718281828459045, 3.0, 0.5, 1.0, 7.25):
        for n in range(1, 11):
            assert can_hold(x, n) == (n >= x)
            assert can_hold(x, n) == oracles.capacity_exact(x, n)


def test_duplicate_dimension_name_rejected():
    space = Space()
    space.add_dimension("topic")
    with pytest.raises(DimensionNameClash):
        space.add_dimension("topic")


def test_dimension_name_must_be_non_empty():
    # KSIF import refuses an empty dimension name, so the mutator does too.
    space = Space()
    with pytest.raises(InvalidRep, match="dimension name '' must be non-empty text"):
        space.add_dimension("")
    assert space.dimensions() == []


def test_category_ids_unique_across_space():
    space = Space()
    d1 = space.add_dimension("one")
    d2 = space.add_dimension("two")
    space.add_category(d1.id, "x", d1.root, cat_id="shared")
    with pytest.raises(Exception):
        space.add_category(d2.id, "y", d2.root, cat_id="shared")


@pytest.mark.parametrize("dim_id", [None, "year"])
@pytest.mark.parametrize("root_id, error", [("g000001", DuplicateId), ("no spaces", InvalidId)])
def test_refused_root_leaves_no_dimension_behind(dim_id, root_id, error):
    """A taken or invalid root id refuses the whole dimension: no rootless
    dimension stays behind to break place or the state's re-import, and no
    fresh dimension id is used up."""
    space = Space()
    topic = space.add_dimension("topic")
    state = EngineState(space=space)
    before = export_state(state)
    with pytest.raises(error):
        space.add_dimension("year", dim_id, root_id=root_id)
    assert space.dimensions() == [topic]
    after = export_state(state)
    import_state(after)
    assert after == before
    year = space.add_dimension("year")
    assert (year.id, year.root) == ("d000002", "g000002")


def test_category_parent_must_be_in_same_dimension():
    space = Space()
    d1 = space.add_dimension("one")
    d2 = space.add_dimension("two")
    with pytest.raises(UnknownCategory):
        space.add_category(d2.id, "stray", d1.root)


def test_place_requires_full_point():
    space, topic, year, cats = small_space()
    with pytest.raises(MissingCoordinate):
        space.place("r1", {topic.id: cats["ai"]})
    with pytest.raises(UnknownDimension):
        space.place("r1", {topic.id: cats["ai"], year.id: cats["y1"], "ghost": "x"})
    with pytest.raises(UnknownCategory):
        space.place("r1", {topic.id: cats["y1"], year.id: cats["y1"]})
    with pytest.raises(AlreadyPlaced):
        space.place("paper1", {topic.id: cats["ai"], year.id: cats["y1"]})
    space.place("paper1", {topic.id: cats["arts"], year.id: cats["y1"]}, replace=True)
    assert space.project("paper1", topic.id) == cats["arts"]


def test_new_dimension_places_every_placed_resource_at_its_root():
    """Every point covers every dimension, so a space with placements still
    exports a state that imports after a dimension is added."""
    space, topic, year, cats = small_space()
    added = space.add_dimension("venue", position=0)
    assert [space.project(r, added.id) for r in sorted(space.placements)] == [added.root] * 3
    assert space.locate({added.id: added.root, topic.id: cats["ai"]}) == ["paper1"]
    state = EngineState(space=space)
    text = export_state(state)
    assert export_state(import_state(text)) == text


def test_locate_refuses_an_unknown_dimension():
    space, _topic, _year, cats = small_space()
    with pytest.raises(UnknownDimension, match="^dimension 'ghost' not found$"):
        space.locate({"ghost": cats["ai"]})


def test_project_unknown_resource():
    space, topic, _, _ = small_space()
    with pytest.raises(UnknownResource):
        space.project("nobody", topic.id)


def test_locate_exact_and_subtree():
    space, topic, year, cats = small_space()
    assert space.locate({topic.id: cats["ai"]}) == ["paper1"]
    assert space.locate({topic.id: cats["tech"]}) == ["paper2"]
    assert space.locate({topic.id: cats["tech"]}, mode="subtree") == ["paper1", "paper2"]
    assert space.locate({topic.id: topic.root}, mode="subtree") == [
        "paper1", "paper2", "paper3",
    ]
    assert space.locate({topic.id: cats["tech"], year.id: cats["y2"]},
                        mode="subtree") == ["paper2"]
    with pytest.raises(UnknownCategory):
        space.locate({topic.id: cats["y1"]})
    with pytest.raises(ValueError):
        space.locate({topic.id: cats["ai"]}, mode="fuzzy")


def test_locate_matches_brute_filter():
    rng = random.Random(625)
    for _ in range(25):
        space = random_space(rng, max_resources=20)
        order, placements, parent_of = space_as_tables(space)
        for _ in range(5):
            dims = rng.sample(order, k=rng.randint(1, len(order)))
            spec = {
                d: rng.choice(space.dimension(d).tree.ids()) for d in dims
            }
            for mode in ("exact", "subtree"):
                got = space.locate(spec, mode=mode)
                want = oracles.brute_locate(placements, parent_of, spec, mode)
                assert got == want


def test_normal_form_duplicate_sibling_names():
    space = Space()
    dim = space.add_dimension("topic")
    space.add_category(dim.id, "same", dim.root)
    space.add_category(dim.id, "same", dim.root)
    report = space.check_normal_forms()
    assert (dim.id, dim.root, "same") in report.duplicate_names
    assert not report.clean


def test_normal_form_dependency_detected():
    space = Space()
    d1 = space.add_dimension("lang")
    d2 = space.add_dimension("family")
    fr = space.add_category(d1.id, "fr", d1.root)
    de = space.add_category(d1.id, "de", d1.root)
    rom = space.add_category(d2.id, "romance", d2.root)
    ger = space.add_category(d2.id, "germanic", d2.root)
    space.place("r1", {d1.id: fr, d2.id: rom})
    space.place("r2", {d1.id: de, d2.id: ger})
    space.place("r3", {d1.id: fr, d2.id: rom})
    report = space.check_normal_forms()
    assert (d1.id, d2.id) in report.dependent_dimensions
    got = set(report.dependent_dimensions)
    want = set(oracles.brute_dependent_pairs(*space_as_tables(space)[:2]))
    assert got == want


def test_normal_form_two_witness_counterexample():
    space = Space()
    d1 = space.add_dimension("lang")
    d2 = space.add_dimension("family")
    fr = space.add_category(d1.id, "fr", d1.root)
    de = space.add_category(d1.id, "de", d1.root)
    rom = space.add_category(d2.id, "romance", d2.root)
    ger = space.add_category(d2.id, "germanic", d2.root)
    space.place("r1", {d1.id: fr, d2.id: rom})
    space.place("r2", {d1.id: fr, d2.id: ger})  # same key, two values
    space.place("r3", {d1.id: de, d2.id: ger})
    report = space.check_normal_forms()
    assert (d1.id, d2.id) not in report.dependent_dimensions


def test_normal_form_needs_two_observed_keys():
    space = Space()
    d1 = space.add_dimension("lang")
    d2 = space.add_dimension("family")
    fr = space.add_category(d1.id, "fr", d1.root)
    rom = space.add_category(d2.id, "romance", d2.root)
    space.place("r1", {d1.id: fr, d2.id: rom})
    report = space.check_normal_forms()
    assert report.dependent_dimensions == []


def test_normal_form_trivial_dimensions():
    space = Space()
    space.add_dimension("empty")
    report = space.check_normal_forms()
    assert report.trivial_dimensions == [space.dimension_by_name("empty").id]


def test_split_validates_subset():
    space, topic, year, _ = small_space()
    with pytest.raises(EmptySubset):
        space.split([])
    with pytest.raises(FullSubset):
        space.split(["topic", "year"])


def test_split_partitions_dimensions_and_placements():
    space, topic, year, cats = small_space()
    selected, rest = space.split(["topic"])
    assert [d.id for d in selected.dimensions()] == [topic.id]
    assert [d.id for d in rest.dimensions()] == [year.id]
    assert set(selected.placements) == {"paper1", "paper2", "paper3"}
    assert selected.placements["paper1"] == {topic.id: cats["ai"]}
    assert rest.placements["paper1"] == {year.id: cats["y1"]}
    # the original is untouched
    assert len(space.dimensions()) == 2


def test_join_restores_split():
    space, topic, year, _ = small_space()
    selected, rest = space.split(["year"])
    joined, warnings = join_spaces(selected, rest)
    assert warnings == []
    assert {d.name for d in joined.dimensions()} == {"topic", "year"}
    assert joined.placements == space.placements


def test_split_and_join_results_share_no_trees():
    space, topic, year, _ = small_space()
    selected, rest = space.split(["topic"])
    joined, _warnings = join_spaces(rest, selected)
    spaces = (space, selected, rest, joined)

    def rows():
        return [[dim.tree.to_rows() for dim in s.dimensions()] for s in spaces]

    for grown in spaces[1:]:
        before = rows()
        for dim in grown.dimensions():
            grown.add_category(dim.id, "extra", dim.root)
        after = rows()
        for s, old, new in zip(spaces, before, after):
            assert (old == new) == (s is not grown)


def test_join_rejects_shared_names():
    a = Space("a")
    a.add_dimension("topic")
    b = Space("b")
    b.add_dimension("topic")
    with pytest.raises(DimensionNameClash):
        join_spaces(a, b)


def test_join_remaps_colliding_ids():
    a = Space("a")
    da = a.add_dimension("left")
    ca = a.add_category(da.id, "one", da.root)
    a.place("r1", {da.id: ca})
    b = Space("b")
    db = b.add_dimension("right")  # same engine ids as in a
    cb = b.add_category(db.id, "two", db.root)
    b.place("r1", {db.id: cb})
    assert da.id == db.id
    joined, warnings = join_spaces(a, b)
    assert warnings == []
    assert {d.name for d in joined.dimensions()} == {"left", "right"}
    right = joined.dimension_by_name("right")
    assert right.id != da.id
    point = joined.placements["r1"]
    assert point[da.id] == ca
    assert joined.dimension_by_name("right").tree.get(point[right.id]).name == "two"


def test_join_drops_one_sided_resources():
    a = Space("a")
    da = a.add_dimension("left")
    ca = a.add_category(da.id, "one", da.root)
    a.place("both", {da.id: ca})
    a.place("only_a", {da.id: ca})
    b = Space("b")
    db = b.add_dimension("right")
    cb = b.add_category(db.id, "two", db.root)
    b.place("both", {db.id: cb})
    b.place("only_b", {db.id: cb})
    joined, warnings = join_spaces(a, b)
    assert set(joined.placements) == {"both"}
    assert len(warnings) == 2
    assert any("only_a" in w for w in warnings)
    assert any("only_b" in w for w in warnings)


def test_merge_dimensions_builds_observed_pairs():
    space, topic, year, cats = small_space()
    merged_id = space.merge_dimensions("topic", "year")
    merged = space.dimension(merged_id)
    assert merged.name == "topic+year"
    assert [d.id for d in space.dimensions()] == [merged_id]
    pair_names = {
        merged.tree.get(c).name for c in merged.tree.ids() if c != merged.root
    }
    assert pair_names == {"ai|1936", "tech|1950", "arts|1950"}
    assert space.project("paper1", merged_id) != space.project("paper2", merged_id)
    report_cats = {space.project(r, merged_id) for r in ("paper1", "paper2", "paper3")}
    assert len(report_cats) == 3


def test_merge_keeps_min_position_and_uniquifies_name():
    space = Space()
    a = space.add_dimension("a")
    b = space.add_dimension("b")
    space.add_dimension("a+b")  # force the uniquifier
    ca = space.add_category(a.id, "x", a.root)
    cb = space.add_category(b.id, "y", b.root)
    space.place("r", {a.id: ca, b.id: cb, space.dimension_by_name("a+b").id:
                      space.dimension_by_name("a+b").root})
    merged_id = space.merge_dimensions(a.id, b.id)
    assert space.dimension(merged_id).name == "a+b.2"
    assert [d.id for d in space.dimensions()][0] == merged_id
