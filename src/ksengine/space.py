"""Multi-dimensional classification spaces.

A space is an ordered list of named dimensions, each a rooted category tree,
plus resource placements assigning exactly one category per dimension. The
module also carries the normal-form checks (duplicate sibling names, dependent
dimension pairs, root-only dimensions), split/join/merge restructuring, and
the capacity comparison can_hold.
"""

from __future__ import annotations

import operator
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .errors import (
    AlreadyPlaced,
    DimensionNameClash,
    EmptySubset,
    FullSubset,
    MissingCoordinate,
    NonPositiveInput,
    UnknownCategory,
    UnknownDimension,
    UnknownResource,
)
from .record import Record
from .sln import check_id, check_str, check_text, fresh_id
from .taxonomy import CategoryTree


def can_hold(x: float, n: int) -> bool:
    """Whether an n-branch tree is at least as expressive as an x-branch one.

    Equivalent formulations: n >= x and n**n >= x**n agree for x > 0, n >= 1.
    """
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not x > 0:
        raise NonPositiveInput(f"x must be a positive number, got {x!r}")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise NonPositiveInput(f"n must be an integer >= 1, got {n!r}")
    return n >= x


class Dimension(Record):
    __slots__ = ("id", "name", "tree")

    def __init__(self, id: str, name: str, tree: Optional[CategoryTree] = None) -> None:
        self.id = id
        self.name = name
        self.tree = CategoryTree() if tree is None else tree

    @property
    def root(self) -> str:
        assert self.tree.root is not None
        return self.tree.root


class Space:
    """Ordered dimensions plus placements; dimension names are unique."""

    def __init__(self, name: str = "main") -> None:
        self.name = name
        self._dims: Dict[str, Dimension] = {}
        self._order: List[str] = []
        self._cat_owner: Dict[str, str] = {}  # category id -> dimension id
        self.placements: Dict[str, Dict[str, str]] = {}  # resource -> dim -> cat
        self._counters: Dict[str, int] = {}

    # ===== construction =====

    def dimensions(self) -> List[Dimension]:
        return [self._dims[d] for d in self._order]

    def dimension(self, dim_id: str) -> Dimension:
        try:
            return self._dims[dim_id]
        except KeyError:
            raise UnknownDimension(f"dimension {dim_id!r} not found", dim_id) from None

    def dimension_by_name(self, name: str) -> Dimension:
        for dim in self._dims.values():
            if dim.name == name:
                return dim
        raise UnknownDimension(f"no dimension named {name!r}")

    def resolve_dimension(self, token: str) -> Dimension:
        """Accept either a dimension id or a dimension name."""
        if token in self._dims:
            return self._dims[token]
        return self.dimension_by_name(token)

    def add_dimension(
        self,
        name: str,
        dim_id: Optional[str] = None,
        root_id: Optional[str] = None,
        root_name: Optional[str] = None,
        position: Optional[int] = None,
    ) -> Dimension:
        check_text(name, "dimension name")
        root_name = name if root_name is None else check_str(root_name, "category name")
        for dim in self._dims.values():
            if dim.name == name:
                raise DimensionNameClash(f"dimension name {name!r} already in use")
        if position is not None:  # refuse a non-integer before any id is claimed
            position = operator.index(position)
        if root_id is not None:  # refuse a bad root before a fresh dimension id is used up
            fresh_id(self._counters, "g", self._cat_owner, root_id, "category")
        dim_id = fresh_id(self._counters, "d", self._dims, dim_id, "dimension")
        dim = self._dims[dim_id] = Dimension(dim_id, name)
        if position is None:
            self._order.append(dim_id)
        else:
            self._order.insert(position, dim_id)
        self.add_category(dim_id, root_name, parent=None, cat_id=root_id)
        for point in self.placements.values():  # every point covers every dimension
            point[dim_id] = dim.root
        return dim

    def add_category(
        self,
        dim_id: str,
        name: str,
        parent: Optional[str],
        cat_id: Optional[str] = None,
    ) -> str:
        dim = self.dimension(dim_id)
        if parent is not None and parent not in dim.tree:
            raise UnknownCategory(
                f"parent {parent!r} not found in dimension {dim_id!r}", parent
            )
        check_str(name, "category name")  # before a fresh id is used up
        cat_id = fresh_id(self._counters, "g", self._cat_owner, cat_id, "category")
        dim.tree.add(cat_id, name, parent)
        self._cat_owner[cat_id] = dim_id
        return cat_id

    def add_tree(
        self, name: str, tree: CategoryTree, dim_id: Optional[str] = None
    ) -> Dict[str, str]:
        """Add a dimension holding a copy of tree; returns old -> new category ids.

        A dimension or category id already taken in this space gets a fresh
        one, handed out parent before child as topological_ids orders them.
        """
        if dim_id in self._dims:
            dim_id = None
        root, *below = tree.topological_ids()
        dim = self.add_dimension(
            name, dim_id, root_id=None if root in self._cat_owner else root,
            root_name=tree.get(root).name,
        )
        cat_map = {root: dim.root}
        for cat_id in below:
            node = tree.get(cat_id)
            cat_map[cat_id] = self.add_category(
                dim.id, node.name, cat_map[node.parent],
                None if cat_id in self._cat_owner else cat_id,
            )
        return cat_map

    # ===== placement =====

    def _check_coordinates(self, spec: Dict[str, str]) -> None:
        """Each (dimension, category) of spec names a category of that dimension."""
        for dim_id, cat_id in spec.items():
            if cat_id not in self.dimension(dim_id).tree:
                raise UnknownCategory(
                    f"category {cat_id!r} not in dimension {dim_id!r}", cat_id
                )

    def _check_point(self, point: Dict[str, str]) -> Dict[str, str]:
        """The point in dimension order; coordinates are checked before coverage."""
        self._check_coordinates(point)
        missing = [d for d in self._order if d not in point]
        if missing:
            raise MissingCoordinate(f"point lacks dimensions {missing}")
        return {d: point[d] for d in self._order}

    def place(
        self, resource: str, point: Dict[str, str], replace: bool = False
    ) -> None:
        check_id(resource, "resource id")
        clean = self._check_point(point)
        if resource in self.placements and not replace:
            raise AlreadyPlaced(f"resource {resource!r} already placed")
        self.placements[resource] = clean

    def project(self, resource: str, dim_id: str) -> str:
        self.dimension(dim_id)
        try:
            return self.placements[resource][dim_id]
        except KeyError:
            raise UnknownResource(f"resource {resource!r} not placed", resource) from None

    def locate(self, spec: Dict[str, str], mode: str = "exact") -> List[str]:
        """Resources matching every given coordinate; ascending resource ids.

        exact requires coordinate equality; subtree accepts any category at or
        below the specified one.
        """
        if mode not in ("exact", "subtree"):
            raise ValueError(f"mode must be 'exact' or 'subtree', got {mode!r}")
        self._check_coordinates(spec)
        hits = []
        for resource in sorted(self.placements):
            point = self.placements[resource]
            ok = True
            for dim_id, cat_id in spec.items():
                actual = point[dim_id]
                if mode == "exact":
                    if actual != cat_id:
                        ok = False
                        break
                else:
                    if not self._dims[dim_id].tree.is_within(actual, cat_id):
                        ok = False
                        break
            if ok:
                hits.append(resource)
        return hits

    # ===== normal forms =====

    def check_normal_forms(self) -> "NormalFormReport":
        duplicate_names: List[Tuple[str, str, str]] = []
        for dim_id in self._order:
            tree = self._dims[dim_id].tree
            for cat_id in tree.ids():
                seen: Dict[str, int] = {}
                for child in tree.children(cat_id):
                    seen[tree.get(child).name] = seen.get(tree.get(child).name, 0) + 1
                for name, count in sorted(seen.items()):
                    if count > 1:
                        duplicate_names.append((dim_id, cat_id, name))
        dependent: List[Tuple[str, str]] = []
        if self.placements:
            for di in self._order:
                for dj in self._order:
                    if di == dj:
                        continue
                    mapping: Dict[str, str] = {}
                    single_valued = True
                    for point in self.placements.values():
                        ci, cj = point[di], point[dj]
                        if ci in mapping and mapping[ci] != cj:
                            single_valued = False
                            break
                        mapping[ci] = cj
                    if single_valued and len(mapping) >= 2:
                        dependent.append((di, dj))
        trivial = [d for d in self._order if len(self._dims[d].tree) <= 1]
        return NormalFormReport(duplicate_names, dependent, trivial)

    # ===== restructuring =====

    def split(self, dim_tokens: Iterable[str]) -> Tuple["Space", "Space"]:
        """Partition the dimensions into (selected, rest) as two new spaces.

        Every resource is placed in both outputs with restricted coordinates.
        """
        selected = {self.resolve_dimension(tok).id for tok in dim_tokens}
        if not selected:
            raise EmptySubset("split needs at least one dimension")
        if selected == set(self._order):
            raise FullSubset("split must leave at least one dimension behind")
        part_a = self._restrict([d for d in self._order if d in selected], f"{self.name}.a")
        part_b = self._restrict([d for d in self._order if d not in selected], f"{self.name}.b")
        return part_a, part_b

    def _restrict(self, dim_ids: List[str], name: str) -> "Space":
        out = Space(name)
        for dim_id in dim_ids:
            src = self._dims[dim_id]
            out.add_tree(src.name, src.tree, dim_id)
        for resource, point in self.placements.items():
            out.placements[resource] = {d: point[d] for d in dim_ids}
        return out

    def merge_dimensions(self, tok1: str, tok2: str) -> str:
        """Replace two dimensions by one whose categories are observed pairs."""
        d1 = self.resolve_dimension(tok1)
        d2 = self.resolve_dimension(tok2)
        if d1.id == d2.id:
            raise UnknownDimension("merge needs two distinct dimensions")
        observed: List[Tuple[str, str]] = sorted(
            {(p[d1.id], p[d2.id]) for p in self.placements.values()}
        )
        merged_name = f"{d1.name}+{d2.name}"
        existing_names = {d.name for d in self._dims.values()} - {d1.name, d2.name}
        suffix = 2
        while merged_name in existing_names:
            merged_name = f"{d1.name}+{d2.name}.{suffix}"
            suffix += 1
        position = min(self._order.index(d1.id), self._order.index(d2.id))
        pair_points = {
            res: (p[d1.id], p[d2.id]) for res, p in self.placements.items()
        }
        names = {
            (c1, c2): f"{d1.tree.get(c1).name}|{d2.tree.get(c2).name}"
            for c1, c2 in observed
        }
        self._drop_dimension(d1.id)
        self._drop_dimension(d2.id)
        merged = self.add_dimension(merged_name, position=position)
        pair_cat: Dict[Tuple[str, str], str] = {}
        for c1, c2 in observed:
            pair_cat[(c1, c2)] = self.add_category(
                merged.id, names[(c1, c2)], parent=merged.root
            )
        for resource, pair in pair_points.items():
            self.placements[resource][merged.id] = pair_cat[pair]
        return merged.id

    def _drop_dimension(self, dim_id: str) -> None:
        dim = self._dims.pop(dim_id)
        self._order.remove(dim_id)
        for cat_id in dim.tree.ids():
            del self._cat_owner[cat_id]
        for point in self.placements.values():
            point.pop(dim_id, None)


class NormalFormReport(NamedTuple):
    """Violations found by check_normal_forms.

    duplicate_names rows are (dimension, parent category, duplicated name);
    dependent_dimensions rows are (determining, determined); trivial_dimensions
    lists dimensions holding only their root.
    """

    duplicate_names: List[Tuple[str, str, str]]
    dependent_dimensions: List[Tuple[str, str]]
    trivial_dimensions: List[str]

    @property
    def clean(self) -> bool:
        return not (
            self.duplicate_names or self.dependent_dimensions or self.trivial_dimensions
        )


def join_spaces(a: Space, b: Space) -> Tuple[Space, List[str]]:
    """Join two spaces over disjoint dimension names; a's dimensions first.

    Only resources placed in both survive; dropped ones come back in the
    warning list. Colliding engine ids on the right side are remapped.
    """
    names_a = {d.name for d in a.dimensions()}
    names_b = {d.name for d in b.dimensions()}
    clash = sorted(names_a & names_b)
    if clash:
        raise DimensionNameClash(f"dimension names in both spaces: {clash}")
    out = a._restrict(list(a._order), a.name)
    dim_map: Dict[str, str] = {}
    cat_map: Dict[str, str] = {}
    for dim in b.dimensions():
        cat_map.update(out.add_tree(dim.name, dim.tree, dim.id))
        dim_map[dim.id] = out.dimension_by_name(dim.name).id
    warnings: List[str] = []
    shared = set(a.placements) & set(b.placements)
    for resource in sorted(set(a.placements) - shared):
        del out.placements[resource]
        warnings.append(f"dropped {resource!r}: placed only in {a.name!r}")
    for resource in sorted(set(b.placements) - shared):
        warnings.append(f"dropped {resource!r}: placed only in {b.name!r}")
    for resource in sorted(shared):
        for dim_id, cat_id in b.placements[resource].items():
            out.placements[resource][dim_map[dim_id]] = cat_map[cat_id]
    return out, warnings
