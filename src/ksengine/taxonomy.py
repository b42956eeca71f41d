"""Rooted category trees, shared by the semantic network and the space module,
and the engine's id check and its text check (check_str), which both use."""

from __future__ import annotations

import re
from typing import Dict, List, NamedTuple, Optional, Tuple

from .errors import (
    DanglingReference,
    DuplicateId,
    InvalidId,
    InvalidRep,
    KsError,
    MalformedTree,
    MultipleRoots,
)

ID_PATTERN = re.compile(r"[A-Za-z0-9_.\-]+\Z")  # \Z: $ allows a final newline


def check_id(token: str, what: str = "id") -> str:
    if not isinstance(token, str) or not ID_PATTERN.match(token):
        raise InvalidId(f"{what} {token!r} must match [A-Za-z0-9_.-]+")
    return token


def check_str(text: str, what: str = "text") -> str:
    """Text that may be empty: a sentence, a statement, an entry or a name."""
    if not isinstance(text, str):
        raise InvalidRep(f"{what} {text!r} must be text")
    return text


def _at(cat_id: str, exc: KsError) -> KsError:
    exc.category = cat_id
    return exc


class CategoryNode(NamedTuple):
    id: str
    name: str
    parent: Optional[str]  # None marks the root


class CategoryTree:
    """A single-rooted tree of named categories.

    Sibling name uniqueness is deliberately NOT enforced here: duplicate
    sibling names are a reportable normal-form violation, not a construction
    error.
    """

    def __init__(self) -> None:
        self._nodes: Dict[str, CategoryNode] = {}
        self._children: Dict[str, List[str]] = {}
        self.root: Optional[str] = None

    def __contains__(self, cat_id: str) -> bool:
        return cat_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def get(self, cat_id: str) -> CategoryNode:
        return self._nodes[cat_id]

    def ids(self) -> List[str]:
        return sorted(self._nodes)

    def add(self, cat_id: str, name: str, parent: Optional[str]) -> CategoryNode:
        check_id(cat_id, "category id")
        check_str(name, "category name")
        if cat_id in self._nodes:
            raise DuplicateId(f"category {cat_id!r} already exists")
        if parent is None:
            if self.root is not None:
                raise MultipleRoots(
                    f"tree already rooted at {self.root!r}, cannot add root {cat_id!r}"
                )
            self.root = cat_id
        elif parent not in self._nodes:
            raise DanglingReference(parent, f"parent of category {cat_id!r}")
        node = CategoryNode(cat_id, name, parent)
        self._nodes[cat_id] = node
        if parent is not None:
            self._children.setdefault(parent, []).append(cat_id)
        return node

    def parent(self, cat_id: str) -> Optional[str]:
        return self._nodes[cat_id].parent

    def children(self, cat_id: str) -> List[str]:
        return sorted(self._children.get(cat_id, ()))

    def is_within(self, cat_id: str, ancestor: str) -> bool:
        """True when cat_id equals ancestor or sits below it."""
        cur: Optional[str] = cat_id
        while cur is not None:
            if cur == ancestor:
                return True
            cur = self._nodes[cur].parent
        return False

    def topological_ids(self) -> List[str]:
        """Ids in parent-before-child order (root first, siblings sorted)."""
        if self.root is None:
            return []
        out: List[str] = []
        stack = [self.root]
        while stack:
            cur = stack.pop()
            out.append(cur)
            stack.extend(reversed(self.children(cur)))
        return out

    def to_rows(self) -> List[Tuple[str, Optional[str], str]]:
        return [
            (n.id, n.parent, n.name)
            for n in sorted(self._nodes.values(), key=lambda n: n.id)
        ]

    @classmethod
    def from_rows(cls, rows) -> "CategoryTree":
        """Build a tree from (id, parent_or_None, name) rows in any order.

        Raises MultipleRoots for a second root, MalformedTree for a rootless
        or disconnected structure, and DanglingReference (as `add` does) for
        an absent parent. The error's `category` names the row at fault (the
        first row of a rootless tree), so a caller that knows where each row
        came from can say where.
        """
        rows = list(rows)
        if not rows:
            return cls()
        by_id = {}
        root = None
        for cat_id, parent, name in rows:
            if cat_id in by_id:
                raise _at(cat_id, DuplicateId(f"category {cat_id!r} defined twice"))
            by_id[cat_id] = (parent, name)
            if parent is None:
                if root is not None:
                    raise _at(cat_id, MultipleRoots(f"both {root!r} and {cat_id!r} are roots"))
                root = cat_id
        if root is None:
            raise _at(rows[0][0], MalformedTree("no root category (every node has a parent)"))
        children: Dict[str, List[str]] = {}
        for cat_id, (parent, _name) in by_id.items():
            if parent is None:
                continue
            if parent not in by_id:
                raise _at(cat_id, DanglingReference(parent, f"parent of category {cat_id!r}"))
            children.setdefault(parent, []).append(cat_id)
        # One walk down from the root; whatever it misses is stray (a cycle).
        tree = cls()
        tree.add(root, by_id[root][1], None)
        frontier = [root]
        while frontier:
            cur = frontier.pop()
            for child in children.get(cur, ()):
                tree.add(child, by_id[child][1], cur)
                frontier.append(child)
        if len(tree) != len(by_id):
            stray = sorted(c for c in by_id if c not in tree)
            raise _at(stray[0], MalformedTree(f"categories not reachable from root: {stray}"))
        return tree
