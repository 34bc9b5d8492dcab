"""Relation taxonomy: 11 types in 3 categories over 3 concept types.

Class indices follow the fixed table order below (confusion matrices and
probability vectors use the same order everywhere):

    TrIP TrWP TrCP TrAP TrNAP NTrP | TeRP TeCP NTeP | PIP NPP

The three N* types are the negative ("no relation") classes; the other
eight are positive.  Each relation type belongs to exactly one category,
determined by the concept-type pair (`CATEGORY_PAIR`): problem-treatment
(TrP), problem-test (TeP), problem-problem (PP).
"""

from __future__ import annotations

from enum import Enum
from typing import TypeVar


class ConceptType(str, Enum):
    PROBLEM = "problem"
    TREATMENT = "treatment"
    TEST = "test"


class Category(str, Enum):
    TRP = "TrP"
    TEP = "TeP"
    PP = "PP"


class RelationType(str, Enum):
    TRIP = "TrIP"
    TRWP = "TrWP"
    TRCP = "TrCP"
    TRAP = "TrAP"
    TRNAP = "TrNAP"
    NTRP = "NTrP"
    TERP = "TeRP"
    TECP = "TeCP"
    NTEP = "NTeP"
    PIP = "PIP"
    NPP = "NPP"


RELATION_TYPES: tuple[RelationType, ...] = tuple(RelationType)
N_CLASSES = len(RELATION_TYPES)

CLASS_INDEX: dict[RelationType, int] = {t: i for i, t in enumerate(RELATION_TYPES)}

CATEGORY_TYPES: dict[Category, tuple[RelationType, ...]] = {
    Category.TRP: (
        RelationType.TRIP,
        RelationType.TRWP,
        RelationType.TRCP,
        RelationType.TRAP,
        RelationType.TRNAP,
        RelationType.NTRP,
    ),
    Category.TEP: (RelationType.TERP, RelationType.TECP, RelationType.NTEP),
    Category.PP: (RelationType.PIP, RelationType.NPP),
}

CATEGORY_CLASS_IDS: dict[Category, tuple[int, ...]] = {
    cat: tuple(CLASS_INDEX[t] for t in types) for cat, types in CATEGORY_TYPES.items()
}

CATEGORY_OF: dict[RelationType, Category] = {
    t: cat for cat, types in CATEGORY_TYPES.items() for t in types
}

NEGATIVE_OF_CATEGORY: dict[Category, RelationType] = {
    Category.TRP: RelationType.NTRP,
    Category.TEP: RelationType.NTEP,
    Category.PP: RelationType.NPP,
}

NEGATIVE_TYPES = frozenset(NEGATIVE_OF_CATEGORY.values())
POSITIVE_TYPES: tuple[RelationType, ...] = tuple(
    t for t in RELATION_TYPES if t not in NEGATIVE_TYPES
)

# The concept types that make each category, in the order text writes them.
# Pairs without a medical problem (treatment-treatment, test-test,
# treatment-test) are not annotated in this scheme.
CATEGORY_PAIR: dict[Category, tuple[ConceptType, ConceptType]] = {
    Category.TRP: (ConceptType.TREATMENT, ConceptType.PROBLEM),
    Category.TEP: (ConceptType.TEST, ConceptType.PROBLEM),
    Category.PP: (ConceptType.PROBLEM, ConceptType.PROBLEM),
}
_CATEGORY_OF_PAIR = {frozenset(pair): cat for cat, pair in CATEGORY_PAIR.items()}


_E = TypeVar("_E", bound=Enum)
_MEMBERS: dict[type, dict[str, Enum]] = {
    cls: {m.value: m for m in cls} for cls in (ConceptType, RelationType)
}


def by_value(cls: type[_E], value) -> _E:
    """`cls(value)` as one dict lookup for ConceptType and RelationType, which
    the record readers look up per record.

    A value of no member still goes through `cls(value)`, which raises the
    enum's own ValueError (``'TrXP' is not a valid RelationType``).
    """
    try:
        return _MEMBERS[cls][value]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        return cls(value)


def category_for_pair(t1: ConceptType, t2: ConceptType) -> Category | None:
    """Category of a concept-type pair in either order (`CATEGORY_PAIR`), or
    None if the pair carries no relation."""
    return _CATEGORY_OF_PAIR.get(frozenset((t1, t2)))


def is_positive(t: RelationType) -> bool:
    return t not in NEGATIVE_TYPES
