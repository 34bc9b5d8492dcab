"""Tests for the label inventory: class order, categories, polarity."""

from __future__ import annotations

import pytest

from relcnn.relations import (
    CATEGORY_CLASS_IDS,
    CATEGORY_OF,
    CATEGORY_TYPES,
    CLASS_INDEX,
    N_CLASSES,
    NEGATIVE_OF_CATEGORY,
    NEGATIVE_TYPES,
    POSITIVE_TYPES,
    RELATION_TYPES,
    Category,
    ConceptType,
    RelationType,
    category_for_pair,
    is_positive,
)


def test_class_inventory_order():
    assert [t.value for t in RELATION_TYPES] == [
        "TrIP", "TrWP", "TrCP", "TrAP", "TrNAP", "NTrP",
        "TeRP", "TeCP", "NTeP", "PIP", "NPP",
    ]
    assert N_CLASSES == 11
    assert all(CLASS_INDEX[t] == i for i, t in enumerate(RELATION_TYPES))


def test_polarity_partition():
    assert NEGATIVE_TYPES == {RelationType.NTRP, RelationType.NTEP, RelationType.NPP}
    assert set(POSITIVE_TYPES) | NEGATIVE_TYPES == set(RELATION_TYPES)
    assert len(POSITIVE_TYPES) == 8
    assert not any(is_positive(t) for t in NEGATIVE_TYPES)
    assert all(is_positive(t) for t in POSITIVE_TYPES)


def test_category_class_ids_contiguous_blocks():
    assert CATEGORY_CLASS_IDS[Category.TRP] == (0, 1, 2, 3, 4, 5)
    assert CATEGORY_CLASS_IDS[Category.TEP] == (6, 7, 8)
    assert CATEGORY_CLASS_IDS[Category.PP] == (9, 10)
    for cat, ids in CATEGORY_CLASS_IDS.items():
        assert tuple(CLASS_INDEX[t] for t in CATEGORY_TYPES[cat]) == ids


def test_category_of_covers_all_types():
    for t in RELATION_TYPES:
        assert t in CATEGORY_TYPES[CATEGORY_OF[t]]
    for cat, neg in NEGATIVE_OF_CATEGORY.items():
        assert CATEGORY_OF[neg] == cat
        assert neg in NEGATIVE_TYPES


@pytest.mark.parametrize(
    "t1,t2,expected",
    [
        (ConceptType.TREATMENT, ConceptType.PROBLEM, Category.TRP),
        (ConceptType.PROBLEM, ConceptType.TREATMENT, Category.TRP),
        (ConceptType.TEST, ConceptType.PROBLEM, Category.TEP),
        (ConceptType.PROBLEM, ConceptType.TEST, Category.TEP),
        (ConceptType.PROBLEM, ConceptType.PROBLEM, Category.PP),
        (ConceptType.TEST, ConceptType.TEST, None),
        (ConceptType.TREATMENT, ConceptType.TREATMENT, None),
        (ConceptType.TEST, ConceptType.TREATMENT, None),
        (ConceptType.TREATMENT, ConceptType.TEST, None),
    ],
)
def test_category_for_pair(t1, t2, expected):
    assert category_for_pair(t1, t2) == expected
