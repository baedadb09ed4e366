"""Integration tests: the query processor (decomposition, access paths,
target lists, unique, into)."""

import pytest

from repro.errors import ExecutionError, TQuelSemanticError


@pytest.fixture
def shop(db):
    db.execute("create parts (pnum = i4, pname = c12, weight = i4)")
    db.execute("create supply (snum = i4, pnum = i4, qty = i4)")
    db.execute("range of p is parts")
    db.execute("range of s is supply")
    for pnum, pname, weight in (
        (1, "bolt", 5), (2, "nut", 3), (3, "washer", 1), (4, "cam", 20),
    ):
        db.execute(
            f'append to parts (pnum = {pnum}, pname = "{pname}", '
            f"weight = {weight})"
        )
    for snum, pnum, qty in (
        (10, 1, 100), (10, 2, 50), (20, 1, 30), (20, 4, 70),
    ):
        db.execute(
            f"append to supply (snum = {snum}, pnum = {pnum}, qty = {qty})"
        )
    return db


class TestTargetLists:
    def test_expressions_in_targets(self, shop):
        result = shop.execute(
            "retrieve (p.pname, grams = p.weight * 1000) where p.pnum = 1"
        )
        assert result.rows == [("bolt", 5000)]
        assert result.columns == ["pname", "grams"]

    def test_constant_target(self, shop):
        result = shop.execute('retrieve (tag = "x", p.pnum) where p.pnum = 2')
        assert result.rows == [("x", 2)]

    def test_arithmetic_division_truncates(self, shop):
        result = shop.execute("retrieve (half = p.weight / 2) where p.pnum = 1")
        assert result.rows == [(2,)]

    def test_unary_minus(self, shop):
        result = shop.execute("retrieve (n = -p.weight) where p.pnum = 2")
        assert result.rows == [(-3,)]

    def test_division_by_zero_raises(self, shop):
        with pytest.raises(ExecutionError):
            shop.execute("retrieve (x = p.weight / 0)")


class TestPredicates:
    def test_comparison_operators(self, shop):
        heavy = shop.execute("retrieve (p.pname) where p.weight >= 5")
        assert sorted(r[0] for r in heavy.rows) == ["bolt", "cam"]
        light = shop.execute("retrieve (p.pname) where p.weight < 3")
        assert [r[0] for r in light.rows] == ["washer"]

    def test_not_equal(self, shop):
        result = shop.execute("retrieve (p.pnum) where p.pname != \"nut\"")
        assert len(result.rows) == 3

    def test_or_predicate(self, shop):
        result = shop.execute(
            "retrieve (p.pname) where p.pnum = 1 or p.weight = 1"
        )
        assert sorted(r[0] for r in result.rows) == ["bolt", "washer"]

    def test_not_predicate(self, shop):
        result = shop.execute(
            "retrieve (p.pname) where not (p.weight > 3)"
        )
        assert sorted(r[0] for r in result.rows) == ["nut", "washer"]

    def test_string_comparison(self, shop):
        result = shop.execute('retrieve (p.pnum) where p.pname = "cam"')
        assert result.rows == [(4,)]


class TestJoins:
    def test_two_variable_join(self, shop):
        result = shop.execute(
            "retrieve (s.snum, p.pname) where s.pnum = p.pnum "
            "and s.qty > 60"
        )
        assert sorted(result.rows) == [(10, "bolt"), (20, "cam")]

    def test_join_uses_keyed_inner_when_available(self, shop):
        shop.execute("modify parts to hash on pnum")
        result = shop.execute(
            "retrieve (s.snum, p.pname) where s.pnum = p.pnum"
        )
        assert len(result.rows) == 4

    def test_self_join(self, shop):
        shop.execute("range of q is parts")
        result = shop.execute(
            "retrieve (p.pname, q.pname) "
            "where p.weight = q.weight and p.pnum != q.pnum"
        )
        assert result.rows == []

    def test_three_variable_join(self, shop):
        shop.execute("create supplier (snum = i4, city = c12)")
        shop.execute('append to supplier (snum = 10, city = "chapelhill")')
        shop.execute('append to supplier (snum = 20, city = "durham")')
        shop.execute("range of u is supplier")
        result = shop.execute(
            "retrieve (u.city, p.pname) "
            "where u.snum = s.snum and s.pnum = p.pnum and p.pnum = 4"
        )
        assert result.rows == [("durham", "cam")]

    def test_join_with_detachment_projects_temporary(self, shop):
        # The one-variable clause on s detaches it into a temporary.
        result = shop.execute(
            "retrieve (p.pname, s.qty) "
            "where s.qty > 60 and s.pnum = p.pnum"
        )
        assert sorted(result.rows) == [("bolt", 100), ("cam", 70)]

    def test_cartesian_product(self, shop):
        result = shop.execute("retrieve (p.pnum, s.snum)")
        assert len(result.rows) == 16

    def test_variable_only_in_where(self, shop):
        # s appears in the qualification only: still a join (semi-join
        # effect with duplicates per match).
        result = shop.execute(
            "retrieve (p.pname) where s.pnum = p.pnum and s.qty > 90"
        )
        assert [row[0] for row in result.rows] == ["bolt"]

    def test_self_insert_select_no_halloween(self, shop):
        # Appending rows computed from the same relation must not feed on
        # its own insertions (inserts are deferred).
        shop.execute(
            "append to parts (pnum = p.pnum + 100, pname = p.pname) "
            "where p.weight > 3"
        )
        result = shop.execute("retrieve (p.pnum)")
        assert len(result.rows) == 6  # 4 originals + 2 copies


class TestUniqueAndInto:
    def test_unique_removes_duplicates(self, shop):
        plain = shop.execute("retrieve (s.snum)")
        unique = shop.execute("retrieve unique (s.snum)")
        assert len(plain.rows) == 4
        assert sorted(unique.rows) == [(10,), (20,)]

    def test_into_then_query(self, shop):
        shop.execute(
            "retrieve into heavy (p.pnum, p.pname) where p.weight > 4"
        )
        shop.execute("range of hv is heavy")
        result = shop.execute("retrieve (hv.pname)")
        assert sorted(r[0] for r in result.rows) == ["bolt", "cam"]

    def test_into_counts_output_pages(self, shop):
        result = shop.execute("retrieve into copy1 (p.pnum, p.pname)")
        assert result.output_pages >= 1

    def test_into_existing_rejected(self, shop):
        with pytest.raises(TQuelSemanticError):
            shop.execute("retrieve into parts (p.pnum)")


class TestAccessPathSelection:
    def test_hash_lookup_cost(self, shop):
        shop.execute("modify parts to hash on pnum")
        result = shop.execute("retrieve (p.pname) where p.pnum = 3")
        assert result.input_pages == 1

    def test_isam_lookup_cost(self, shop):
        shop.execute("modify parts to isam on pnum")
        result = shop.execute("retrieve (p.pname) where p.pnum = 3")
        # The whole relation fits in one data page, so the optimizer
        # scans it instead of paying the two-page directory descent.
        assert result.input_pages == 1
        # The fixed strategy, substituted for the planner, probes.
        shop.planner.choose = shop.planner.fixed_choice
        fixed = shop.execute("retrieve (p.pname) where p.pnum = 3")
        assert fixed.input_pages == 2  # directory + data page
        assert fixed.rows == result.rows

    def test_non_key_predicate_scans(self, shop):
        shop.execute("modify parts to hash on pnum")
        scan = shop.execute("retrieve (p.pname) where p.weight = 3")
        keyed = shop.execute("retrieve (p.pname) where p.pnum = 2")
        assert scan.input_pages > keyed.input_pages or (
            scan.input_pages == shop.relation("parts").page_count
        )

    def test_secondary_index_used_for_equality(self, shop):
        shop.execute("modify parts to hash on pnum")
        shop.execute("index on parts is w_idx (weight)")
        result = shop.execute("retrieve (p.pname) where p.weight = 20")
        assert result.rows == [("cam",)]
        assert result.input_pages <= 2  # index bucket + data page

    def test_key_value_can_be_expression(self, shop):
        shop.execute("modify parts to hash on pnum")
        result = shop.execute("retrieve (p.pname) where p.pnum = 2 + 2")
        assert result.rows == [("cam",)]

    def test_reversed_equality_still_keyed(self, shop):
        shop.execute("modify parts to hash on pnum")
        result = shop.execute("retrieve (p.pname) where 3 = p.pnum")
        assert result.rows == [("washer",)]
        assert result.input_pages == 1
