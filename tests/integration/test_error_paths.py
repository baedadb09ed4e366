"""Integration tests for error handling across the statement surface."""

import pytest

from repro.errors import (
    CatalogError,
    ExecutionError,
    TQuelSemanticError,
    TQuelSyntaxError,
    UnknownRelationError,
)


@pytest.fixture
def basic(db):
    db.execute("create persistent interval r (id = i4, v = i4)")
    db.execute("range of x is r")
    db.execute("append to r (id = 1, v = 10)")
    return db


class TestDdlErrors:
    def test_modify_unknown_relation(self, basic):
        with pytest.raises(UnknownRelationError):
            basic.execute("modify ghost to hash on id")

    def test_modify_unknown_structure(self, basic):
        with pytest.raises(CatalogError):
            basic.execute("modify r to rtree on id")

    def test_modify_keyed_without_key(self, basic):
        with pytest.raises(CatalogError):
            basic.execute("modify r to hash")

    def test_modify_unknown_key_attribute(self, basic):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            basic.execute("modify r to hash on ghost")

    def test_modify_unknown_option(self, basic):
        with pytest.raises(TQuelSemanticError):
            basic.execute("modify r to hash on id where sparkle = 1")

    def test_modify_bad_history_layout(self, basic):
        with pytest.raises(CatalogError):
            basic.execute(
                'modify r to twolevel on id where history = "holographic"'
            )

    def test_index_duplicate_name(self, basic):
        basic.execute("index on r is v_idx (v)")
        with pytest.raises(CatalogError):
            basic.execute("index on r is v_idx (v)")

    def test_index_bad_levels(self, basic):
        with pytest.raises(CatalogError):
            basic.execute("index on r is v2 (v) where levels = 3")

    def test_index_isam_structure_rejected(self, basic):
        with pytest.raises(CatalogError):
            basic.execute("index on r is v2 (v) where structure = isam")

    def test_index_unknown_attribute(self, basic):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            basic.execute("index on r is v2 (ghost)")

    def test_destroy_unknown(self, basic):
        with pytest.raises(UnknownRelationError):
            basic.execute("destroy ghost")

    def test_create_reserved_attribute(self, basic):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            basic.execute("create t (valid_from = i4)")

    def test_create_shadowing_system_relation(self, basic):
        from repro.errors import DuplicateRelationError

        with pytest.raises(DuplicateRelationError):
            basic.execute("create relations (x = i4)")

    def test_create_bad_type(self, basic):
        from repro.errors import RecordCodecError

        with pytest.raises(RecordCodecError):
            basic.execute("create t (x = blob)")


class TestStatementErrors:
    def test_range_over_unknown_relation(self, basic):
        with pytest.raises(UnknownRelationError):
            basic.execute("range of q is ghost")

    def test_empty_input(self, basic):
        with pytest.raises(ExecutionError):
            basic.execute("   ")

    def test_syntax_error_position(self, basic):
        with pytest.raises(TQuelSyntaxError) as info:
            basic.execute("retrieve (x.id,, x.v)")
        assert "line 1" in str(info.value)

    def test_append_value_overflow(self, basic):
        from repro.errors import RecordCodecError

        with pytest.raises(RecordCodecError):
            basic.execute("append to r (id = 1, v = 3000000000)")

    def test_copy_rows_arity(self, basic):
        with pytest.raises(ExecutionError):
            basic.copy_in("r", [(1,)])

    def test_multi_statement_results(self, basic):
        results = basic.execute(
            "retrieve (x.id); retrieve (x.v)"
        )
        assert isinstance(results, list) and len(results) == 2

    def test_as_of_through_before_at(self, basic):
        with pytest.raises(ExecutionError):
            basic.execute('retrieve (x.id) as of "1981" through "1980"')

    def test_vacuum_unknown_relation(self, basic):
        with pytest.raises(UnknownRelationError):
            basic.execute('vacuum ghost before "now"')


class TestStatementAtomicityOfErrors:
    def test_failed_statement_leaves_data_queryable(self, basic):
        with pytest.raises(TQuelSemanticError):
            basic.execute('retrieve (x.id) when x overlap "now" '
                          "where x.ghost = 1")
        assert basic.execute("retrieve (x.id)").rows

    def test_failed_ddl_keeps_catalog_consistent(self, basic):
        with pytest.raises(CatalogError):
            basic.execute("modify r to rtree on id")
        # The old structure still answers queries.
        assert basic.execute("retrieve (x.v) where x.id = 1").rows


class TestDetachmentTemporariesOnError:
    """A statement that fails after detaching drops its temporaries."""

    @pytest.fixture
    def joined(self, db):
        db.execute("create r (id = i4, v = i4)")
        db.execute("range of x is r")
        db.execute("range of y is r")
        for i in range(1, 5):
            db.execute(f"append to r (id = {i}, v = {i * 100})")
        return db

    @staticmethod
    def temporaries(db):
        return [name for name in db.pool._files if name.startswith("_temp")]

    def test_failed_retrieve_leaves_no_temporary(self, joined):
        with pytest.raises(TQuelSemanticError):
            joined.execute(
                "retrieve coalesced (x.id) where x.id = y.id and x.v > 100"
            )
        assert self.temporaries(joined) == []

    def test_failed_aggregate_leaves_no_temporary(self, joined):
        with pytest.raises(ExecutionError):
            joined.execute(
                "retrieve (s = sum(x.v / 0)) where x.id = y.id and x.v > 100"
            )
        assert self.temporaries(joined) == []
