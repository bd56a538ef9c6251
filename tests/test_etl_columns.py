"""A column's outcome is the outcome of its values: ``map_columns`` over a
source of many rows, with several faulty values per column, gives each row
what ``apply`` gives that row alone."""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from agridw.etl import CompiledMapping, RawRow, RejectRecord, mapping_from_dict
from test_etl_model import CATALOG, LIMIT, _fields, _items, _text, mappings


@st.composite
def _rows(draw):
    """1 to 64 rows drawn from a few distinct ones, so that passing and
    failing values interleave down each column."""
    size = draw(st.integers(1, 64))
    pool = draw(st.lists(_fields(_text | st.just(LIMIT + 1).map("y".__mul__)), min_size=1, max_size=8))
    return draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))


_SOIL_PH = {"target_table": "Soil", "bindings": [
    {"source": "a", "target": "SoilID"}, {"source": "b", "target": "PH", "transforms": [{"op": "parse-number"}]},
]}


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(mapping=mappings(), rows=_rows())
# a part passes only if each of its values would, wherever it sits in the part
@example(mapping=_SOIL_PH, rows=[{"a": "s", "b": text} for text in ("5", "abc", "11", "6", "7", "2", "nan", "8")])
# parse-number fails inf as a type-error, where the range check would say range-error
@example(mapping=_SOIL_PH, rows=[{"a": "s", "b": text} for text in ("5", "6", "inf")])
def test_each_row_of_a_column_maps_as_it_does_alone(mapping, rows):
    compiled = CompiledMapping(mapping_from_dict(mapping), CATALOG)
    columns = {name: [fields.get(name) for fields in rows] for name in set().union(*rows)}
    typed, failed = compiled.map_columns(columns, len(rows))
    for i, fields in enumerate(rows):
        alone = compiled.apply(RawRow("mem", i + 1, fields, ""))
        if isinstance(alone, RejectRecord):
            assert failed.get(i) == (alone.binding, alone.reason), i
        else:
            assert i not in failed, (i, failed[i])
            assert _items({name: values[i] for name, values in typed if values[i] is not None}) == _items(alone), i
