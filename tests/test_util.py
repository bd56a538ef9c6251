from __future__ import annotations

import csv
import io
import re

from hypothesis import example, given, settings, strategies as st

from agridw.util import csv_records

LIMIT = csv.field_size_limit()


def _reference(text: str, delimiter: str) -> list[tuple[list[str] | None, str]]:
    """``csv.reader`` over the text's lines, each record with the lines it
    consumed; a record it refuses takes further lines until their ``"`` count
    is even (RFC 4180 framing), or the text ends."""
    lines = iter(io.StringIO(text, newline=""))
    consumed: list[str] = []

    def tap():
        for line in lines:
            consumed.append(line)
            yield line

    reader = csv.reader(tap(), delimiter=delimiter)
    records = []
    while True:
        try:
            record = next(reader)
        except StopIteration:
            return records
        except csv.Error:
            record = None
            while sum(line.count('"') for line in consumed) % 2 and (line := next(lines, None)) is not None:
                consumed.append(line)
        records.append((record, "".join(consumed).rstrip("\r\n")))
        consumed.clear()


_TEXT = st.text(alphabet=st.sampled_from(',;\t"\n\r\x0c\x85\u2028 ab'), max_size=40)
# cells at the limit (read) and one past it (refused), at any position
_LONG = st.lists(st.tuples(st.integers(0, 40), st.sampled_from([LIMIT, LIMIT + 1])), max_size=2)


@settings(max_examples=300, deadline=None)
@given(text=_TEXT, long=_LONG, delimiter=st.sampled_from(",;\t"), maxsplit=st.integers(-1, 4))
@example(text='a,b\n"c', long=[(6, LIMIT + 1)], delimiter=",", maxsplit=-1)  # unclosed quote: ends with the text
@example(text='a\n\nb,c\n', long=[(0, LIMIT + 1)], delimiter=",", maxsplit=0)  # a refused first line
@example(text="a,b\nc\n", long=[(0, LIMIT), (2, LIMIT)], delimiter=",", maxsplit=1)  # a long line of two cells at the limit
def test_records_are_the_stdlib_readers_with_rfc_4180_framing(text, long, delimiter, maxsplit):
    for at, length in long:
        at = min(at, len(text))
        text = text[:at] + "x" * length + text[at:]
    want = _reference(text, delimiter)
    assert list(csv_records(text, delimiter)) == want
    if [length for _, length in long] == [LIMIT + 1]:  # one cell past the limit: one refused record
        assert sum(cells is None for cells, _ in want) == 1

    cut = list(csv_records(text, delimiter, maxsplit))
    assert [raw for _, raw in cut] == [raw for _, raw in want]
    for (got, _), (record, _) in zip(cut, want):
        if record is None or maxsplit < 0:
            assert got == record
        else:
            assert got[:maxsplit] == record[:maxsplit]
            assert delimiter.join(got) == delimiter.join(record)

    # each raw span is its source text; what lies between two spans is one line end
    rest = text
    for i, (_, raw) in enumerate(want):
        assert rest.startswith(raw)
        rest = rest[len(raw):]
        ending = re.match(r"\r\n|\r|\n|" if i + 1 < len(want) else r"[\r\n]*", rest).group()
        rest = rest[len(ending):]
    assert rest == ""
