"""The suppression scan against the tokenize-always scan it replaced.

``repro.devtools.lint._parse_suppressions`` now returns at once when a
source lacks ``reprolint:``, since every suppression comment and every
malformed-comment RPL000 holds that marker; the parent tokenized every
file.  The parent's scan is kept below verbatim as the reference, and
on drawn sources (lines of code; well-formed, unjustified,
unknown-rule and malformed ``# reprolint:`` comments; lookalikes
without the marker; the marker inside strings and docstrings) both
return equal suppressions and findings.  The drawn sources are ASCII:
the scan now gives an RPL000 column in UTF-8 bytes, as ``ast`` does,
where the reference counted code points.
"""

from __future__ import annotations

import io
import tokenize
from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devtools.lint import (
    _JUSTIFY_RE,
    _SUPPRESS_RE,
    Suppression,
    _parse_suppressions,
)
from repro.devtools.rules import RULES, Finding


# ---------------------------------------------------------------------------
# reference: the replaced scan, verbatim
# ---------------------------------------------------------------------------
def _ref_parse_suppressions(source: str, path: str) -> Tuple[List[Suppression],
                                                             List[Finding]]:
    """Extract suppression comments via tokenize so comment-lookalikes
    inside string literals (e.g. linter test fixtures) are ignored."""
    suppressions: List[Suppression] = []
    findings: List[Finding] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [t for t in tokens if t.type == tokenize.COMMENT]
    except tokenize.TokenizeError:  # pragma: no cover - file already parsed
        return [], []
    for token in comments:
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            if "reprolint:" in token.string:
                findings.append(
                    Finding("RPL000", path, token.start[0], token.start[1],
                            f"malformed reprolint comment {token.string.strip()!r}")
                )
            continue
        codes = tuple(
            code.strip() for code in match.group("codes").split(",")
        )
        unknown = [code for code in codes if code not in RULES]
        if unknown:
            findings.append(
                Finding("RPL000", path, token.start[0], token.start[1],
                        f"suppression names unknown rule(s) {unknown}")
            )
        justified = bool(_JUSTIFY_RE.match(match.group("tail")))
        if not justified:
            findings.append(
                Finding(
                    "RPL000", path, token.start[0], token.start[1],
                    "suppression is missing its justification — write "
                    "'# reprolint: disable=RPLxxx -- <why this is safe>'",
                )
            )
        suppressions.append(
            Suppression(
                line=token.start[0],
                codes=codes,
                file_level=match.group(1) == "disable-file",
                justified=justified,
            )
        )
    return suppressions, findings


# ---------------------------------------------------------------------------
# drawn sources
# ---------------------------------------------------------------------------
_CODE = st.sampled_from((
    "x = 1", "arr[0] = 2.0", "total = span_days + span_seconds",
    "def f(ds):\n    return ds.error_times", "for row in rows:\n    pass",
    "import os", "",
))
_COMMENTS = st.sampled_from((
    # well-formed, line- and file-level, one or two rules
    "# reprolint: disable=RPL002 -- fixture exercising the raise",
    "#reprolint:disable=RPL101,RPL102 -- both on purpose",
    "# reprolint: disable-file=RPL104 -- order does not matter here",
    # unjustified
    "# reprolint: disable=RPL002", "# reprolint: disable=RPL002 because",
    # unknown rule
    "# reprolint: disable=RPL999 -- no such rule",
    "# reprolint: disable=RPL301, RPL002 -- a retired rule",
    # malformed
    "# reprolint: off", "# reprolint:disable RPL002",
    "# reprolint: disable=rpl002 -- lower case",
    # lookalikes without the marker
    "# reprolint disable=RPL002 -- no colon", "# REPROLINT: disable=RPL002",
    "# noqa", "# reprolint : disable=RPL002 -- spaced",
))
_STRINGS = st.sampled_from((
    's = "# reprolint: disable=RPL002 -- inside a string"',
    "t = 'reprolint: off'",
    '"""Module docstring.\n\n    x = 1  # reprolint: disable=RPL002 -- doc\n"""',
    "def g():\n    '''# reprolint: disable-file=RPL104'''\n    return 1",
    'u = f"{x}  # reprolint: disable=RPL999"',
))


@st.composite
def _sources(draw) -> str:
    lines: List[str] = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("code", "comment", "trailing",
                                     "string")))
        if kind == "code":
            lines.append(draw(_CODE))
        elif kind == "comment":
            lines.append(draw(_COMMENTS))
        elif kind == "trailing":
            code = draw(_CODE.filter(lambda c: c and "\n" not in c))
            lines.append(f"{code}  {draw(_COMMENTS)}")
        else:
            lines.append(draw(_STRINGS))
    return "\n".join(lines) + ("\n" if draw(st.booleans()) else "")


@settings(max_examples=300, deadline=None)
@given(source=_sources())
def test_drawn_sources_match_reference(source):
    compile(source, "drawn.py", "exec")  # only parsed files are scanned
    assert _parse_suppressions(source, "drawn.py") \
        == _ref_parse_suppressions(source, "drawn.py")


def test_marker_only_in_a_string_gives_nothing():
    source = 's = "# reprolint: disable=RPL002 -- inside a string"\n'
    assert _parse_suppressions(source, "m.py") \
        == _ref_parse_suppressions(source, "m.py") == ([], [])


def test_every_comment_kind_is_reported_alike():
    source = "\n".join([
        "x = 1  # reprolint: disable=RPL002 -- justified",
        "y = 2  # reprolint: disable=RPL002",
        "z = 3  # reprolint: disable=RPL999 -- unknown",
        "# reprolint: off",
    ]) + "\n"
    suppressions, findings = _parse_suppressions(source, "m.py")
    assert (suppressions, findings) \
        == _ref_parse_suppressions(source, "m.py")
    assert [s.line for s in suppressions] == [1, 2, 3]
    assert [f.line for f in findings] == [2, 3, 4]
