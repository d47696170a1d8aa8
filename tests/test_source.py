"""Checks on the package source itself."""

import pathlib
import tokenize

import pytest

import uapca

# The bench runs the CLI with bytecode writing off, so each run compiles every
# module it imports, and the compile's transient memory shows in peak RSS.
# CPython 3.11's parser doubles its token buffer at 4 096 tokens: padding
# svg.py past about 3 980 tokens raised the peak RSS of a `trace` run on the
# trace-sweep input by about 0.1 MB (36.20 -> 36.31 MB, median of 8 runs).
_TOKEN_BUDGET = 3_980
_MODULES = sorted(pathlib.Path(uapca.__file__).parent.glob("*.py"))


def _parser_tokens(path: pathlib.Path) -> int:
    """The tokens of a file as Python 3.11 reads them, on any Python: no
    comments or non-logical newlines, and one token for each f-string,
    which 3.12 and later split into parts."""
    count = depth = 0
    with open(path, encoding="utf-8") as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            name = tokenize.tok_name[tok.type]
            if name in ("FSTRING_START", "TSTRING_START"):
                count += depth == 0
                depth += 1
            elif name in ("FSTRING_END", "TSTRING_END"):
                depth -= 1
            elif depth == 0 and tok.type not in (tokenize.COMMENT, tokenize.NL):
                count += 1
    return count


def test_the_token_count_reads_a_file_as_python_3_11_does(tmp_path):
    # 13 tokens: x = f"..." NEWLINE, then y = ( z , w ) NEWLINE, then
    # ENDMARKER; the comments and the newlines inside brackets do not count.
    path = tmp_path / "m.py"
    path.write_text('x = f"a{1 + f\'{2}\'}b"  # c\n\n# d\ny = (z,\n     w)\n', encoding="utf-8")
    assert _parser_tokens(path) == 13


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_each_module_stays_under_the_parser_token_budget(path):
    assert _parser_tokens(path) < _TOKEN_BUDGET
