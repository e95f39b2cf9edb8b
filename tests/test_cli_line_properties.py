"""Property test: the table pass over the command line agrees with the parser.

``cli.main`` reads a plain command line in one pass over ``cli._COMMANDS``
and leaves every other line to the argparse parser.  Lines are drawn from
every command's flags, each mostly followed by a value, with stray tokens
the pass must decline (``--order=4``, ``-h``, ``--``, ``--version``, an
abbreviated flag) and values in every spelling the parser treats apart:
negative numbers, dash words, a lone dash, the empty string, digits with
underscores, infinities and non-numbers.  Wherever the pass accepts a line,
the parser must return the same options; they are compared by ``repr``,
because a NaN value never equals itself.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from perturbseries.cli import _COMMANDS, _parser, _read_line  # noqa: E402

_FLAGS = sorted({opt.flag for _, options in _COMMANDS.values() for opt in options})
_STRAY = ["--order=4", "-h", "--", "--version", "--out"]
_DASHED = st.sampled_from(["-1e-3", "-.5", "-x", "-", "--", "-inf", "-1", "-x y", "--input"])
_VALUES = st.one_of(
    _DASHED,
    st.sampled_from(["inf", "nan", "abc", "1_0", "", "0", "3", "7", "2..4", "1e-6", "x y"]),
    st.text("-.0123456789e_inf ,", max_size=5),
)


@st.composite
def command_lines(draw) -> list[str]:
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    options = _COMMANDS[command][1]
    line = [command] if draw(st.integers(0, 9)) else []
    if draw(st.integers(0, 3)):  # the required flags, so that many lines are complete
        line += [token for opt in options if opt.required for token in (opt.flag, "3")]
    # every option takes "2" and "3"; a switch mostly comes without a value
    fits = st.sampled_from(["2", "3"])
    value = st.one_of(fits, fits, fits, _VALUES)
    switch = st.sampled_from([(opt.flag,) for opt in options if opt.type is None] or [()])
    pair = st.tuples(st.sampled_from([opt.flag for opt in options]), value)
    stray = st.tuples(st.one_of(st.sampled_from(_FLAGS + _STRAY), _VALUES))
    groups = draw(st.lists(st.one_of(pair, pair, pair, switch, stray), max_size=6))
    return line + [token for group in groups for token in group]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(line=command_lines())
def test_a_line_the_table_pass_accepts_parses_the_same(line):
    options = _read_line(line)
    if options is not None:
        assert repr(options) == repr(vars(_parser().parse_args(line)))


def test_the_drawn_lines_reach_both_sides():
    # The property holds vacuously if the pass accepts nothing; count both sides.
    accepted = []

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(line=command_lines())
    def tally(line):
        accepted.append(_read_line(line) is not None)

    tally()
    assert 0.1 < sum(accepted) / len(accepted) < 0.9
