"""Property tests of the outside-text readers and the command line.

Every token is at most four characters long, so no edge-list header asks for
a graph of more than 9,999 vertices and no --range spans more than 10,000
values. --workers is not fuzzed: every value it accepts starts that many
processes. No file name is drawn.
"""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from leechlab import cli  # noqa: E402
from leechlab.errors import LeechLabError  # noqa: E402
from leechlab.graphio import _ascii_int, graph6_decode, parse_edge_list, parse_labeling  # noqa: E402

# a few hundred examples in all keep the file near 3 s
FUZZ = settings(derandomize=True, deadline=None, max_examples=200)
FUZZ_CLI = settings(FUZZ, max_examples=100)

# digits, the signs, separators and exponents that int() and float() take,
# other scripts' digits, and a comment marker
TOKEN_CHARS = "0123456789+-_.e#x ٣١²"
tokens = st.text(alphabet=TOKEN_CHARS, max_size=4) | st.text(max_size=4)
words = st.text(alphabet=TOKEN_CHARS.replace(" ", ""), min_size=1, max_size=4)
lines = st.lists(words, max_size=4).map(" ".join)
texts = st.lists(lines, max_size=6).map("\n".join)

DOCUMENTED_EXITS = {
    cli.EXIT_LEECH, cli.EXIT_ALMOST, cli.EXIT_NEITHER, cli.EXIT_NOT_APPLICABLE,
    cli.EXIT_EXHAUSTED, cli.EXIT_TIMEOUT, cli.EXIT_NODE_LIMIT,
    cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_MISMATCH,
}


@FUZZ
@given(tokens)
def test_integer_reader_takes_ascii_digits_only(token):
    value = _ascii_int(token)
    if token.isascii() and token.isdigit():
        assert value == int(token)
    else:
        assert value is None


@FUZZ
@given(texts)
def test_file_parsers_raise_only_their_own_errors(text):
    try:
        labels = parse_labeling(text).labels
    except LeechLabError:
        pass
    else:
        assert labels and all(type(x) is int and x > 0 for x in labels)
    try:
        g = parse_edge_list(text)
    except LeechLabError:
        pass
    else:
        assert all(0 <= u < v < g.vertex_count for u, v in g.edges)


@FUZZ
@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=130), max_size=8))
def test_graph6_decoder_raises_only_its_own_errors(line):
    nx = pytest.importorskip("networkx")
    try:
        g = graph6_decode(line)
    except LeechLabError:
        return
    # zero padding makes the encoding unique, so a decoded line re-encodes,
    # here by networkx, an encoder independent of ours
    h = nx.empty_graph(g.vertex_count)
    h.add_edges_from(g.edges)
    assert nx.to_graph6_bytes(h, header=False).decode().strip() == line.strip().removeprefix(">>graph6<<")


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, err.getvalue()


def assert_documented(code, err):
    assert code in DOCUMENTED_EXITS
    if code in (cli.EXIT_USAGE, cli.EXIT_DATA):
        assert err.startswith("error: ") and err.count("\n") == 1


# the values of the number flags, never '-' (stdin) or '--' (after it every
# token is a positional, that is a file name)
values = tokens.filter(lambda v: v not in ("-", "--"))
SEARCH_FLAGS = ("--max-label", "--sum", "--node-limit", "--time-limit")


@FUZZ_CLI
@given(st.dictionaries(st.sampled_from(SEARCH_FLAGS), values, min_size=1))
def test_search_number_flags_exit_as_documented(flag_values):
    flags = [token for flag, value in flag_values.items() for token in (flag, value)]
    assert_documented(*run_cli("search", "--family", "cycle:4", "--json", *flags))


@FUZZ_CLI
@given(values, values)
def test_feasible_range_exits_as_documented(lo, hi):
    assert_documented(*run_cli("feasible", "--family", "cycle:n", "--range", f"{lo}..{hi}"))


# graphs small enough that any search on them ends at once
SPECS = ("cycle:3", "cycle:4", "cycle:n", "knn:2", "path:3", "complete:3")
family = st.sampled_from(SPECS) | values
number = st.integers(1, 30).map(str) | values
# the flags of each fuzzed command, with the values of those that take one;
# --workers is left out, since every value it accepts starts that many
# processes
COMMAND_FLAGS = {
    "tgp": {"--family": family, "--json": None, "--closed-form": None},
    "search": {
        "--family": family, "--json": None, "--almost": None, "--all": None,
        "--seedless": None, "--max-label": number, "--sum": number,
        "--node-limit": number, "--time-limit": number,
    },
    "feasible": {
        "--family": family, "--json": None,
        "--range": st.tuples(number, number).map("..".join),
    },
}
UNKNOWN_FLAGS = ("--bogus", "-x", "--Sum", "--max_label", "--verbose")


@st.composite
def argvs(draw):
    """A command (or none), mostly a --family, then known flags, each value
    drawn or left out, and now and then an unknown flag. A value always
    follows its flag, so no token is read as a file name."""
    command = draw(st.sampled_from((*COMMAND_FLAGS, None)))
    flags = COMMAND_FLAGS.get(command, {})
    argv = [] if command is None else [command]
    if draw(st.integers(0, 5)):
        argv += ["--family", draw(st.sampled_from(SPECS))]
    for _ in range(draw(st.integers(0, 4))):
        if flags and draw(st.integers(0, 5)):
            flag = draw(st.sampled_from(sorted(flags)))
        else:
            flag = draw(st.sampled_from(UNKNOWN_FLAGS))
        argv.append(flag)
        if flags.get(flag) is not None and draw(st.integers(0, 5)):
            argv.append(draw(flags[flag]))
    return argv


@FUZZ_CLI
@given(argvs())
def test_cli_argvs_exit_as_documented(argv):
    assert_documented(*run_cli(*argv))
