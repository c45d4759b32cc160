"""Edge-list, labeling, and graph6 parsing."""

import pytest

from leechlab.errors import ParseError
from leechlab.families import complete_bipartite, cycle, prism
from leechlab.graph import build_graph
from leechlab.graphio import format_labeling, graph6_decode, load_graph, parse_edge_list, parse_labeling
from leechlab.labeling import Labeling


def graph6_encode(g):
    """g as one graph6 line, by networkx, an encoder independent of ours."""
    nx = pytest.importorskip("networkx")
    h = nx.empty_graph(g.vertex_count)
    h.add_edges_from(g.edges)
    return nx.to_graph6_bytes(h, header=False).decode().strip()


class TestReaders:
    @pytest.mark.parametrize("token,value", [("0", 0), ("007", 7), ("31", 31)])
    def test_ascii_digits_are_integers(self, token, value):
        from leechlab.graphio import _ascii_int

        assert _ascii_int(token) == value

    @pytest.mark.parametrize(
        "token",
        [
            "", "+3", "-3", " 3", "3 ", "1_0", "1.0", "\u0666", "3\u00b2", "0x1",
            pytest.param("9" * 5000, id="past-int-digit-limit"),
        ],
    )
    def test_anything_else_is_none(self, token):
        from leechlab.graphio import _ascii_int

        assert _ascii_int(token) is None

    def test_data_lines_cut_comments_and_blanks(self):
        from leechlab.graphio import _data_lines

        lines = ["# head", "", "  A_  # K2", "\t", "#", "Cs#claw", "1 2"]
        assert list(_data_lines(lines)) == [(3, "A_"), (6, "Cs"), (7, "1 2")]


class TestEdgeList:
    def test_basic(self):
        g = parse_edge_list("3 3\n0 1\n1 2\n2 0\n")
        assert g.vertex_count == 3
        assert g.edges == ((0, 1), (1, 2), (0, 2))

    def test_comments_and_blanks(self):
        text = "# triangle\n3 3\n\n0 1  # first\n1 2\n2 0\n"
        assert parse_edge_list(text).edge_count == 3

    @pytest.mark.parametrize("g", [cycle(7), prism(), complete_bipartite(2, 4)], ids=repr)
    def test_reads_back_the_edges_of_a_family(self, g):
        text = f"{g.vertex_count} {g.edge_count}\n" + "".join(f"{u} {v}\n" for u, v in g.edges)
        assert parse_edge_list(text) == g

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("3 1\n0 x\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError, match="promises 2"):
            parse_edge_list("3 2\n0 1\n")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_edge_list("# nothing\n")

    @pytest.mark.parametrize("text,line", [("3 +3\n0 1\n", 1), ("2 1\n0 \u0661\n", 2), ("2 1\n0 1_0\n", 2)])
    def test_integers_are_ascii_digits(self, text, line):
        with pytest.raises(ParseError, match=f"^line {line}: "):
            parse_edge_list(text)


class TestLabelingFile:
    def test_basic(self):
        assert parse_labeling("1 6 2 3\n").labels == (1, 6, 2, 3)

    def test_comments(self):
        assert parse_labeling("# witness\n1 6 2 3 # cycle order\n").labels == (1, 6, 2, 3)

    def test_round_trip(self):
        lab = Labeling((4, 9, 6, 8, 12, 1, 2))
        assert parse_labeling(format_labeling(lab)) == lab

    def test_bad_token(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_labeling("1 two 3")

    @pytest.mark.parametrize("token", ["1_0", "-3", "+3", "\u0663"])
    def test_labels_are_ascii_digits(self, token):
        with pytest.raises(ParseError, match="^line 2: "):
            parse_labeling(f"# witness\n1 {token} 2\n")


class TestGraph6:
    def test_known_vectors(self):
        k2 = graph6_decode("A_")
        assert (k2.vertex_count, k2.edges) == (2, ((0, 1),))
        claw = graph6_decode("Cs")
        assert claw.vertex_count == 4
        assert sorted(claw.degrees()) == [1, 1, 1, 3]

    def test_header_tolerated(self):
        assert graph6_decode(">>graph6<<A_").edge_count == 1

    def test_encode_decode_round_trip(self):
        for g in (cycle(3), cycle(10), prism(), complete_bipartite(3, 4), build_graph(1, []), build_graph(5, [])):
            back = graph6_decode(graph6_encode(g))
            assert back.vertex_count == g.vertex_count
            assert set(back.edges) == set(g.edges)

    def test_atlas_round_trip(self):
        # every graph on 0..7 vertices, as networkx numbers its vertices
        nx = pytest.importorskip("networkx")
        atlas = nx.graph_atlas_g()
        assert len(atlas) == 1253
        for h in atlas:
            line = nx.to_graph6_bytes(h, header=False).decode().strip()
            g = graph6_decode(line)
            assert g.vertex_count == h.number_of_nodes(), line
            assert set(g.edges) == {tuple(sorted(e)) for e in h.edges}, line
            assert graph6_encode(g) == line

    def test_decode_edge_order_is_column_major(self):
        g = graph6_decode("Bw")  # the triangle
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_multibyte_order_rejected(self):
        with pytest.raises(ParseError, match="not supported"):
            graph6_decode("~??")

    def test_truncated_body(self):
        with pytest.raises(ParseError, match="data bytes"):
            graph6_decode("E")

    def test_bad_characters(self):
        with pytest.raises(ParseError):
            graph6_decode("C\x1f")

    def test_nonzero_padding_rejected(self):
        # C_3 on 4 vertices uses 6 bits, none padded; craft a 3-vertex line
        # (3 bits used, 3 padding bits) with junk in the padding
        line = chr(3 + 63) + chr((0b111111) + 63)
        with pytest.raises(ParseError, match="padding"):
            graph6_decode(line)

    def test_load_graph_cuts_a_trailing_comment(self, tmp_path):
        f = tmp_path / "triangle.g6"
        f.write_text("  # K3 next\nBw # triangle\nA_#K2\n")
        assert load_graph(str(f)).edge_count == 3

    def test_load_graph_reads_the_first_data_line(self, tmp_path):
        f = tmp_path / "claw.g6"
        f.write_text("# the claw\n\nCs # K1,3\nA_\n")
        assert sorted(load_graph(str(f)).degrees()) == [1, 1, 1, 3]

    def test_bundled_assets_decode(self):
        from importlib import resources

        data = resources.files("leechlab") / "data"
        for fname in ("beineke.g6", "small_connected_2_5.g6"):
            lines = (data / fname).read_text().splitlines()
            for line in lines:
                graph6_decode(line)
