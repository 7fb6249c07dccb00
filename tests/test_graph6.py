import random

import pytest

from wordrep.core import Graph, complete_graph, cycle_graph
from wordrep.graph6 import HEADER, parse_graph6, write_graph6
from wordrep.search import canonical_form, enumerate_nonisomorphic


def _random_graph(rng, n):
    labels = tuple(str(i + 1) for i in range(n))
    edges = [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.3
    ]
    return Graph.from_edges(labels, edges)


class TestKnownValues:
    def test_k3(self):
        assert write_graph6(complete_graph(tuple("123"))) == "Bw"

    def test_c4(self):
        assert write_graph6(cycle_graph(tuple("1234"))) == "Cl"

    def test_parse_known(self):
        G = parse_graph6("Bw")
        assert G.same_graph(complete_graph(tuple("123")))

    def test_header_stripped(self):
        assert parse_graph6(HEADER + "Bw").same_graph(complete_graph(tuple("123")))


class TestRoundTrip:
    def test_all_small_graphs(self):
        for n in range(1, 6):
            for G in enumerate_nonisomorphic(n):
                H = parse_graph6(write_graph6(G))
                assert H.same_graph(G)

    def test_random_graphs(self):
        rng = random.Random(17)
        for n in (2, 7, 12, 30, 62):
            G = _random_graph(rng, n)
            H = parse_graph6(write_graph6(G))
            assert G.n == H.n
            assert sorted(map(sorted, G.edge_labels())) == sorted(map(sorted, H.edge_labels()))

    def test_long_form_n(self):
        rng = random.Random(23)
        G = _random_graph(rng, 70)
        line = write_graph6(G)
        assert line.startswith("~")
        H = parse_graph6(line)
        assert H.n == 70
        assert sorted(map(sorted, G.edge_labels())) == sorted(map(sorted, H.edge_labels()))


class TestErrors:
    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            parse_graph6("")

    def test_wrong_body_length(self):
        with pytest.raises(ValueError, match="wrong length"):
            parse_graph6("C")  # n=4 needs one body char
        with pytest.raises(ValueError, match="wrong length"):
            parse_graph6("Cll")

    def test_invalid_char(self):
        with pytest.raises(ValueError, match="invalid graph6 character"):
            parse_graph6("C" + chr(200))

    @pytest.mark.parametrize(
        "line",
        ["=?", "\x7f", "\x7f" + "?" * 336, "~\x3e??"],
        ids=["equals-sign", "del", "del-with-64-vertex-body", "long-form-byte-below-?"],
    )
    def test_invalid_size_byte(self, line):
        # '=' would read as n = -2 (an empty graph), DEL as a short-form n = 64,
        # and a long-form byte below '?' as a negative 6-bit group
        with pytest.raises(ValueError, match="invalid graph6 size byte"):
            parse_graph6(line)

    @pytest.mark.parametrize("line", ["~", "~AB"], ids=["tilde-alone", "tilde-two-bytes"])
    def test_truncated_long_size(self, line):
        # the long form needs three size bytes after '~'
        with pytest.raises(ValueError, match="truncated graph6 size"):
            parse_graph6(line)

    def test_36_bit_size_unsupported(self):
        with pytest.raises(ValueError, match=r"supports n <= 258047"):
            parse_graph6("~~")

    def test_nonzero_padding(self):
        # n=3 uses 3 bits; set a padding bit
        with pytest.raises(ValueError, match="padding"):
            parse_graph6("B" + chr(0b111111 + 63))

    def test_writer_range(self):
        with pytest.raises(ValueError):
            from wordrep.graph6 import _encode_n

            _encode_n(258048)
