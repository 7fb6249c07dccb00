import pytest

from wordrep import catalog
from wordrep.catalog import CHVATAL_AUGMENTED_UNIFORM_WORD, W12, W17
from wordrep.core import Word, cycle_graph
from wordrep.orient import Orientation, is_semi_transitive
from wordrep.search import canonical_form
from wordrep.verify import uniformity, verify_k11


class TestEntries:
    def test_names(self):
        names = catalog.names()
        for expected in (
            "chvatal",
            "chvatal-augmented",
            "w5",
            "bw3",
            "split-min",
            "graph12",
            "graph17",
        ):
            assert expected in names

    def test_unknown_entry(self):
        with pytest.raises(ValueError, match="unknown catalog entry"):
            catalog.get("nope")

    def test_mycielski_parametrized(self):
        G = catalog.get("mycielski-c:4").graph
        assert G.n == 9
        with pytest.raises(ValueError, match="bad Mycielski"):
            catalog.get("mycielski-c:x")
        with pytest.raises(ValueError, match="n >= 3"):
            catalog.get("mycielski-c:2")

    def test_chvatal_shape(self):
        G = catalog.get("chvatal").graph
        assert G.n == 12
        assert G.num_edges == 24
        assert all(G.degree(i) == 4 for i in range(G.n))

    def test_chvatal_augmented_shape(self):
        G = catalog.get("chvatal-augmented").graph
        assert G.num_edges == 26
        assert G.has_edge_labels("1", "3")
        assert G.has_edge_labels("2", "4")

    def test_other_shapes(self):
        assert (catalog.get("bw3").graph.n, catalog.get("bw3").graph.num_edges) == (7, 9)
        assert (catalog.get("w5").graph.n, catalog.get("w5").graph.num_edges) == (6, 10)
        sm = catalog.get("split-min").graph
        assert (sm.n, sm.num_edges) == (8, 16)
        assert (catalog.get("graph12").graph.num_edges, catalog.get("graph17").graph.num_edges) == (13, 15)

    def test_split_min_partition_subsets(self):
        entry = catalog.get("split-min")
        G = entry.graph
        assert G.is_clique(entry.special_subsets["clique"])
        assert G.is_independent_set(entry.special_subsets["independent"])


class TestGoldenArtifacts:
    def test_golden_words_verify(self):
        for name, text in (("graph12", W12), ("graph17", W17)):
            entry = catalog.get(name)
            (word, k), = entry.golden_words
            assert k == 1
            assert word.compact_str() == text
            assert verify_k11(word, entry.graph, 1)

    def test_stored_uniform_witness(self):
        entry = catalog.get("chvatal-augmented")
        (word, k), = entry.golden_words
        assert k == 0
        assert str(word) == CHVATAL_AUGMENTED_UNIFORM_WORD
        assert uniformity(word) == 4
        assert verify_k11(word, entry.graph, 0)

    def test_stored_orientation(self):
        entry = catalog.get("chvatal-augmented")
        (D,) = entry.golden_orientations
        assert is_semi_transitive(D)
        assert len(D.arcs()) == 26

    def test_verify_catalog_all_pass(self):
        report = catalog.verify_catalog()
        assert report.all_ok, report.failures()
        artifacts = {(entry, artifact) for entry, artifact, _, _ in report.checks}
        assert ("graph12", "word k=1") in artifacts
        assert ("chvatal-augmented", "orientation") in artifacts
        assert ("chvatal", "subset V1 ~ BW3") in artifacts

    def test_verify_catalog_checks(self):
        # every stored artifact, entry by entry; the generated Mycielski
        # entries store none, so they add no check
        report = catalog.verify_catalog()
        assert [(entry, artifact) for entry, artifact, _, _ in report.checks] == [
            ("chvatal", "subset V1 ~ BW3"), ("chvatal", "subset V2 ~ BW3"),
            ("chvatal", "subset V3 ~ BW3"), ("chvatal", "subset V4 ~ BW3"),
            ("chvatal", "subset C5a ~ C5"), ("chvatal", "subset C5b ~ C5"),
            ("chvatal-augmented", "word k=0"), ("chvatal-augmented", "orientation"),
            ("graph12", "word k=1"), ("graph12", "independent subset"),
            ("graph17", "word k=1"), ("graph17", "independent subset"),
            ("split-min", "clique subset"), ("split-min", "independent subset"),
        ]
        entry = catalog.get("mycielski-c:5")
        assert not (entry.golden_words or entry.golden_orientations or entry.special_subsets)

    def test_truncated_word_fails_verification(self):
        entry = catalog.get("graph12")
        (word, _), = entry.golden_words
        truncated = Word(word.alphabet, word.letters[:-1])
        assert not verify_k11(truncated, entry.graph, 1)

    def test_flipped_arc_breaks_semi_transitivity(self):
        entry = catalog.get("chvatal-augmented")
        (D,) = entry.golden_orientations
        arcs = [("11", "10") if a == ("10", "11") else a for a in D.arcs()]
        flipped = Orientation.from_arcs(D.base, arcs)
        assert not is_semi_transitive(flipped)


class TestCatalogGraphFacts:
    def test_w5_canonical(self):
        # the catalog W5 really is C5 plus a dominating hub
        G = catalog.get("w5").graph
        C5 = cycle_graph(tuple("abcde"))
        assert canonical_form(G.induced_subgraph([str(i) for i in range(1, 6)])) == canonical_form(C5)
        assert G.degree(G.idx("6")) == 5

    def test_graph_independent_subsets(self):
        for name in ("graph12", "graph17"):
            entry = catalog.get(name)
            assert entry.graph.is_independent_set(entry.special_subsets["independent"])
