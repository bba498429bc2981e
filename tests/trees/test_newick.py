"""Unit tests for the Newick parser and writer."""

import pytest

from repro.errors import NewickEmptyStatementError, NewickError
from repro.trees.newick import (
    parse_forest,
    parse_newick,
    read_newick_file,
    write_newick,
)


class TestParseBasics:
    def test_simple_binary(self):
        tree = parse_newick("(a,b);")
        assert len(tree) == 3
        assert sorted(tree.leaf_labels()) == ["a", "b"]

    def test_trailing_semicolon_optional(self):
        assert len(parse_newick("(a,b)")) == 3

    def test_nested(self):
        tree = parse_newick("((a,b),(c,d));")
        assert len(tree) == 7
        assert tree.root.degree == 2

    def test_multifurcation(self):
        tree = parse_newick("(a,b,c,d,e);")
        assert tree.root.degree == 5

    def test_single_leaf_tree(self):
        tree = parse_newick("OnlyOne;")
        assert len(tree) == 1
        assert tree.root.label == "OnlyOne"

    def test_internal_labels(self):
        tree = parse_newick("((a,b)ab,(c,d)cd)root;")
        assert tree.root.label == "root"
        labels = {node.label for node in tree.internal_nodes()}
        assert labels == {"ab", "cd", "root"}

    def test_ids_assigned_preorder_from_zero(self):
        tree = parse_newick("((a,b),c);")
        assert tree.root.node_id == 0
        assert sorted(node.node_id for node in tree.preorder()) == list(range(5))


class TestBranchLengths:
    def test_leaf_lengths(self):
        tree = parse_newick("(a:1.5,b:2);")
        lengths = {node.label: node.length for node in tree.leaves()}
        assert lengths == {"a": 1.5, "b": 2.0}

    def test_internal_and_root_lengths(self):
        tree = parse_newick("((a:1,b:1):0.5,c:2):0.1;")
        assert tree.root.length == 0.1

    def test_scientific_notation(self):
        tree = parse_newick("(a:1e-3,b:2.5E2);")
        lengths = sorted(node.length for node in tree.leaves())
        assert lengths == [0.001, 250.0]

    def test_negative_length(self):
        tree = parse_newick("(a:-0.5,b:1);")
        assert min(node.length for node in tree.leaves()) == -0.5

    def test_invalid_length(self):
        with pytest.raises(NewickError, match="branch length"):
            parse_newick("(a:xyz,b);")


class TestQuotingAndComments:
    def test_quoted_label_with_spaces(self):
        tree = parse_newick("('Homo sapiens',b);")
        assert "Homo sapiens" in tree.leaf_labels()

    def test_quoted_label_with_escaped_quote(self):
        tree = parse_newick("('it''s',b);")
        assert "it's" in tree.leaf_labels()

    def test_quoted_label_with_parens(self):
        tree = parse_newick("('weird(label)',b);")
        assert "weird(label)" in tree.leaf_labels()

    def test_unterminated_quote(self):
        with pytest.raises(NewickError, match="unterminated quoted"):
            parse_newick("('oops,b);")

    def test_comments_skipped(self):
        tree = parse_newick("[comment](a[c2],b[c3]):1[c4];")
        assert sorted(tree.leaf_labels()) == ["a", "b"]

    def test_unterminated_comment(self):
        with pytest.raises(NewickError, match="unterminated comment"):
            parse_newick("(a,b)[oops;")

    def test_whitespace_everywhere(self):
        tree = parse_newick("  ( a ,\n\t b ) ; ")
        assert sorted(tree.leaf_labels()) == ["a", "b"]


class TestEmptyLabels:
    def test_wikipedia_all_unlabeled(self):
        tree = parse_newick("(,,(,));")
        assert len(tree) == 6
        assert all(node.label is None for node in tree.preorder())

    def test_mixed_empty_and_named(self):
        tree = parse_newick("(,a,(b,));")
        assert len(list(tree.leaves())) == 4
        assert sorted(tree.leaf_labels()) == ["a", "b"]


class TestErrors:
    def test_unbalanced_open(self):
        with pytest.raises(NewickError, match="unbalanced"):
            parse_newick("((a,b);")

    def test_unbalanced_close(self):
        with pytest.raises(NewickError):
            parse_newick("(a,b));")

    def test_trailing_garbage(self):
        with pytest.raises(NewickError, match="trailing"):
            parse_newick("(a,b);junk")

    def test_empty_input(self):
        with pytest.raises(NewickError):
            parse_newick("")

    def test_error_carries_position(self):
        with pytest.raises(NewickError) as exc_info:
            parse_newick("(a,b");  # unbalanced
        assert exc_info.value.position is not None


class TestForest:
    def test_multiple_trees(self):
        trees = parse_forest("(a,b);(c,d);(e,(f,g));")
        assert len(trees) == 3
        assert trees[2].name == "tree_2"

    def test_empty_forest(self):
        assert parse_forest("") == []

    def test_forest_with_whitespace_between(self):
        trees = parse_forest("(a,b);\n\n(c,d);\n")
        assert len(trees) == 2

    def test_missing_separator(self):
        with pytest.raises(NewickError, match="';'"):
            parse_forest("(a,b)(c,d);")

    def test_read_newick_file(self, tmp_path):
        path = tmp_path / "forest.nwk"
        path.write_text("(a,b);\n(c,d);\n", encoding="utf-8")
        trees = read_newick_file(str(path))
        assert len(trees) == 2


class TestWriter:
    def test_round_trip_simple(self):
        source = "((a,b),(c,d));"
        tree = parse_newick(source)
        assert write_newick(tree, include_lengths=False) == source

    def test_round_trip_preserves_canonical_form(self, rng):
        from tests.conftest import make_random_tree

        for _ in range(20):
            tree = make_random_tree(rng)
            text = write_newick(tree)
            reparsed = parse_newick(text)
            assert reparsed.isomorphic_to(tree)

    def test_lengths_written(self):
        tree = parse_newick("(a:1.5,b:2);")
        text = write_newick(tree)
        assert ":1.5" in text and ":2" in text

    def test_lengths_suppressed(self):
        tree = parse_newick("(a:1.5,b:2);")
        assert ":" not in write_newick(tree, include_lengths=False)

    def test_quoting_applied(self):
        from repro.trees.tree import Tree

        tree = Tree()
        root = tree.add_root()
        tree.add_child(root, label="needs space")
        tree.add_child(root, label="it's")
        text = write_newick(tree)
        assert "'needs space'" in text
        assert "'it''s'" in text
        assert parse_newick(text).leaf_labels() == {"needs space", "it's"}

    def test_empty_tree(self):
        from repro.trees.tree import Tree

        assert write_newick(Tree()) == ";"

    def test_single_node(self):
        tree = parse_newick("A;")
        assert write_newick(tree) == "A;"

    def test_internal_labels_round_trip(self):
        source = "((a,b)x,c)r;"
        tree = parse_newick(source)
        assert write_newick(tree, include_lengths=False) == source


class TestEmptyStatements:
    """``;;`` once parsed as a phantom one-node tree, shifting indexes."""

    def test_double_semicolon_rejected_with_line_and_column(self):
        with pytest.raises(NewickEmptyStatementError) as exc_info:
            parse_forest("((a,b),c);;\n((a,b),c);\n")
        error = exc_info.value
        assert isinstance(error, NewickError)
        assert (error.line, error.column, error.position) == (1, 11, 10)
        assert "line 1, column 11" in str(error)

    def test_leading_semicolon_rejected(self):
        with pytest.raises(NewickEmptyStatementError) as exc_info:
            parse_forest("(a,b);\n  ;\n")
        assert (exc_info.value.line, exc_info.value.column) == (2, 3)

    def test_single_tree_bare_semicolon_is_one_node(self):
        # write_newick renders a lone unlabeled node as ";", so the
        # single-tree parser keeps reading it back as one.
        assert len(parse_newick(";")) == 1

    def test_cli_exits_2_instead_of_counting_a_phantom(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "phantom.nwk"
        path.write_text("((a,b),c);;\n((a,b),c);\n", encoding="utf-8")
        assert main(["frequent", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "empty tree statement" in captured.err
        assert "line 1, column 11" in captured.err


class TestBranchLengthErrors:
    def test_error_names_the_token_and_its_position(self):
        with pytest.raises(NewickError) as exc_info:
            parse_newick("(a,b,d:xyz);")
        error = exc_info.value
        assert "'xyz'" in str(error)
        assert (error.line, error.column, error.position) == (1, 8, 7)

    def test_trailing_junk_is_part_of_the_token(self):
        with pytest.raises(NewickError, match="'1.5x'") as exc_info:
            parse_forest("(a,b);\n(c,\n  d:1.5x);\n")
        assert (exc_info.value.line, exc_info.value.column) == (3, 5)

    def test_missing_length(self):
        with pytest.raises(NewickError, match="missing branch length"):
            parse_newick("(a:,b);")

    @pytest.mark.parametrize("token", ["inf", "nan", "1_0", "0x1"])
    def test_non_decimal_floats_rejected(self, token):
        with pytest.raises(NewickError, match="invalid branch length"):
            parse_newick(f"(a:{token},b);")

    @pytest.mark.parametrize(
        "token, value", [("1.", 1.0), (".5", 0.5), ("+2", 2.0), ("-1e-2", -0.01)]
    )
    def test_decimal_forms_accepted(self, token, value):
        tree = parse_newick(f"(a:{token},b);")
        assert min(n.length for n in tree.leaves() if n.length is not None) == value
