"""Newick tree serialization.

Phylogenies (for example those distributed by TreeBASE, the corpus the
paper mines) are conventionally exchanged in the Newick format::

    ((Gnetum,Welwitschia),Ephedra,(Angiosperms,Outgroup));

This module implements a self-contained parser and writer supporting the
common dialect:

- arbitrary multifurcations and nesting depth (iterative parser — no
  recursion limit);
- unquoted labels, ``'single-quoted'`` labels with ``''`` escapes;
- branch lengths introduced by ``:`` (decimal floats; anything else,
  such as ``:xyz``, is an error naming the token);
- bracketed comments ``[...]`` (skipped);
- whitespace anywhere between tokens;
- multiple semicolon-terminated trees in one string or file
  (:func:`parse_forest`); an empty statement there (``;;``) is an
  error rather than a phantom one-node tree.

Every :class:`~repro.errors.NewickError` raised here carries the
one-based line and column of the offending character.

It replaces the Biopython / ete3 dependency suggested by the
reproduction notes, which is unavailable in this offline environment.
"""

from __future__ import annotations

import re
from typing import Iterator

from repro.errors import NewickEmptyStatementError, NewickError
from repro.trees.tree import Node, Tree

__all__ = ["parse_newick", "parse_forest", "write_newick", "read_newick_file"]

_UNQUOTED_FORBIDDEN = set("()[]{}:;,'\t\n\r ")
_NEEDS_QUOTING = set("()[]{}:;,' \t\n\r")
_LENGTH = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")


class _Scanner:
    """Character scanner with comment and whitespace skipping."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(
        self,
        message: str,
        position: int | None = None,
        cls: type[NewickError] = NewickError,
    ) -> NewickError:
        """A ``cls`` error located at ``position`` (default: here)."""
        if position is None:
            position = self.pos
        text = self.text
        line = text.count("\n", 0, position) + 1
        column = position - text.rfind("\n", 0, position)
        return cls(message, position, line=line, column=column)

    def skip_filler(self) -> None:
        """Advance past whitespace and ``[...]`` comments."""
        text = self.text
        while self.pos < len(text):
            char = text[self.pos]
            if char.isspace():
                self.pos += 1
            elif char == "[":
                end = text.find("]", self.pos + 1)
                if end == -1:
                    raise self.error("unterminated comment")
                self.pos = end + 1
            else:
                return

    def peek(self) -> str | None:
        self.skip_filler()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take(self) -> str:
        char = self.peek()
        if char is None:
            raise self.error("unexpected end of input")
        self.pos += 1
        return char

    def expect(self, char: str) -> None:
        got = self.peek()
        if got != char:
            shown = "end of input" if got is None else repr(got)
            raise self.error(f"expected {char!r}, found {shown}")
        self.pos += 1

    def read_label(self) -> str | None:
        """Read a (possibly quoted) label, or ``None`` if absent."""
        char = self.peek()
        if char is None:
            return None
        if char == "'":
            return self._read_quoted()
        if char in _UNQUOTED_FORBIDDEN:
            return None
        start = self.pos
        text = self.text
        while self.pos < len(text) and text[self.pos] not in _UNQUOTED_FORBIDDEN:
            self.pos += 1
        return text[start : self.pos]

    def _read_quoted(self) -> str:
        self.pos += 1  # opening quote
        pieces: list[str] = []
        text = self.text
        while True:
            end = text.find("'", self.pos)
            if end == -1:
                raise self.error("unterminated quoted label")
            pieces.append(text[self.pos : end])
            self.pos = end + 1
            if self.pos < len(text) and text[self.pos] == "'":
                pieces.append("'")  # escaped quote
                self.pos += 1
            else:
                return "".join(pieces)

    def read_length(self) -> float | None:
        """Read a ``:length`` suffix if present."""
        if self.peek() != ":":
            return None
        self.pos += 1
        self.skip_filler()
        start = self.pos
        text = self.text
        while self.pos < len(text) and text[self.pos] not in _UNQUOTED_FORBIDDEN:
            self.pos += 1
        token = text[start : self.pos]
        if not token:
            raise self.error("missing branch length after ':'", start)
        if _LENGTH.fullmatch(token) is None:
            raise self.error(f"invalid branch length {token!r}", start)
        return float(token)


def parse_newick(text: str, name: str | None = None) -> Tree:
    """Parse a single Newick tree.

    Parameters
    ----------
    text:
        A Newick description.  The trailing semicolon is optional, but
        nothing other than filler may follow the tree.
    name:
        Optional name recorded on the returned :class:`Tree`.

    Returns
    -------
    Tree
        Identification numbers are assigned in the order nodes are
        opened in the input (preorder), starting at 0.

    Raises
    ------
    NewickError
        On any syntax error, with the character position.
    """
    scanner = _Scanner(text)
    tree = _parse_one(scanner, name)
    if scanner.peek() == ";":
        scanner.take()
    trailing = scanner.peek()
    if trailing is not None:
        raise scanner.error(f"unexpected trailing input {trailing!r}")
    return tree


def parse_forest(text: str, name_prefix: str = "tree") -> list[Tree]:
    """Parse every semicolon-terminated tree in ``text``.

    Trees are named ``{name_prefix}_0``, ``{name_prefix}_1``, ... in
    input order.  A statement with no tree in it (``;;``, or a leading
    ``;``) raises :class:`~repro.errors.NewickEmptyStatementError`:
    reading it as a one-node tree would shift every later index.
    """
    scanner = _Scanner(text)
    trees: list[Tree] = []
    while (char := scanner.peek()) is not None:
        if char == ";":
            raise scanner.error(
                "empty tree statement (stray ';')",
                cls=NewickEmptyStatementError,
            )
        tree = _parse_one(scanner, f"{name_prefix}_{len(trees)}")
        trees.append(tree)
        if scanner.peek() == ";":
            scanner.take()
        elif scanner.peek() is not None:
            raise scanner.error("expected ';' between trees")
    return trees


def read_newick_file(path: str) -> list[Tree]:
    """Read all trees from a Newick file (one or more per file)."""
    with open(path, encoding="utf-8") as handle:
        return parse_forest(handle.read())


def _parse_one(scanner: _Scanner, name: str | None) -> Tree:
    """Parse one tree, iteratively, leaving the scanner after its body."""
    tree = Tree(name=name)
    char = scanner.peek()
    if char is None:
        raise scanner.error("empty input")

    if char != "(":
        # A degenerate single-node tree such as "A;" — or a bare ";",
        # which this dialect reads as a single unlabeled node.
        label = scanner.read_label()
        if label is None and scanner.peek() not in (":", ";"):
            raise scanner.error(f"unexpected character {char!r}")
        root = tree.add_root(label=label)
        root.length = scanner.read_length()
        return tree

    root = tree.add_root()
    scanner.expect("(")
    stack: list[Node] = [root]
    # ``expecting_element`` is True right after '(' or ',', where the
    # grammar allows a subtree, a leaf, or an empty (unlabeled) leaf.
    expecting_element = True
    while stack:
        char = scanner.peek()
        if expecting_element:
            if char == "(":
                scanner.take()
                child = tree.add_child(stack[-1])
                stack.append(child)
            elif char in (",", ")"):
                # Empty element, e.g. "(,,(,))": an unlabeled leaf.
                tree.add_child(stack[-1])
                expecting_element = False
            elif char is None:
                raise scanner.error("unbalanced parentheses")
            else:
                label = scanner.read_label()
                length = scanner.read_length()
                tree.add_child(stack[-1], label=label, length=length)
                expecting_element = False
        else:
            if char == ",":
                scanner.take()
                expecting_element = True
            elif char == ")":
                scanner.take()
                node = stack.pop()
                node.label = scanner.read_label()
                node.length = scanner.read_length()
            elif char is None or char == ";":
                raise scanner.error("unbalanced parentheses")
            else:
                raise scanner.error(f"unexpected character {char!r}")
    return tree


def _format_label(label: str) -> str:
    """Quote a label when the Newick grammar requires it.

    Quoting triggers on grammar metacharacters, any Unicode whitespace
    (the scanner skips whitespace between tokens, including exotic
    separators like ``\\x1f``), and unprintable characters.
    """
    plain = label and not any(
        char in _NEEDS_QUOTING or char.isspace() or not char.isprintable()
        for char in label
    )
    if plain:
        return label
    escaped = label.replace("'", "''")
    return f"'{escaped}'"


def _format_length(length: float | None, include: bool) -> str:
    if length is None or not include:
        return ""
    if length == int(length):
        return f":{int(length)}"
    return f":{length:g}"


def write_newick(
    tree: Tree,
    include_lengths: bool = True,
    include_internal_labels: bool = True,
) -> str:
    """Serialise a tree back to Newick, ending with ``;``.

    Children are written in stored order; since the trees are unordered,
    round-tripping preserves identity up to
    :meth:`~repro.trees.tree.Tree.canonical_form`.
    """
    if tree.root is None:
        return ";"
    pieces: list[str] = []
    # Iterative serialisation: emit open/close markers via a work stack.
    stack: list[tuple[Node, str]] = [(tree.root, "visit")]
    while stack:
        node, action = stack.pop()
        if action == "text":
            pieces.append(node_text(node, include_lengths, include_internal_labels))
            continue
        if action == "comma":
            pieces.append(",")
            continue
        if node.is_leaf:
            label = _format_label(node.label) if node.label is not None else ""
            pieces.append(label + _format_length(node.length, include_lengths))
            continue
        pieces.append("(")
        stack.append((node, "text"))
        children = node.children
        for position, child in enumerate(reversed(children)):
            stack.append((child, "visit"))
            if position != len(children) - 1:
                stack.append((child, "comma"))
    return "".join(pieces) + ";"


def node_text(node: Node, include_lengths: bool, include_internal_labels: bool) -> str:
    """The closing text of an internal node: ``)label:length``."""
    label = ""
    if include_internal_labels and node.label is not None:
        label = _format_label(node.label)
    return ")" + label + _format_length(node.length, include_lengths)
