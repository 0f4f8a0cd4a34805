"""Sources of the initial hypothesized world model.

Covers parsing recipe-dictionary text as emitted by a code LLM (tolerant
dict-literal grammar with per-entry skip-and-report), alias normalization,
building belief graphs from parsed entries, the empty (no-guidance)
hypothesis, controlled error injection into the ground truth, and accuracy
scoring against the truth.
"""
from __future__ import annotations

import re
import statistics
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from random import Random
from typing import NamedTuple

from .awm import Awm, AwmEdge, NodeBelief, remove_cycles
from .tech_tree import (
    INGREDIENT,
    TOOL,
    WORKBENCH,
    ParentSpec,
    TechTree,
    parent_specs,
)


class DocumentSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParsedEntry(NamedTuple):
    item: str
    requires_crafting_table: bool = False
    requires_furnace: bool = False
    required_tool: str | None = None
    recipe: tuple[tuple[str, int], ...] = ()  # empty for a collectable item


@dataclass(frozen=True)
class SkippedEntry:
    key: str
    line: int
    reason: str


@dataclass
class ParseResult:
    """The entries a document parsed to, and the entries it skipped.

    A skip is held as its key, the index of the token it reports and its
    reason. Its line is found in the text when `skipped` is first read, so a
    reader of `entries` alone never pays for the positions.
    """

    entries: list[ParsedEntry]
    text: str = field(repr=False)
    skips: list[tuple[str, int, str]] = field(repr=False)

    @cached_property
    def skipped(self) -> list[SkippedEntry]:
        # Each skip moves the parser past the token it reports, so the indices increase.
        offsets = _token_offsets(self.text, [index for _, index, _ in self.skips])
        return [
            SkippedEntry(key, _line_column(self.text, offset)[0], reason)
            for (key, _, reason), offset in zip(self.skips, offsets)
        ]


# ---------------------------------------------------------------------------
# Tokenizer / parser for the pinned dict-literal grammar: double-quoted string
# keys, True/False/None literals, integer or quoted-integer quantities,
# brackets and braces, tolerated trailing commas, '#' line comments.
#
# A token is its lexeme: a string keeps its quotes and escapes, and the end of
# the document is the empty lexeme. Positions are found only when a skip list
# or an error is read: a syntax error finds its own at once, and a skipped
# entry's line is found when `ParseResult.skipped` is first read. A token's
# line is 1 plus the newlines before it, its column 1 plus the characters since
# the last of them; the end of the document is the position after its last
# character.
# ---------------------------------------------------------------------------

_LEXEME = r"""
      "[^"\\\n]*+(?:\\.[^"\\\n]*+)*+"  # string: a backslash escapes any character
    | [{}\[\],:=]                      # punctuation
    | -?\d++                           # integer
    | [^\W\d]\w*+                      # name
"""
_GAP = r"[ \t\r\n]*+(?:\#[^\n]*+[ \t\r\n]*+)*+"  # whitespace and comments
# One match per token: the gap before it, then its lexeme. A character that
# starts no token takes the rest of the text as its lexeme, and the end of the
# text is the empty lexeme. Every repeat is possessive (`*+`, `++`), so the
# engine keeps no state to backtrack into: no match ever needs a repeat to give
# characters back, since a string's runs stop at the quote or backslash that
# must follow them, and after the gap `.+` or `\Z` always matches.
_TOKEN = re.compile(_GAP + r"(" + _LEXEME + r"| .+ | \Z)", re.S | re.X)
_WHOLE_LEXEME = re.compile(_LEXEME, re.S | re.X)
_NAME_START = re.compile(r"[^\W\d]")
_ESCAPE = re.compile(r"\\(.)", re.S)
_LITERALS = {"True": True, "False": False, "None": None}


def _tokenize(text: str) -> list[str]:
    lexemes = _TOKEN.findall(text)
    rest = lexemes[-2] if len(lexemes) > 1 else ""
    if rest and not _WHOLE_LEXEME.fullmatch(rest):
        message = "unterminated string" if rest[0] == '"' else f"unexpected character {rest[0]!r}"
        raise DocumentSyntaxError(message, *_line_column(text, len(text) - len(rest)))
    return lexemes


def _line_column(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _token_offsets(text: str, indices: list[int]) -> list[int]:
    """Offsets of the tokens at the given increasing indices, in one pass
    over the tokens up to the last of them."""
    wanted = set(indices)
    scan = zip(range(max(indices, default=-1) + 1), _TOKEN.finditer(text))
    return [match.start(1) for n, match in scan if n in wanted]


def _syntax_error(text: str, message: str, index: int) -> DocumentSyntaxError:
    (offset,) = _token_offsets(text, [index])
    return DocumentSyntaxError(message, *_line_column(text, offset))


def _int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's limit on integer digits, quoted or not
        raise ValueError(f"integer of {len(digits.lstrip('-'))} digits is too long") from None


def _string_value(lexeme: str) -> str:
    body = lexeme[1:-1]
    return _ESCAPE.sub(r"\1", body) if "\\" in body else body


class _EntryError(ValueError):
    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index  # of the token at fault


def _colon_error(tokens: list[str], index: int) -> _EntryError:
    tok = tokens[index]
    found = _string_value(tok) if tok[:1] == '"' else tok
    return _EntryError(f"expected ':', found {found!r}", index)


def _value(tokens: list[str], i: int):
    """The value whose first token is tokens[i], and the index after it. The
    value is a dict, list, str, int, bool or None, and nothing else; the end
    of the document, the empty lexeme, is an unexpected token."""
    tok = tokens[i]
    if tok[:1] == '"':
        return _string_value(tok), i + 1
    if tok == "{":
        mapping = {}
        i += 1
        while (key := tokens[i]) != "}":
            if key[:1] != '"':
                raise _EntryError("expected double-quoted key", i)
            if tokens[i + 1] != ":":
                raise _colon_error(tokens, i + 1)
            value, i = _value(tokens, i + 2)
            key = key[1:-1]  # decoded here, as `_string_value` would, for the many keys
            mapping[_ESCAPE.sub(r"\1", key) if "\\" in key else key] = value
            if tokens[i] == ",":
                i += 1
            elif tokens[i] != "}":
                raise _EntryError("expected ',' or '}'", i)
        return mapping, i + 1
    if tok == "[":
        values = []
        i += 1
        while tokens[i] != "]":
            value, i = _value(tokens, i)
            values.append(value)
            if tokens[i] == ",":
                i += 1
            elif tokens[i] != "]":
                raise _EntryError("expected ',' or ']'", i)
        return values, i + 1
    if tok in _LITERALS:
        return _LITERALS[tok], i + 1
    if tok[:1] == "-" or tok[:1].isdecimal():
        try:
            return _int(tok), i + 1
        except ValueError as exc:
            raise _EntryError(str(exc), i) from None
    if _NAME_START.match(tok):
        raise _EntryError(f"unexpected name {tok!r}", i)
    raise _EntryError(f"unexpected token {tok!r}", i)


def _skip_entry(tokens: list[str], i: int) -> int:
    """The index after a broken entry whose key is just before tokens[i]: an
    optional ':', one balanced value (brace/bracket matching), and a trailing
    comma."""
    if tokens[i] == ":":
        i += 1
    tok = tokens[i]
    if tok:
        i += 1
    if tok in ("{", "["):
        depth = 1
        while depth and (tok := tokens[i]):
            i += 1
            if tok in ("{", "["):
                depth += 1
            elif tok in ("}", "]"):
                depth -= 1
    if tokens[i] == ",":
        i += 1
    return i


def _coerce_quantity(raw) -> int:
    if isinstance(raw, bool):
        raise ValueError("quantity must be an integer")
    if isinstance(raw, int):
        qty = raw
    elif isinstance(raw, str) and raw.strip().isdecimal():
        qty = _int(raw.strip())
    else:
        raise ValueError(f"bad quantity {raw!r}")
    if qty < 1:
        raise ValueError(f"non-positive quantity {qty}")
    return qty


def _coerce_flag(flag: str, raw) -> bool:
    """A workbench flag that is not a bare boolean: True or False quoted like
    a quantity, or an error."""
    if type(raw) is str and raw.strip() in ("True", "False"):
        return raw.strip() == "True"
    raise ValueError(f"{flag} must be True or False, not {raw!r}")


def _entry_from_body(key: str, body) -> ParsedEntry:
    """The entry a body from `_value` gives. The checks fire in a fixed order,
    so the first fault is the one reported; since `_value` builds no
    subclasses, each type is tested exactly."""
    if type(body) is not dict:
        raise ValueError("entry body is not a map")
    try:
        raw_recipe = body["recipe"]
    except KeyError:
        raise ValueError("missing recipe key") from None
    if type(raw_recipe) is not list:
        raise ValueError("recipe is not a list")
    recipe = []
    for element in raw_recipe:
        if type(element) is not dict:
            raise ValueError("recipe entries need item and quantity")
        try:
            ingredient = element["item"]
            quantity = element["quantity"]
        except KeyError:
            raise ValueError("recipe entries need item and quantity") from None
        if type(ingredient) is not str or not ingredient:
            raise ValueError("recipe item must be a non-empty string")
        if type(quantity) is not int or quantity < 1:  # the plain case needs no coercion
            quantity = _coerce_quantity(quantity)
        recipe.append((ingredient, quantity))
    tool = body.get("required_tool")
    if tool is not None and type(tool) is not str:
        raise ValueError("required_tool must be a string or None")
    # An absent flag is False.
    table = body.get("requires_crafting_table", False)
    if type(table) is not bool:
        table = _coerce_flag("requires_crafting_table", table)
    furnace = body.get("requires_furnace", False)
    if type(furnace) is not bool:
        furnace = _coerce_flag("requires_furnace", furnace)
    return ParsedEntry(key, table, furnace, tool, tuple(recipe))


def parse_recipe_dict(text: str) -> ParseResult:
    """Parse a recipe-dictionary document into entries.

    One entry per top-level key; entries that fail to parse or violate the
    schema are skipped and reported rather than failing the document.
    """
    tokens = _tokenize(text)
    # Optional `identifier =` assignment prefix.
    i = 2 if _NAME_START.match(tokens[0]) and tokens[1] == "=" else 0
    if tokens[i] != "{":
        raise _syntax_error(text, "document must be a dictionary literal", i)
    i += 1

    entries: list[ParsedEntry] = []
    skips: list[tuple[str, int, str]] = []
    # The empty lexeme ends a truncated document: keep what parsed.
    while (tok := tokens[i]) not in ("", "}"):
        key_index = i
        if tok[0] != '"':
            raise _syntax_error(text, f"expected entry key, found {tok!r}", key_index)
        key = _string_value(tok)
        i += 1
        try:
            if tokens[i] != ":":
                raise _colon_error(tokens, i)
            body, i = _value(tokens, i + 1)
            entries.append(_entry_from_body(key, body))
        except _EntryError as exc:
            skips.append((key, exc.index, str(exc)))
            i = _skip_entry(tokens, key_index + 1)
            continue
        except RecursionError:
            skips.append((key, key_index, "entry nested too deeply"))
            i = _skip_entry(tokens, key_index + 1)
            continue
        except ValueError as exc:
            skips.append((key, key_index, str(exc)))
        if tokens[i] == ",":
            i += 1

    return ParseResult(entries, text, skips)


def _quoted(name: str) -> str:
    """The string token for a name: backslash, quote and newline escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\\n") + '"'


def serialize_recipe_dict(entries: list[ParsedEntry]) -> str:
    """Canonical `item_info = {...}` document for a list of entries; parsing
    it back yields the same entries (round trips are lossless modulo
    whitespace)."""
    lines = ["item_info = {"]
    for e in entries:
        lines.append(f"    {_quoted(e.item)}: {{")
        lines.append(f'        "requires_crafting_table": {e.requires_crafting_table},')
        lines.append(f'        "requires_furnace": {e.requires_furnace},')
        tool = _quoted(e.required_tool) if e.required_tool is not None else "None"
        lines.append(f'        "required_tool": {tool},')
        if e.recipe:
            lines.append('        "recipe": [')
            for ingredient, qty in e.recipe:
                lines.append("            {")
                lines.append(f'                "item": {_quoted(ingredient)},')
                lines.append(f'                "quantity": {qty}')
                lines.append("            },")
            lines.append("        ]")
        else:
            lines.append('        "recipe": []')
        lines.append("    },")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Alias normalization
# ---------------------------------------------------------------------------

# Literal names or '*suffix' patterns, applied after lowercasing and
# space-to-underscore canonicalization.
DEFAULT_ALIASES: dict[str, str] = {
    "plank": "planks",
    "wood": "planks",
    "*_plank": "planks",
    "*_planks": "planks",
    "*_wood": "planks",
    "cane": "reeds",
}


def normalize_aliases(entries: list[ParsedEntry]) -> list[ParsedEntry]:
    """Rewrite every item and ingredient name through `DEFAULT_ALIASES`; the
    first occurrence wins when normalization creates duplicates."""
    suffixes = [(pattern[1:], target) for pattern, target in DEFAULT_ALIASES.items() if pattern.startswith("*")]
    any_suffix = tuple(suffix for suffix, _ in suffixes)
    resolved: dict[str, str] = {}  # each distinct name is looked up once
    known = resolved.get

    def alias(name: str) -> str:
        """The canonical name of a name not yet in `resolved`."""
        canon = name.strip().lower().replace(" ", "_")
        if canon in DEFAULT_ALIASES:
            canon = DEFAULT_ALIASES[canon]
        elif canon.endswith(any_suffix):  # the first matching pattern wins
            canon = next(target for suffix, target in suffixes if canon.endswith(suffix))
        resolved[name] = canon
        return canon

    out: list[ParsedEntry] = []
    seen: set[str] = set()
    # A name that resolved to "" is looked up again: `alias` gives "" again.
    for e in entries:
        item = known(e.item) or alias(e.item)
        if item in seen:
            continue
        seen.add(item)
        tool = e.required_tool
        tool = (known(tool) or alias(tool)) if tool else None
        recipe = tuple([(known(i) or alias(i), q) for i, q in e.recipe])
        if item != e.item or tool != e.required_tool or recipe != e.recipe:
            e = ParsedEntry(item, e.requires_crafting_table, e.requires_furnace, tool, recipe)
        out.append(e)  # an entry whose names do not change is kept as it is
    return out


# ---------------------------------------------------------------------------
# Belief-graph builders
# ---------------------------------------------------------------------------


def build_hypothesized_awm(entries: list[ParsedEntry], universe: set[str]) -> Awm:
    """Assemble the hypothesized belief graph from normalized entries.

    Nodes are the universe plus every name an entry mentions; a node without
    an entry of its own keeps the unknown belief. The graph is constructed
    once from the collected nodes and beliefs and the edges that cycle
    removal keeps, and everything starts unverified.
    """
    nodes = set(universe)  # the graph sorts its nodes, so their order here is free
    edges: list[AwmEdge] = []
    append = edges.append
    beliefs: dict[str, NodeBelief] = {}
    # One belief per label, shared: a belief is replaced, never changed in place.
    labelled = {True: NodeBelief(collectable=True), False: NodeBelief(collectable=False)}

    for item, table, furnace, tool, recipe in entries:
        nodes.add(item)
        merged: dict[str, int] = {}
        for ingredient, qty in recipe:
            merged[ingredient] = merged.get(ingredient, 0) + qty
        for parent, kind, qty in parent_specs(merged.items(), tool, table, furnace):
            if parent != item:  # self references carry no information
                nodes.add(parent)
                append(AwmEdge(parent, item, kind, qty))
        beliefs[item] = labelled[not recipe]
    return Awm(nodes, remove_cycles(edges), beliefs)


def empty_hypothesis(universe: set[str]) -> Awm:
    """The no-guidance configuration: all nodes, zero edges, zero verified."""
    return Awm(universe)


def ground_truth_awm(tree: TechTree) -> Awm:
    """Exact dependency graph of the tree as an unverified hypothesis,
    including true yields and collectability labels. Items with the same
    label and yield share one belief."""
    labels = {key: NodeBelief(*key) for key in {(d.collectable, d.craft_yield) for d in tree.items.values()}}
    return Awm(
        nodes=tree.items,
        edges=(
            AwmEdge(parent, item, kind, qty)
            for item in tree.items
            for parent, kind, qty in tree.ground_truth_parents(item)
        ),
        beliefs={item: labels[d.collectable, d.craft_yield] for item, d in tree.items.items()},
    )


def check_rate(rate: float) -> None:
    """The rule for an insert or a delete rate; NaN fails it."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate {rate!r} does not lie in [0, 1]")


def perturb_ground_truth(tree: TechTree, insert_rate: float, delete_rate: float, seed: int = 0) -> Awm:
    """Inject edge errors into the exact graph: per item, in the graph's name
    order, with insert_rate add an ingredient edge from the distractor, the
    tree's first parentless item by name, and with delete_rate drop one
    uniformly chosen incoming edge. Both rates are checked first.
    Deterministic under the seed. The result is one graph built on the
    exact graph's nodes and beliefs and the edited edges. No edge enters the
    distractor, so no inserted edge can close a cycle."""
    check_rate(insert_rate)
    check_rate(delete_rate)
    distractor = min(i for i in tree.items if not tree.ground_truth_parents(i))
    truth = ground_truth_awm(tree)
    rng = Random(seed)
    edges: list[AwmEdge] = []
    for item in truth.nodes:
        incoming = set(truth.parents_of(item))
        if item != distractor and rng.random() < insert_rate:
            incoming.add(AwmEdge(distractor, item, INGREDIENT, 1))
        if rng.random() < delete_rate and incoming:
            incoming.remove(rng.choice(sorted(incoming)))
        edges.extend(incoming)
    return Awm(truth.nodes, edges, {item: truth.belief(item) for item in truth.nodes})


# ---------------------------------------------------------------------------
# Scoring against the ground truth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AccuracyReport:
    collectable_vs_craftable_acc: float
    workbench_acc: float
    recipe_items_acc: float
    recipe_exact_acc: float
    pct_items_inserted_deps: float
    pct_items_missing_deps: float
    qty_abs_error: float
    qty_avg_error: float
    qty_std: float
    n_items: int


def _by_kind(parents: Iterable[ParentSpec]) -> dict[str, dict[str, int]]:
    """kind -> parent -> quantity; a parent listed twice keeps its last quantity."""
    split: dict[str, dict[str, int]] = {INGREDIENT: {}, TOOL: {}, WORKBENCH: {}}
    for parent, kind, quantity in parents:
        split.setdefault(kind, {})[parent] = quantity
    return split


def score_hypothesis(predicted: Awm, tree: TechTree) -> AccuracyReport:
    """Compare a hypothesized graph against the ground truth over every tree
    item. Items absent from the prediction count as fully wrong."""
    items = tree.names()  # a loaded tree has at least one item

    label_hits = workbench_hits = items_hits = exact_hits = 0
    inserted = missing = 0
    qty_errors: list[float] = []

    for item in items:
        truth_parents = tree.ground_truth_parents(item)
        truth_parent_ids = {p for p, _, _ in truth_parents}
        if item not in predicted.nodes:
            if truth_parent_ids:
                missing += 1
            continue  # all-wrong: contributes to every denominator, no hits

        pred_parents = [(e.parent, e.kind, e.quantity) for e in predicted.parents_of(item)]
        pred_parent_ids = {p for p, _, _ in pred_parents}
        truth, pred = _by_kind(truth_parents), _by_kind(pred_parents)

        if predicted.believed_collectable(item) == tree.definition(item).collectable:
            label_hits += 1
        if pred[WORKBENCH].keys() == truth[WORKBENCH].keys():
            workbench_hits += 1
        if pred[INGREDIENT].keys() == truth[INGREDIENT].keys() and pred[TOOL].keys() == truth[TOOL].keys():
            items_hits += 1
            if pred[INGREDIENT] == truth[INGREDIENT]:
                exact_hits += 1
        if pred_parent_ids - truth_parent_ids:
            inserted += 1
        if truth_parent_ids - pred_parent_ids:
            missing += 1
        for ingredient, pred_qty in pred[INGREDIENT].items():
            if ingredient in truth[INGREDIENT]:
                qty_errors.append(float(pred_qty - truth[INGREDIENT][ingredient]))

    n = len(items)
    pct = lambda hits: 100.0 * hits / n
    return AccuracyReport(
        collectable_vs_craftable_acc=pct(label_hits),
        workbench_acc=pct(workbench_hits),
        recipe_items_acc=pct(items_hits),
        recipe_exact_acc=pct(exact_hits),
        pct_items_inserted_deps=pct(inserted),
        pct_items_missing_deps=pct(missing),
        qty_abs_error=statistics.mean(abs(e) for e in qty_errors) if qty_errors else 0.0,
        qty_avg_error=statistics.mean(qty_errors) if qty_errors else 0.0,
        qty_std=statistics.pstdev(qty_errors) if qty_errors else 0.0,
        n_items=n,
    )
