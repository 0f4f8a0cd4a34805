"""Sources of the initial hypothesized world model.

Covers parsing recipe-dictionary text as emitted by a code LLM (tolerant
dict-literal grammar with per-entry skip-and-report), alias normalization,
building belief graphs from parsed entries, the empty (no-guidance)
hypothesis, controlled error injection into the ground truth, accuracy
scoring against the truth, and an optional live completion-endpoint fetcher.
"""
from __future__ import annotations

import json
import os
import re
import statistics
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from itertools import islice
from random import Random

from .awm import Awm, AwmEdge, NodeBelief, break_cycles, remove_cycles
from .tech_tree import (
    CRAFTING_TABLE,
    FURNACE,
    INGREDIENT,
    TOOL,
    WORKBENCH,
    TechTree,
)


class DocumentSyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class ParsedEntry:
    item: str
    requires_crafting_table: bool = False
    requires_furnace: bool = False
    required_tool: str | None = None
    recipe: tuple[tuple[str, int], ...] = ()

    @property
    def collectable(self) -> bool:
        # A recipe of length zero marks a collectable item.
        return not self.recipe


@dataclass(frozen=True)
class SkippedEntry:
    key: str
    line: int
    reason: str


@dataclass
class ParseResult:
    entries: list[ParsedEntry]
    skipped: list[SkippedEntry] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Tokenizer / parser for the pinned dict-literal grammar: double-quoted string
# keys, True/False/None literals, integer or quoted-integer quantities,
# brackets and braces, tolerated trailing commas, '#' line comments.
#
# A token is its lexeme: a string keeps its quotes and escapes, and the end of
# the document is the empty lexeme. Positions are computed only when one is
# reported. A token's line is 1 plus the newlines before it, its column 1 plus
# the characters since the last of them; the end of the document is the
# position after its last character.
# ---------------------------------------------------------------------------

_LEXEME = r"""
      "[^"\\\n]*(?:\\.[^"\\\n]*)*"  # string: a backslash escapes any character
    | [{}\[\],:=]                   # punctuation
    | -?\d+                         # integer
    | [^\W\d]\w*                    # name
"""
# One match per token: the whitespace and comments before it, then its
# lexeme. A character that starts no token takes the rest of the text as its
# lexeme, and the end of the text is the empty lexeme.
_TOKEN = re.compile(r"[ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*(" + _LEXEME + r"| .+ | \Z)", re.S | re.X)
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


def _token_offsets(text: str, indices: list[int]):
    """Offsets of the tokens at the given increasing indices, from one more
    pass of the tokenizer up to the last of them."""
    matches = _TOKEN.finditer(text)
    done = 0
    for index in indices:
        yield next(islice(matches, index - done, None)).start(1)
        done = index + 1


def _syntax_error(text: str, message: str, index: int) -> DocumentSyntaxError:
    (offset,) = _token_offsets(text, [index])
    return DocumentSyntaxError(message, *_line_column(text, offset))


def _string_value(lexeme: str) -> str:
    body = lexeme[1:-1]
    return _ESCAPE.sub(r"\1", body) if "\\" in body else body


class _EntryError(ValueError):
    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index  # of the token at fault


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos]

    def next(self) -> str:
        tok = self.tokens[self.pos]
        if tok:  # the end of the document is never consumed
            self.pos += 1
        return tok

    def expect(self, lexeme: str) -> None:
        index = self.pos
        tok = self.next()
        if tok != lexeme:
            found = _string_value(tok) if tok[:1] == '"' else tok
            raise _EntryError(f"expected {lexeme!r}, found {found!r}", index)

    def parse_value(self):
        index = self.pos
        tok = self.next()
        if tok[:1] == '"':
            return _string_value(tok)
        if tok == "[":
            values = []
            while True:
                if self.peek() == "]":
                    self.pos += 1
                    return values
                values.append(self.parse_value())
                nxt = self.peek()
                if nxt == ",":
                    self.pos += 1
                elif nxt != "]":
                    raise _EntryError("expected ',' or ']'", self.pos)
        if tok == "{":
            mapping = {}
            while True:
                key = self.peek()
                if key == "}":
                    self.pos += 1
                    return mapping
                if key[:1] != '"':
                    raise _EntryError("expected double-quoted key", self.pos)
                self.pos += 1
                self.expect(":")
                mapping[_string_value(key)] = self.parse_value()
                nxt = self.peek()
                if nxt == ",":
                    self.pos += 1
                elif nxt != "}":
                    raise _EntryError("expected ',' or '}'", self.pos)
        if tok in _LITERALS:
            return _LITERALS[tok]
        if tok[:1] == "-" or tok[:1].isdecimal():
            return int(tok)
        if _NAME_START.match(tok):
            raise _EntryError(f"unexpected name {tok!r}", index)
        raise _EntryError(f"unexpected token {tok!r}", index)

    def skip_entry_from(self, entry_start: int) -> None:
        """Abandon a broken entry: rewind to just after its key, skip one
        balanced value (brace/bracket matching), and a trailing comma."""
        self.pos = entry_start
        if self.peek() == ":":
            self.pos += 1
        if self.next() in ("{", "["):
            depth = 1
            while depth and self.peek():
                tok = self.next()
                if tok in ("{", "["):
                    depth += 1
                elif tok in ("}", "]"):
                    depth -= 1
        if self.peek() == ",":
            self.pos += 1


def _coerce_quantity(raw) -> int:
    if isinstance(raw, bool):
        raise ValueError("quantity must be an integer")
    if isinstance(raw, int):
        qty = raw
    elif isinstance(raw, str) and raw.strip().isdigit():
        qty = int(raw.strip())
    else:
        raise ValueError(f"bad quantity {raw!r}")
    if qty < 1:
        raise ValueError(f"non-positive quantity {qty}")
    return qty


def _entry_from_body(key: str, body) -> ParsedEntry:
    if not isinstance(body, dict):
        raise ValueError("entry body is not a map")
    if "recipe" not in body:
        raise ValueError("missing recipe key")
    raw_recipe = body["recipe"]
    if not isinstance(raw_recipe, list):
        raise ValueError("recipe is not a list")
    recipe = []
    for element in raw_recipe:
        if not isinstance(element, dict) or "item" not in element or "quantity" not in element:
            raise ValueError("recipe entries need item and quantity")
        ingredient = element["item"]
        if not isinstance(ingredient, str) or not ingredient:
            raise ValueError("recipe item must be a non-empty string")
        recipe.append((ingredient, _coerce_quantity(element["quantity"])))
    tool = body.get("required_tool")
    if tool is not None and not isinstance(tool, str):
        raise ValueError("required_tool must be a string or None")
    return ParsedEntry(
        item=key,
        requires_crafting_table=bool(body.get("requires_crafting_table", False)),
        requires_furnace=bool(body.get("requires_furnace", False)),
        required_tool=tool,
        recipe=tuple(recipe),
    )


def parse_recipe_dict(text: str) -> ParseResult:
    """Parse a recipe-dictionary document into entries.

    One entry per top-level key; entries that fail to parse or violate the
    schema are skipped and reported rather than failing the document.
    """
    tokens = _tokenize(text)
    parser = _Parser(tokens)

    # Optional `identifier =` assignment prefix.
    if _NAME_START.match(tokens[0]) and tokens[1] == "=":
        parser.pos = 2

    opening = parser.pos
    if parser.next() != "{":
        raise _syntax_error(text, "document must be a dictionary literal", opening)

    entries: list[ParsedEntry] = []
    skipped: list[tuple[str, int, str]] = []  # key, index of the token to report, reason
    while True:
        key_index = parser.pos
        tok = parser.next()
        if tok in ("", "}"):
            break  # the empty lexeme ends a truncated document: keep what parsed
        if tok[0] != '"':
            raise _syntax_error(text, f"expected entry key, found {tok!r}", key_index)
        key = _string_value(tok)
        entry_start = parser.pos
        try:
            parser.expect(":")
            entries.append(_entry_from_body(key, parser.parse_value()))
        except _EntryError as exc:
            skipped.append((key, exc.index, str(exc)))
            parser.skip_entry_from(entry_start)
            continue
        except RecursionError:
            skipped.append((key, key_index, "entry nested too deeply"))
            parser.skip_entry_from(entry_start)
            continue
        except ValueError as exc:
            skipped.append((key, key_index, str(exc)))
        if parser.peek() == ",":
            parser.pos += 1

    # Each skip moves the parser past the token it reports, so the indices increase.
    result = ParseResult(entries=entries)
    line, last = 1, 0
    for (key, _, reason), offset in zip(skipped, _token_offsets(text, [index for _, index, _ in skipped])):
        line += text.count("\n", last, offset)
        last = offset
        result.skipped.append(SkippedEntry(key=key, line=line, reason=reason))
    return result


def _quoted(name: str) -> str:
    """The string token for a name: backslash, quote and newline escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\\n") + '"'


def serialize_recipe_dict(entries: list[ParsedEntry], name: str = "item_info") -> str:
    """Canonical document for a list of entries; parsing it back yields the
    same entries (round trips are lossless modulo whitespace)."""
    lines = [f"{name} = {{"]
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


def _apply_alias(name: str, alias_map: dict[str, str]) -> str:
    canon = name.strip().lower().replace(" ", "_")
    if canon in alias_map:
        return alias_map[canon]
    for pattern, target in alias_map.items():
        if pattern.startswith("*") and canon.endswith(pattern[1:]):
            return target
    return canon


def normalize_aliases(
    entries: list[ParsedEntry], alias_map: dict[str, str] | None = None
) -> list[ParsedEntry]:
    """Rewrite every item and ingredient name through the alias table; the
    first occurrence wins when normalization creates duplicates."""
    table = DEFAULT_ALIASES if alias_map is None else alias_map
    resolved: dict[str, str] = {}  # each distinct name is looked up once

    def alias(name: str) -> str:
        if name not in resolved:
            resolved[name] = _apply_alias(name, table)
        return resolved[name]

    out: list[ParsedEntry] = []
    seen: set[str] = set()
    for e in entries:
        item = alias(e.item)
        if item in seen:
            continue
        seen.add(item)
        out.append(
            ParsedEntry(
                item=item,
                requires_crafting_table=e.requires_crafting_table,
                requires_furnace=e.requires_furnace,
                required_tool=alias(e.required_tool) if e.required_tool else None,
                recipe=tuple((alias(i), q) for i, q in e.recipe),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Belief-graph builders
# ---------------------------------------------------------------------------


def build_hypothesized_awm(entries: list[ParsedEntry], universe: set[str]) -> Awm:
    """Assemble the hypothesized belief graph from normalized entries.

    Nodes are the universe plus every name an entry mentions; dangling
    ingredient names become definition-less nodes. Cycle removal is applied,
    and everything starts unverified.
    """
    awm = Awm(nodes=universe)

    def add(parent: str, child: str, kind: str, quantity: int) -> None:
        awm.add_node(parent)
        awm.add_edge(AwmEdge(parent, child, kind, quantity))

    for e in entries:
        awm.add_node(e.item)
        merged: dict[str, int] = {}
        for ingredient, qty in e.recipe:
            if ingredient == e.item:
                continue  # self references carry no information
            merged[ingredient] = merged.get(ingredient, 0) + qty
        for ingredient, qty in merged.items():
            add(ingredient, e.item, INGREDIENT, qty)
        if e.required_tool and e.required_tool != e.item:
            add(e.required_tool, e.item, TOOL, 1)
        if e.requires_crafting_table and e.item != CRAFTING_TABLE:
            add(CRAFTING_TABLE, e.item, WORKBENCH, 1)
        if e.requires_furnace and e.item != FURNACE:
            add(FURNACE, e.item, WORKBENCH, 1)
        awm.beliefs[e.item] = NodeBelief(collectable=e.collectable)
    for node in awm.nodes:
        awm.beliefs.setdefault(node, NodeBelief())
    break_cycles(awm)
    return awm


def empty_hypothesis(universe: set[str]) -> Awm:
    """The no-guidance configuration: all nodes, zero edges, zero verified."""
    return Awm(nodes=universe, beliefs={node: NodeBelief() for node in universe})


def ground_truth_awm(tree: TechTree) -> Awm:
    """Exact dependency graph of the tree as an unverified hypothesis,
    including true yields and collectability labels."""
    return Awm(
        nodes=tree.items,
        edges=(
            AwmEdge(parent, item, kind, qty)
            for item in tree.items
            for parent, kind, qty in tree.ground_truth_parents(item)
        ),
        beliefs={
            item: NodeBelief(collectable=d.collectable, craft_yield=d.craft_yield if not d.collectable else 1)
            for item, d in tree.items.items()
        },
    )


@dataclass(frozen=True)
class ErrorSpec:
    """Controlled corruption of a ground-truth belief graph."""

    insert_rate: float
    delete_rate: float
    distractor: str = "sand"
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.insert_rate <= 1.0 or not 0.0 <= self.delete_rate <= 1.0:
            raise ValueError("rates must lie in [0, 1]")


def perturb_ground_truth(tree: TechTree, spec: ErrorSpec) -> Awm:
    """Inject edge errors into the exact graph: per item, with insert_rate add
    a distractor ingredient edge, and with delete_rate drop one uniformly
    chosen incoming edge. Deterministic under the spec seed."""
    if spec.distractor not in tree:
        raise ValueError(f"distractor '{spec.distractor}' not in tree")
    awm = ground_truth_awm(tree)
    rng = Random(spec.seed)
    for item in sorted(awm.nodes):
        if item != spec.distractor and rng.random() < spec.insert_rate:
            awm.add_edge(AwmEdge(spec.distractor, item, INGREDIENT, 1))
        if rng.random() < spec.delete_rate:
            incoming = awm.parents_of(item)
            if incoming:
                awm.discard_edge(incoming[rng.randrange(len(incoming))])
    if not awm.is_acyclic():
        awm = remove_cycles(awm)  # unreachable with the default sand distractor
    return awm


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

    FIELDS = (
        "collectable_vs_craftable_acc",
        "workbench_acc",
        "recipe_items_acc",
        "recipe_exact_acc",
        "pct_items_inserted_deps",
        "pct_items_missing_deps",
        "qty_abs_error",
        "qty_avg_error",
        "qty_std",
        "n_items",
    )

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in self.FIELDS}

    def to_text(self) -> str:
        return "".join(f"{k}={v}\n" for k, v in self.as_dict().items())

    def to_csv(self) -> str:
        header = ",".join(self.FIELDS)
        row = ",".join(_fmt_num(getattr(self, name)) for name in self.FIELDS)
        return f"{header}\n{row}\n"


def _fmt_num(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6f}"


def score_hypothesis(predicted: Awm, tree: TechTree, subset: set[str]) -> AccuracyReport:
    """Compare a hypothesized graph against the ground truth over a subset of
    tree items. Items absent from the prediction count as fully wrong."""
    unknown = subset - set(tree.items)
    if unknown:
        raise ValueError(f"subset items not in tree: {sorted(unknown)}")
    items = sorted(subset)
    if not items:
        raise ValueError("empty scoring subset")

    label_hits = workbench_hits = items_hits = exact_hits = 0
    inserted = missing = 0
    qty_errors: list[float] = []

    for item in items:
        d = tree.definition(item)
        truth_parents = tree.ground_truth_parents(item)
        truth_parent_ids = {p for p, _, _ in truth_parents}
        truth_ingredients = {e.item: e.quantity for e in d.recipe}
        truth_workbench = {p for p, kind, _ in truth_parents if kind == WORKBENCH}

        if item not in predicted.nodes:
            if truth_parent_ids:
                missing += 1
            continue  # all-wrong: contributes to every denominator, no hits

        pred_edges = predicted.parents_of(item)
        pred_parent_ids = {e.parent for e in pred_edges}
        pred_ingredients = {e.parent: e.quantity for e in pred_edges if e.kind == INGREDIENT}
        pred_workbench = {e.parent for e in pred_edges if e.kind == WORKBENCH}
        pred_tools = {e.parent for e in pred_edges if e.kind == TOOL}
        pred_collectable = predicted.believed_collectable(item)

        if pred_collectable == d.collectable:
            label_hits += 1
        if pred_workbench == truth_workbench:
            workbench_hits += 1
        truth_tool = {d.required_tool} if d.required_tool else set()
        items_match = (
            set(pred_ingredients) == set(truth_ingredients) and pred_tools == truth_tool
        )
        if items_match:
            items_hits += 1
            if pred_ingredients == truth_ingredients:
                exact_hits += 1
        if pred_parent_ids - truth_parent_ids:
            inserted += 1
        if truth_parent_ids - pred_parent_ids:
            missing += 1
        for ingredient, pred_qty in pred_ingredients.items():
            if ingredient in truth_ingredients:
                qty_errors.append(pred_qty - truth_ingredients[ingredient])

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


# ---------------------------------------------------------------------------
# Live completion fetch (never exercised against real endpoints in tests)
# ---------------------------------------------------------------------------

API_KEY_ENV = "LLM_API_KEY"

DEFAULT_PROMPT = """\
# Build a nested python dictionary of crafting recipes and requirements for
# game items. Every entry carries booleans requires_crafting_table and
# requires_furnace, a required_tool (None when not applicable), and a recipe
# list of {"item", "quantity"} maps; an empty recipe means the item is
# gathered from the world rather than crafted.

item_info = {
    "diamond_pickaxe": {
        "requires_crafting_table": True,
        "requires_furnace": False,
        "required_tool": None,
        "recipe": [
            {
                "item": "stick",
                "quantity": "2"
            },
            {
                "item": "diamond",
                "quantity": "3"
            }
        ]
    },
    "diamond": {
        "requires_crafting_table": False,
        "requires_furnace": False,
        "required_tool": "iron_pickaxe",
        "recipe": []
    },
"""


class FetchError(RuntimeError):
    def __init__(self, item: str, cause: Exception):
        super().__init__(f"completion request for '{item}' failed: {cause}")
        self.item = item


def fetch_llm_hypothesis(
    endpoint: str,
    prompt: str,
    items: list[str],
    timeout: float = 30.0,
) -> str:
    """Request one completion per item against a text-completion endpoint and
    concatenate the results into a single recipe-dictionary document.

    The fixed prompt is extended with `"<item>": {` per call. Credentials are
    read from the LLM_API_KEY environment variable when present. Transport and
    auth failures raise FetchError naming the item; nothing is written.
    """
    pieces = ["item_info = {\n"]
    for item in items:
        payload = json.dumps({"prompt": f'{prompt}    "{item}": {{\n', "max_tokens": 256}).encode()
        request = urllib.request.Request(
            endpoint, data=payload, headers={"Content-Type": "application/json"}
        )
        api_key = os.environ.get(API_KEY_ENV)
        if api_key:
            request.add_header("Authorization", f"Bearer {api_key}")
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                body = json.loads(response.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise FetchError(item, exc) from exc
        try:
            completion = body["choices"][0]["text"]
        except (KeyError, IndexError, TypeError) as exc:
            raise FetchError(item, exc) from exc
        pieces.append(f'    "{item}": {{\n{completion}\n')
    pieces.append("}\n")
    return "".join(pieces)
