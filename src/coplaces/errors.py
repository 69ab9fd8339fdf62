"""Exception hierarchy shared by all coplaces modules.

Two broad families matter to the command line front end: input files that
cannot be decoded (`InputFormatError`) and inputs that decode fine but
violate a semantic requirement such as safeness or graph well-formedness
(`AnalysisError`). Everything else derives from `CoplacesError` directly.
Each family's `exit_code` is the command line's exit status for its errors.
"""

from __future__ import annotations

#: Texts longer than this are named by their length in messages.
SHOWN_LENGTH = 20
#: Node lists in messages show this many nodes, then "and N more".
SHOWN_NODES = 5


def shown(text, unit: str = "characters", quote: str = "'",
          noun: str = "") -> str:
    """`text` as a message quotes it, or its length once it is long.

    Names and literals that a message copies from an input go through
    here, so a long one cannot make the message longer than a line. The
    long form, ``{noun}of {length} {unit}``, follows a noun in the message
    or names one itself.
    """
    text = str(text)
    if len(text) <= SHOWN_LENGTH:
        return f"{quote}{text}{quote}"
    return f"{noun}of {len(text)} {unit}"


def shown_nodes(nodes) -> str:
    """The nodes as a message lists them: at most `SHOWN_NODES`, then
    "and N more", each through `shown`, in braces."""
    nodes = tuple(nodes)
    listed = [shown(n, quote="", noun="a node ") for n in nodes[:SHOWN_NODES]]
    if len(nodes) > SHOWN_NODES:
        listed.append(f"and {len(nodes) - SHOWN_NODES} more")
    return f"{{{', '.join(listed)}}}"


class CoplacesError(Exception):
    """Base class of every error raised by this package."""

    exit_code = 1


class InputFormatError(CoplacesError):
    """A net, equation system or matrix file could not be decoded."""

    exit_code = 2


class AnalysisError(CoplacesError):
    """Input decodes but violates a semantic requirement of the analysis."""

    exit_code = 3


class BudgetExhausted(CoplacesError):
    """The state cap or the time budget ran out with nothing to output."""

    exit_code = 5


# -- Petri net semantics -----------------------------------------------------

class UnknownTransition(CoplacesError):
    """Transition identifier not present in the net."""


class NotEnabled(CoplacesError):
    """Attempt to fire a transition that is not enabled; a caller bug."""


class NotSafe(AnalysisError):
    """A reachable marking, the dict `witness`, has two tokens in a place."""

    def __init__(self, witness):
        marked = ", ".join(f"{p}:{n}" for p, n in sorted(witness.items()) if n)
        super().__init__(f"net is not 1-bounded, witness marking {{{marked}}}")
        self.witness = witness


# -- Net file formats --------------------------------------------------------

class MalformedNet(InputFormatError):
    """Broken XML or a schema violation in a PNML document."""


class UnsupportedNet(InputFormatError):
    """PNML feature outside the plain place/transition subset."""


class NetSyntaxError(InputFormatError):
    """Syntax error in the line-oriented net format."""

    def __init__(self, line: int, column: int, expected: str):
        super().__init__(f"line {line}, column {column}: expected {expected}")
        self.line = line
        self.column = column
        self.expected = expected


class DuplicateId(InputFormatError):
    """A place or transition identifier is declared twice."""

    def __init__(self, name: str, line: int | None = None):
        at = f" (line {line})" if line is not None else ""
        super().__init__(f"duplicate identifier {shown(name)}{at}")
        self.name = name


class UnknownPlace(InputFormatError):
    """A transition line references a place that was never declared."""

    def __init__(self, name: str, line: int | None = None):
        at = f" (line {line})" if line is not None else ""
        super().__init__(f"unknown place {shown(name)}{at}")
        self.name = name


class UnwritableName(InputFormatError):
    """A name that the net or equation text would not read back as itself."""

    def __init__(self, name: str):
        super().__init__(f"identifier {shown(name)} cannot be written as text:"
                         " it must be one token without '#', '*', '+' or '=',"
                         " and not '->' or a number")
        self.name = name


# -- Equation systems and token flow graphs ----------------------------------

class EquationSyntaxError(InputFormatError):
    """Unparsable equation line."""

    def __init__(self, line: int, detail: str = ""):
        extra = f": {detail}" if detail else ""
        super().__init__(f"equation syntax error at line {line}{extra}")
        self.line = line


class BadConstant(InputFormatError):
    """Constant outside {0, 1} in an equation."""

    def __init__(self, value: int):
        super().__init__(f"constant {shown(value, 'digits', quote='')}"
                         " not allowed, only 0 and 1 are")
        self.value = value


class DuplicateRemoval(AnalysisError):
    """Two equations remove the same node (well-formedness condition T3)."""

    def __init__(self, node):
        super().__init__(
            f"node {shown(node)} is removed by more than one equation"
            " (violates single-removal condition T3)")
        self.node = node


class WellFormednessError(AnalysisError):
    """A token flow graph violates T1, T2, T4 or acyclicity (T3: `DuplicateRemoval`)."""

    def __init__(self, condition: str, nodes, detail: str = ""):
        nodes = tuple(nodes)
        extra = f": {detail}" if detail else ""
        super().__init__(f"well-formedness condition {condition} violated"
                         f" by {shown_nodes(nodes)}{extra}")
        self.condition = condition
        self.nodes = nodes


class UnknownNode(CoplacesError):
    """Node identifier not present in the token flow graph."""

    def __init__(self, node):
        super().__init__(f"{shown(node, noun='a name ')} is not a node of the"
                         " graph")
        self.node = node


# -- Configuration operations ------------------------------------------------

class IllDefinedInput(CoplacesError):
    """Input configuration fails the CBot/CEq well-definedness check."""


class UndefinedAt(CoplacesError):
    def __init__(self, node):
        super().__init__(f"configuration is undefined at node {shown(node)}")
        self.node = node


class NotAncestor(CoplacesError):
    """There is no path from the source node to the requested target."""


class NotAgglomeration(CoplacesError):
    def __init__(self, node):
        super().__init__(f"node {shown(node)} heads no agglomeration equation")
        self.node = node


class BadShareSum(CoplacesError):
    """Shares do not form a valid decomposition of the node value."""


class NoTokenAt(CoplacesError):
    def __init__(self, node):
        super().__init__(f"no token at node {shown(node)}")
        self.node = node


# -- Concurrency kernel ------------------------------------------------------

class IncompleteRootRelation(AnalysisError):
    """Complete-mode computation was given a root relation with holes."""


class InvalidRootRelation(AnalysisError):
    """Root relation does not cover the graph roots or contradicts itself."""


# -- Matrix files ------------------------------------------------------------

class BadHeader(InputFormatError):
    """Matrix file header is missing or inconsistent."""


class RowLengthMismatch(InputFormatError):
    def __init__(self, row: int):
        super().__init__(f"matrix row {row} does not decode"
                         f" to exactly {row + 1} cells")
        self.row = row


class UnwritableNodeName(InputFormatError):
    """A node name that a matrix file would not read back as itself."""

    def __init__(self, name: str):
        # a short name is escaped, so that a line break in it stays off the
        # message's line; a long one is shown by its length
        text = name if len(name) > SHOWN_LENGTH else repr(name)[1:-1]
        super().__init__(f"node name {shown(text)} cannot be written to a"
                         " matrix file: it must be one line of text, not"
                         " empty, and without leading or trailing whitespace")
        self.name = name


class BadSymbol(InputFormatError):
    def __init__(self, row: int, col: int):
        super().__init__(f"bad cell symbol in matrix row {row}, column {col}")
        self.row = row
        self.col = col


class OrderMismatch(InputFormatError):
    """Two matrix documents do not share the same node ordering."""

    def __init__(self, first, second):
        at = next((k for k, (a, b) in enumerate(zip(first, second)) if a != b),
                  min(len(first), len(second)))
        names = [shown(order[at]) if at < len(order) else "no node"
                 for order in (first, second)]
        super().__init__(f"orders differ at position {at}:"
                         f" {names[0]} vs {names[1]}")
