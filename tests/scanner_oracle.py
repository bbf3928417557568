"""The character scanner the command line used to read matrix, group
and polynomial texts, kept as the oracle for the tokenizer that replaced
it: the same values, and on malformed text the same message at the same
position.  It reads one character per call.
"""

from fractions import Fraction

from algentropy.errors import ParseError


class _Scanner:
    """Character scanner that reports failures with their position."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        # the sentinel never satisfies `in` membership tests, "" would
        return self.text[self.pos] if self.pos < len(self.text) else "\0"

    def take(self, ch):
        self.skip_ws()
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch):
        if not self.take(ch):
            self.error(f"expected {ch!r}")

    def integer(self):
        self.skip_ws()
        start = self.pos
        if self.peek() in "+-":
            self.pos += 1
        while self.peek() in "0123456789":
            self.pos += 1
        if self.pos == start or not self.text[start:self.pos].lstrip("+-"):
            self.error("expected an integer")
        return int(self.text[start:self.pos])

    def fraction(self):
        num = self.integer()
        if self.take("/"):
            den = self.integer()
            if den == 0:
                self.error("zero denominator")
            return Fraction(num, den)
        return Fraction(num)

    def done(self):
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing input")


def parse_matrix(text):
    """``[[a,b],[c,d]]`` rows, entries ``p/q``, optional ``/d`` suffix."""
    s = _Scanner(text)
    s.expect("[")
    rows = []
    while True:
        s.expect("[")
        row = [s.fraction()]
        while s.take(","):
            row.append(s.fraction())
        s.expect("]")
        rows.append(row)
        if not s.take(","):
            break
    s.expect("]")
    if s.take("/"):
        den = s.integer()
        if den == 0:
            s.error("zero denominator")
        rows = [[x / den for x in row] for row in rows]
    s.done()
    if len({len(r) for r in rows}) != 1:
        raise ParseError("rows must all have the same length")
    return rows


def parse_group_expr(text):
    s = _Scanner(text)
    orders = []
    free = 0
    while True:
        s.skip_ws()
        ch = s.peek()
        if ch in "01":
            s.pos += 1  # the trivial group contributes nothing
        elif ch in "Zz":
            s.pos += 1
            if s.take("/"):
                orders.append(s.integer())
            elif s.take("^"):
                free += s.integer()
            else:
                free += 1
        else:
            s.error("expected a factor: Z, Z^n, Z/d, 0 or 1")
        s.skip_ws()
        if s.peek() in "x*+":
            s.pos += 1
            continue
        break
    s.done()
    return orders, free


def parse_poly_coeffs(text):
    """The coefficient list of a comma-separated polynomial text."""
    s = _Scanner(text.strip())
    coeffs = [s.integer()]
    while s.take(","):
        coeffs.append(s.integer())
    s.done()
    return coeffs
