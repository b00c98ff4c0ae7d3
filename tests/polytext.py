"""A test-side reader of the canonical polynomial text format, the oracle for
str() round trips: podforge writes ideals in this format (`c*v1^a1*...*vk^ak`
joined by `+`/`-`, rational coefficients as `num/den`) but never reads it.
"""

import re
from fractions import Fraction

from podforge.fields import field_from_descriptor
from podforge.groebner import Ideal
from podforge.rings import DEGREVLEX, EXP_MAX, RingContext

_COEFF = re.compile(r"[0-9]+(?:/[0-9]*[1-9][0-9]*)?")
_FACTOR = re.compile(r"([A-Za-z_][A-Za-z_0-9]*?)(?:\^([0-9]+))?")


def parse(ring, text):
    """The polynomial of `ring` that `text` spells.  ValueError when `text`
    is not in the canonical format, names another variable, exceeds the
    exponent cap or has a denominator that vanishes in the field."""
    s = text.replace(" ", "")
    if s in ("", "0"):
        return ring.zero()
    chunks = re.findall(r"[+-]?[^+-]+", s)
    if "".join(chunks) != s:
        raise ValueError(f"cannot parse polynomial {text!r}")
    pairs = []
    for chunk in chunks:
        coeff = Fraction(-1 if chunk[0] == "-" else 1)
        factors = chunk.lstrip("+-").split("*")
        if _COEFF.fullmatch(factors[0]):
            coeff *= Fraction(factors.pop(0))
        exps = [0] * ring.n
        for fac in factors:
            m = _FACTOR.fullmatch(fac)
            if not m or m.group(1) not in ring.var_index:
                raise ValueError(f"bad factor {fac!r} in {text!r}")
            exps[ring.var_index[m.group(1)]] += int(m.group(2) or 1)
        if max(exps) > EXP_MAX:
            raise ValueError(f"exponent above the cap {EXP_MAX} in {text!r}")
        try:
            pairs.append((exps, ring.field.of(coeff)))
        except ZeroDivisionError as exc:
            raise ValueError(f"{exc} in {text!r}") from None
    return ring.from_terms(pairs)


def ideal_from_json(data):
    """The ideal of `groebner.ideal_to_json`'s format."""
    names, weights = data["ring"]["vars"], data["ring"]["weights"]
    ring = RingContext(tuple(names), tuple(weights), DEGREVLEX, field_from_descriptor(data["field"]))
    return Ideal(ring, [parse(ring, g) for g in data["generators"]])
