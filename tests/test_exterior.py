"""The one signed merge of sparse coefficient dicts, `exterior.accumulate`,
and the differences and odd-sign terms that pass it a sign in place of a
negated copy."""

from collections import Counter
from fractions import Fraction
from itertools import combinations

from cartanlab import catalog as cat
from cartanlab import exterior
from cartanlab.forms import DualForm
from cartanlab.poly import Poly
from cartanlab.scalars import ONE, Scalar


def _count_scalar_ops(monkeypatch):
    """Counter of Scalar negations ("neg") and additions or subtractions
    ("add"), kept up to date while the test runs."""
    counts = Counter()

    def counted(key, fn):
        def op(*args):
            counts[key] += 1
            return fn(*args)

        return op

    for name, key in (("__neg__", "neg"), ("__add__", "add"), ("__radd__", "add"), ("__sub__", "add")):
        monkeypatch.setattr(Scalar, name, counted(key, getattr(Scalar, name)))
    return counts


def test_signed_accumulate_drops_cancelled_entries_and_negates_a_new_one_once(monkeypatch):
    counts = _count_scalar_ops(monkeypatch)
    out = {}
    exterior.accumulate(out, (1,), Scalar(3), -1)
    assert out == {(1,): Scalar(-3)} and counts == {"neg": 1}
    exterior.accumulate(out, (2,), Scalar(1, 1))
    exterior.accumulate(out, (1,), Scalar(3))
    exterior.accumulate(out, (2,), Scalar(1, 1), -1)
    assert out == {} and counts == {"neg": 1, "add": 2}

    a = {(1, 2): Scalar(Fraction(1, 2)), (1, 3): Scalar(0, 1)}
    b = {(1, 2): Scalar(Fraction(1, 2)), (2, 3): Scalar(5)}
    assert exterior.add(a, b, -1) == {(1, 3): Scalar(0, 1), (2, 3): Scalar(-5)}
    assert exterior.add(a, b) == {(1, 2): ONE, (1, 3): Scalar(0, 1), (2, 3): Scalar(5)}
    assert exterior.add(a, a, -1) == {}
    assert a == {(1, 2): Scalar(Fraction(1, 2)), (1, 3): Scalar(0, 1)}

    out = {(1,): Scalar(6), (3,): Scalar(1)}
    exterior.add_scaled(out, {(1,): Scalar(3), (2,): Scalar(-1)}, Scalar(2), -1)
    assert out == {(2,): Scalar(2), (3,): Scalar(1)}
    for merged in (out, exterior.add(a, b, -1), exterior.add(a, a, -1)):
        assert all(merged.values())


def test_differences_and_odd_sign_terms_make_no_negated_copy(monkeypatch):
    vars = ("x", "y", "z")
    p = Poly(vars, {(1, 0, 0): Fraction(2, 3), (0, 2, 1): Scalar(1, -1), (0, 0, 0): 5})
    g = cat.heisenberg(2).algebra
    w = DualForm.covector(g, [1, Fraction(-1, 2), 0, 3, Scalar(0, 2)])
    counts = _count_scalar_ops(monkeypatch)
    assert (p - p).is_zero and (w - w).is_zero
    assert counts["neg"] == 0 and counts["add"] == len(p.terms) + len(w.coeffs)
    # every odd-sign term of w ^ w lands on the even-sign term before it
    assert exterior.wedge(w.coeffs, w.coeffs) == {}
    assert counts["neg"] == 0


def _merge_reference(a, b):
    """(sorted a + b, (-1) ** inversions), or (None, 0) on a repeat."""
    if set(a) & set(b):
        return None, 0
    return tuple(sorted(a + b)), (-1) ** sum(1 for x in a for y in b if x > y)


def test_merge_sign_matches_the_inversion_count_on_every_shape():
    # a lone index on either side is placed by bisection, an empty tuple
    # returns the other, and longer pairs run the merge loop
    tuples = [t for k in range(5) for t in combinations(range(7), k)]
    for a in tuples:
        for b in tuples:
            assert exterior.merge_sign(a, b) == _merge_reference(a, b), (a, b)
