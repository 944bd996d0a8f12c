"""Canonical forms, shifts, and string round-trips for boundary codes."""
import pytest

from arbor.codes import (
    BoundaryCode, CodeError, PeriodicWord, compare_words, format_code,
    parse_code,
)
from arbor.groups import A_SIDE, B_SIDE, Letter

from bruteforce import builtin

aL = Letter(A_SIDE, 1)
bL = Letter(B_SIDE, 1)
b2L = Letter(B_SIDE, 2)
eL = Letter(A_SIDE, 0)


def test_minimal_period_reduction():
    w = PeriodicWord((), (aL, bL, aL, bL))
    assert w.cycle == (aL, bL)
    assert w.prefix == ()


def test_prefix_rotation_canonicalization():
    w = PeriodicWord((aL, bL), (aL, bL))
    assert w == PeriodicWord((), (aL, bL))
    w2 = PeriodicWord((eL, bL), (aL, bL))
    assert w2 == PeriodicWord((eL,), (bL, aL))
    w3 = PeriodicWord((eL, b2L), (aL, bL))
    assert w3.prefix == (eL, b2L)


def test_rejects_empty_cycle():
    with pytest.raises(CodeError):
        PeriodicWord((aL,), ())


def test_letter_at_and_letters():
    w = PeriodicWord((eL,), (bL, aL))
    assert [w.letter_at(i) for i in range(5)] == [eL, bL, aL, bL, aL]
    assert w.letters(4) == (eL, bL, aL, bL)
    with pytest.raises(CodeError):
        w.letter_at(-1)


def test_shift_matches_sequence_drop():
    w = PeriodicWord((eL, bL, aL), (b2L, aL))
    for k in range(8):
        shifted = w.shift(k)
        assert shifted.letters(6) == w.letters(6 + k)[k:]
    with pytest.raises(CodeError, match="^negative shift$"):
        w.shift(-1)


def test_shift_equalities():
    x = BoundaryCode((), (aL, bL))
    assert x.shift(2) == x
    assert x.shift(1) == PeriodicWord((), (bL, aL))


def test_compare_words_is_a_total_order():
    words = [
        PeriodicWord((), (aL, bL)),
        PeriodicWord((), (aL, b2L)),
        PeriodicWord((eL,), (bL, aL)),
        PeriodicWord((eL, bL), (aL, b2L)),
        PeriodicWord((), (aL, bL, aL, b2L)),
    ]
    for u in words:
        assert compare_words(u, u) == 0
        for v in words:
            c = compare_words(u, v)
            assert c == -compare_words(v, u)
            if c == 0:
                assert u == v
            else:
                # sign agrees with the first differing letter
                i = 0
                while u.letter_at(i) == v.letter_at(i):
                    i += 1
                expected = -1 if u.letter_at(i) < v.letter_at(i) else 1
                assert c == expected


def test_boundary_code_validation():
    assert BoundaryCode((), (aL, bL)).cycle == (aL, bL)
    assert BoundaryCode((eL,), (bL, aL)).prefix == (eL,)
    with pytest.raises(CodeError, match="alternate"):
        BoundaryCode((), (aL,))  # odd, doubling gives aa which cannot alternate
    with pytest.raises(CodeError, match="alternate|side"):
        BoundaryCode((), (bL, aL))  # starts on the K side
    with pytest.raises(CodeError, match="trivial"):
        BoundaryCode((), (eL, bL))  # trivial letter recurs inside the cycle
    with pytest.raises(CodeError, match="trivial"):
        BoundaryCode((aL, Letter(B_SIDE, 0)), (aL, bL))


def test_shift_code_parity():
    x = BoundaryCode((eL, bL), (aL, b2L))
    y = x.shift_code(2)
    assert isinstance(y, BoundaryCode)
    w = x.shift(2)
    assert y == BoundaryCode(w.prefix, w.cycle)
    with pytest.raises(CodeError):
        x.shift_code(1)


def test_format_and_parse_roundtrip():
    am = builtin("sl2z")
    samples = [
        BoundaryCode((), (aL, bL)),
        BoundaryCode((), (aL, b2L)),
        BoundaryCode((eL,), (bL, aL)),
        BoundaryCode((eL, b2L), (aL, bL)),
    ]
    for x in samples:
        s = format_code(am, x)
        assert parse_code(am, s) == x
    assert format_code(am, samples[0]) == "prefix=;cycle=a,b"
    assert parse_code(am, "prefix=e;cycle=b,a") == samples[2]


def test_parse_code_errors():
    am = builtin("sl2z")
    with pytest.raises(CodeError, match="alternate"):
        parse_code(am, "prefix=;cycle=a")
    with pytest.raises(CodeError, match="prefix"):
        parse_code(am, "cycle=a,b")
    with pytest.raises(CodeError, match="representative"):
        parse_code(am, "prefix=;cycle=a,q")
    with pytest.raises(CodeError, match="alternate|representative"):
        parse_code(am, "prefix=;cycle=b,a")
    with pytest.raises(CodeError, match="nonempty"):
        parse_code(am, "prefix=a;cycle=")


def test_parse_rejects_non_representative_element_name():
    # a2 is a group element but lies in the amalgamated image, not the transversal
    am = builtin("sl2z")
    with pytest.raises(CodeError, match="representative"):
        parse_code(am, "prefix=;cycle=a2,b")


def test_horizon():
    assert BoundaryCode((eL,), (bL, aL)).horizon() == 3
    assert BoundaryCode((), (aL, bL)).horizon() == 2
