from __future__ import annotations

import ast
import re
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehrpos import matroid, verify
from ehrpos.matroid import (
    SparsePavingMatroid,
    circuit_hyperplane_bound,
    elements_of,
    mask_from_elements,
    matroid_from_text,
    matroid_to_text,
    rank_of,
    validate,
)
from ehrpos.codes import gs_partition
from ehrpos.oracle import enumerate_small_matroids
from ehrpos.ratpoly import binomial


def mask(*elements: int, n: int = 6) -> int:
    return mask_from_elements(elements, n)


def all_bases(m: SparsePavingMatroid) -> list[int]:
    out = []
    for combo in combinations(range(m.n), m.k):
        b = sum(1 << i for i in combo)
        if b not in m.ch_set:
            out.append(b)
    return out


def test_elements_of_rejects_a_negative_mask() -> None:
    # -1 >> 1 is -1, so a bit walk over a negative mask would never end
    for bad in (-1, -0b101):
        with pytest.raises(ValueError, match="nonnegative"):
            elements_of(bad)
    assert elements_of(0) == []


def test_mask_round_trip() -> None:
    assert mask_from_elements([1, 3, 4], 5) == 0b01101
    assert elements_of(0b01101) == [1, 3, 4]
    assert mask_from_elements([], 3) == 0
    with pytest.raises(ValueError):
        mask_from_elements([0], 3)
    with pytest.raises(ValueError):
        mask_from_elements([4], 3)
    with pytest.raises(ValueError):
        mask_from_elements([2, 2], 5)


def test_circuit_hyperplane_bound_values() -> None:
    assert circuit_hyperplane_bound(4, 2) == 2
    assert circuit_hyperplane_bound(6, 3) == 5
    assert circuit_hyperplane_bound(20, 9) == binomial(20, 9) // 12
    # degenerate ranks admit no circuit-hyperplanes
    assert circuit_hyperplane_bound(5, 0) == 0
    assert circuit_hyperplane_bound(5, 5) == 0


def test_validate_accepts_and_canonicalizes() -> None:
    m = validate(6, 3, [mask(4, 5, 6), mask(1, 2, 3)])
    assert m.circuit_hyperplanes == (mask(1, 2, 3), mask(4, 5, 6))
    assert m.lam == 2
    assert validate(4, 2, []).lam == 0


def test_validate_error_messages() -> None:
    with pytest.raises(ValueError, match="not a k-subset"):
        validate(6, 3, [mask(1, 2)])
    with pytest.raises(ValueError, match=r"adjacent in Johnson graph J\(6,3\)"):
        validate(6, 3, [mask(1, 2, 3), mask(1, 2, 4)])
    with pytest.raises(ValueError, match="exceeds circuit-hyperplane bound"):
        validate(4, 2, [mask(1, 2, n=4), mask(1, 3, n=4), mask(1, 4, n=4)])
    with pytest.raises(ValueError, match="outside"):
        validate(0, 0, [])
    with pytest.raises(ValueError, match="outside"):
        validate(4, 5, [])
    with pytest.raises(ValueError, match="outside"):
        validate(3, 2, [0b1100])
    # duplicates collapse instead of tripping the distance check
    assert validate(6, 3, [mask(1, 2, 3), mask(1, 2, 3)]).lam == 1


def first_close_pair(masks: list[int]) -> tuple[int, int] | None:
    """Reference: the first pair, in sorted order, at distance below 4."""
    ms = sorted(set(masks))
    for i, a in enumerate(ms):
        for b in ms[i + 1 :]:
            if (a ^ b).bit_count() < 4:
                return a, b
    return None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_validate_shadow_check_against_pairwise(data: st.DataObject) -> None:
    # ground sets on both sides of the byte, word and 32-bit boundaries
    n = data.draw(st.sampled_from([8, 9, 16, 17, 32, 33, 63, 64]) | st.integers(2, 64))
    # k in {1, n - 1} admits one word, so the packing bound decides it; most
    # draws take 2..n-2, where the shadow check does the deciding
    middle = st.integers(2, n - 2) if n >= 4 else st.nothing()
    k = data.draw(middle | st.integers(1, n - 1))
    # each word is a uniform k-subset, the head of a shuffled ground set
    drawn = data.draw(
        st.lists(st.permutations(range(1, n + 1)).map(lambda p: frozenset(p[:k])), max_size=15)
    )
    words = [mask_from_elements(s, n) for s in drawn]
    if data.draw(st.booleans()):  # thin to a valid code, so accepts are common
        code: list[int] = []
        for w in words:
            if all((w ^ c).bit_count() >= 4 for c in code):
                code.append(w)
        words = code
    if words and data.draw(st.booleans()):  # duplicate a word
        words.append(data.draw(st.sampled_from(words)))
    if words and data.draw(st.booleans()):  # inject a Johnson neighbour
        w = data.draw(st.sampled_from(words))
        inside = data.draw(st.sampled_from(elements_of(w)))
        outside = data.draw(st.sampled_from(sorted(set(range(1, n + 1)) - set(elements_of(w)))))
        words.append(w ^ 1 << (inside - 1) ^ 1 << (outside - 1))
    close = first_close_pair(words)
    if close is None:
        assert validate(n, k, words).circuit_hyperplanes == tuple(sorted(set(words)))
        return
    with pytest.raises(ValueError) as info:
        validate(n, k, words)
    message = str(info.value)
    if "exceeds circuit-hyperplane bound" in message:
        return
    assert message.endswith(f"are adjacent in Johnson graph J({n},{k})")
    a, b = (mask_from_elements(ast.literal_eval(s), n) for s in re.findall(r"\{[\d, ]+\}", message))
    assert (a ^ b).bit_count() == 2
    assert (a, b) == close


def test_rank_of_against_basis_intersections() -> None:
    # matroid rank is the largest intersection with a basis
    for n in range(2, 8):
        for k in range(1, n):
            for m in enumerate_small_matroids(n, k, 2):
                bases = all_bases(m)
                for a in range(1 << n):
                    brute = max((a & b).bit_count() for b in bases)
                    assert rank_of(m, a) == brute, (m, bin(a))


def test_rank_of_rejects_foreign_elements() -> None:
    m = validate(4, 2, [])
    with pytest.raises(ValueError, match="outside ground set"):
        rank_of(m, 1 << 5)


def test_rank_side_points_at_t1_are_bases() -> None:
    # the only integer points of the undilated polytope are its vertices:
    # the t = 1 slice points that the rank function accepts
    for n in range(2, 8):
        for k in range(1, n):
            sl = verify._Slice(n, k, 1)
            for m in enumerate_small_matroids(n, k, 2):
                rejected = sl.rejected_by_rank(verify._rank_vector(m))
                hits = [x for p, x in enumerate(sl.points) if not rejected >> p & 1]
                expected = sorted(
                    tuple((b >> i) & 1 for i in range(n)) for b in all_bases(m)
                )
                assert sorted(hits) == expected


def test_text_round_trip() -> None:
    m = validate(6, 3, [mask(1, 2, 3), mask(1, 4, 5)])
    text = matroid_to_text(m)
    assert text == "6 3\n1 2 3\n1 4 5\n"
    assert matroid_from_text(text) == m
    assert matroid_from_text("4 2\n") == validate(4, 2, [])


@pytest.mark.parametrize("n", [1, 8, 9, 16, 17, 63, 64])
def test_text_matches_per_element_join(n: int) -> None:
    # every run of k consecutive elements, so each byte boundary is crossed
    # at each offset, plus the two ends of the ground set for k >= 2
    for k in range(n + 1):
        masks = [((1 << k) - 1) << a for a in range(n - k + 1)]
        if k >= 2:
            masks.append(1 | ((1 << (k - 1)) - 1) << (n - k + 1))
        m = SparsePavingMatroid(n, k, tuple(masks))
        lines = [f"{n} {k}"] + [
            " ".join(str(i + 1) for i in range(n) if h >> i & 1) for h in m.circuit_hyperplanes
        ]
        assert matroid_to_text(m) == "\n".join(lines) + "\n", (n, k)


@settings(max_examples=50)
@given(st.data())
def test_text_round_trip_random(data: st.DataObject) -> None:
    n = data.draw(st.integers(2, 7))
    k = data.draw(st.integers(1, n - 1))
    pool = list(enumerate_small_matroids(n, k, 2))
    m = data.draw(st.sampled_from(pool))
    assert matroid_from_text(matroid_to_text(m)) == m


def test_text_parse_errors_carry_line_numbers() -> None:
    with pytest.raises(ValueError, match="line 1: expected header 'n k'"):
        matroid_from_text("6\n")
    with pytest.raises(ValueError, match="line 1: non-integer token"):
        matroid_from_text("six 3\n")
    with pytest.raises(ValueError, match="line 2: non-integer token"):
        matroid_from_text("6 3\n1 2 x\n")
    with pytest.raises(ValueError, match="line 3: expected 3 elements"):
        matroid_from_text("6 3\n1 2 3\n4 5\n")
    with pytest.raises(ValueError, match="missing header"):
        matroid_from_text("")
    with pytest.raises(ValueError, match="invalid matroid"):
        matroid_from_text("6 3\n1 2 3\n1 2 4\n")


def test_text_header_checked_before_any_mask(monkeypatch) -> None:
    # an oversized header must be refused before a line is turned into a mask,
    # whose int would be as wide as the header's n
    def refuse(elements, n):
        raise AssertionError("mask built before the header was checked")

    monkeypatch.setattr(matroid, "mask_from_elements", refuse)
    with pytest.raises(ValueError, match=r"^line 1: ground set size n=100 outside 1\.\.64$"):
        matroid_from_text("100 1\n100\n")
    with pytest.raises(ValueError, match=r"^line 2: rank k=7 outside 0\.\.6$"):
        matroid_from_text("\n6 7\n1 2 3 4 5 6 7\n")


def test_blank_lines_ignored() -> None:
    text = "\n6 3\n1 2 3\n\n4 5 6\n\n"
    m = matroid_from_text(text)
    assert m.lam == 2


def ref_matroid_from_text(text: str) -> SparsePavingMatroid:
    """Reference: the per-element parser that the token table fronts."""
    header: tuple[int, int] | None = None
    masks: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            parts = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer token ({exc})") from None
        if header is None:
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected header 'n k'")
            try:
                matroid._check_size(*parts)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            header = (parts[0], parts[1])
            continue
        n, k = header
        if len(parts) != k:
            raise ValueError(f"line {lineno}: expected {k} elements, got {len(parts)}")
        try:
            masks.append(mask_from_elements(parts, n))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if header is None:
        raise ValueError("line 1: missing header 'n k'")
    try:
        return validate(header[0], header[1], masks)
    except ValueError as exc:
        raise ValueError(f"invalid matroid: {exc}") from None


def _parse_outcome(parse, text: str) -> tuple[str, object]:
    try:
        return "ok", parse(text)
    except ValueError as exc:
        return "error", str(exc)


HEADER_FAULTS = {
    "one-number": "20",
    "three-numbers": "20 9 1",
    "non-integer": "20 x",
    "n-too-large": "65 9",
    "k-too-large": "20 21",
}

SMALL_FILES = {
    "empty": "",
    "blank-only": "\n \t\n",
    "header-only": "6 3\n",
    "rank-0": "6 0\n\n",
    "rank-0-element": "6 0\n1\n",
    "non-canonical-tokens": "12 3\n07 +8 1_0\n",
}


def _parse_inputs() -> dict[str, str]:
    """The (20, 9) code file; copies of it with one fault or one
    non-canonical spelling at line 2 and at the last line, or with other
    whitespace; and a few small files."""
    text = matroid_to_text(gs_partition(20, 9)[1].to_matroid())
    lines = text.splitlines()
    edits = {
        "non-integer": lambda toks: toks[:-1] + ["x"],
        "hex": lambda toks: toks[:-1] + ["0x7"],
        "decimal-point": lambda toks: toks[:-1] + [toks[-1] + ".0"],
        "above-ground-set": lambda toks: toks[:-1] + ["21"],
        "zero": lambda toks: ["0"] + toks[1:],
        "negative": lambda toks: ["-3"] + toks[1:],
        "repeat": lambda toks: toks[:1] + toks[:-1],
        "too-few": lambda toks: toks[:-1],
        "too-many": lambda toks: toks + [toks[0]],
        "leading-zero": lambda toks: ["0" + toks[0]] + toks[1:],
        "plus-sign": lambda toks: ["+" + toks[0]] + toks[1:],
        "non-ascii-digit": lambda toks: [chr(0x660 + int(toks[0]))] + toks[1:],
    }
    variants = {"paper": text}
    for where in (1, len(lines) - 1):
        for name, edit in edits.items():
            edited = lines[:where] + [" ".join(edit(lines[where].split()))] + lines[where + 1 :]
            variants[f"{name}@{where + 1}"] = "\n".join(edited) + "\n"
        for name, bad in HEADER_FAULTS.items():
            headed = [""] * where + [bad] + lines[where + 1 :]
            variants[f"header-{name}@{where + 1}"] = "\n".join(headed) + "\n"
    # "1_0" is int("10"); swap it in on a line that holds element 10
    at = next(i for i, line in enumerate(lines) if i and "10" in line.split())
    variants["underscore"] = "\n".join(
        " ".join("1_0" if tok == "10" else tok for tok in line.split()) if i == at else line
        for i, line in enumerate(lines)
    )
    variants["duplicate-line"] = text + lines[-1] + "\n"
    toks = lines[1].split()
    swapped = toks[:-1] + [next(str(e) for e in range(1, 21) if str(e) not in toks)]
    variants["adjacent-words"] = "\n".join(lines[:2] + [" ".join(swapped)]) + "\n"
    variants["tabs"] = text.replace(" ", "\t")
    variants["crlf"] = text.replace("\n", "\r\n")
    variants["trailing-blanks"] = "".join(line + " \t \n" for line in lines)
    variants["blank-lines"] = "\n\n" + "\n \t\n".join(lines) + "\n\n"
    variants["unicode-whitespace"] = text.replace(" ", "\xa0\u2003").replace("\n", " \u2028")
    variants["vertical-tab"] = text.replace(" ", " \x0b", 1)
    variants["no-final-newline"] = text.rstrip("\n")
    variants.update(SMALL_FILES)
    return variants


_PARSE_INPUTS = _parse_inputs()


@pytest.mark.parametrize("name", sorted(_PARSE_INPUTS))
def test_text_parse_matches_per_element_reference(name: str) -> None:
    text = _PARSE_INPUTS[name]
    assert _parse_outcome(matroid_from_text, text) == _parse_outcome(ref_matroid_from_text, text)
