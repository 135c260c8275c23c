from fractions import Fraction

import pytest

from omkit import (
    HLHigher,
    HLRank1,
    HLRank2,
    ParseError,
    SignMap,
    VectorConfig,
    from_chirotope,
    from_vectors,
    parse_chi,
    parse_hls,
    parse_vec,
    render_rank2_svg,
    serialize_chi,
    serialize_hls,
    to_chirotope,
)


class TestChi:
    def test_roundtrip(self):
        m = from_vectors([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)])
        text = serialize_chi(m)
        assert text == "3 4\n+0-+\n"
        assert parse_chi(text) == m

    def test_comments_and_blanks(self):
        text = "# rank then n\n\n2 3\n# body follows\n+-0\n\n"
        m = parse_chi(text)
        assert m.evaluate((1, 2)) == 1 and m.evaluate((1, 3)) == -1
        assert m.evaluate((2, 3)) == 0

    def test_body_split_across_lines(self):
        assert parse_chi("2 4\n+-\n+-0+\n") == parse_chi("2 4\n+-+-0+\n")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_chi("")

    def test_header_errors(self):
        for text in ("2\n+\n", "2 3 4\n+++\n", "a b\n+\n", "0 3\n+++\n",
                     "3 2\n+\n"):
            with pytest.raises(ParseError):
                parse_chi(text)

    @pytest.mark.parametrize("header", [
        "2 \uff13",   # fullwidth three: int() takes it
        "\u0662 3",   # Arabic-Indic two: int() takes it
        "2 1_0",       # int() reads 10
    ])
    def test_header_takes_ascii_integers(self, header, tmp_path, capsys):
        from omkit import cli

        with pytest.raises(ParseError, match="header must be two integers"):
            parse_chi(f"{header}\n+++\n")
        path = tmp_path / "x.chi"
        path.write_text(f"{header}\n+++\n", encoding="utf-8")
        assert cli.main(["check", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "header must be two integers" in err

    def test_header_sign(self):
        assert parse_chi("+2 3\n+-0\n") == parse_chi("2 3\n+-0\n")

    def test_bad_char_position(self):
        with pytest.raises(ParseError) as exc:
            parse_chi("2 3\n+x0\n")
        assert exc.value.line == 2
        assert exc.value.column == 2
        assert "line 2" in str(exc.value)

    def test_wrong_length(self):
        with pytest.raises(ParseError) as exc:
            parse_chi("2 3\n++\n")
        assert "expected 3" in str(exc.value)

    def test_huge_header_refused_before_allocation(self):
        # C(100000, 2) supports would exhaust memory if built first
        with pytest.raises(ParseError) as exc:
            parse_chi("2 100000\n+\n")
        assert "expected 4999950000" in str(exc.value)

    def test_serialize_is_canonical(self):
        m = SignMap(2, 3, {(1, 3): -1})
        assert serialize_chi(m) == "2 3\n0-0\n"
        assert serialize_chi(parse_chi(serialize_chi(m))) == serialize_chi(m)


class TestHls:
    def test_rank1_roundtrip(self):
        x = HLRank1({1, -3, 2})
        text = serialize_hls(x)
        assert text == '{"elements":["1","2","~3"],"rank":1}\n'
        assert parse_hls(text) == x

    def test_rank2_roundtrip(self):
        x = HLRank2([{1}, {2, -3}, {-1}, {-2, 3}])
        text = serialize_hls(x)
        assert parse_hls(text) == x
        assert serialize_hls(parse_hls(text)) == text

    def test_higher_roundtrip(self):
        m = from_vectors([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        x = from_chirotope(m)
        text = serialize_hls(x)
        back = parse_hls(text)
        assert back == x
        assert serialize_hls(back) == text
        assert to_chirotope(back) == m

    def test_rank4_roundtrip(self):
        m = from_vectors([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                          (0, 0, 0, 1), (1, 1, 1, 1)])
        x = from_chirotope(m)
        back = parse_hls(serialize_hls(x))
        assert back == x

    def test_json_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_hls('{"rank": 1,\n "elements": [}\n')
        assert exc.value.line == 2

    def test_shape_errors(self):
        for text in (
            '[]',
            '{"rank": 0}',
            '{"rank": 1}',
            '{"rank": 1, "elements": []}',
            '{"rank": 1, "elements": ["0"]}',
            '{"rank": 1, "elements": ["x"]}',
            '{"rank": 1, "elements": ["05"]}',
            '{"rank": 1, "elements": ["-3"]}',
            '{"rank": 2, "atoms": []}',
            '{"rank": 2, "atoms": [[]]}',
            '{"rank": 2, "atoms": ["1"]}',
            '{"rank": 3, "hyperlines": []}',
            '{"rank": 3, "hyperlines": [{"Y": {"rank": 1, "elements": ["1"]}}]}',
        ):
            with pytest.raises(ParseError):
                parse_hls(text)

    @pytest.mark.parametrize("text, path", [
        ('{"rank": true, "elements": ["1", "~2"]}', "$"),
        ('{"rank": 3, "hyperlines": [{"Y": {"rank": true, "elements": ["1"]}, '
         '"Z": {"rank": 2, "atoms": [["2"], ["3"], ["~2"], ["~3"]]}}]}', "$.hyperlines[0].Y"),
    ], ids=["top", "nested-y"])
    def test_boolean_rank_refused(self, text, path):
        # JSON true is an int to Python, and would read as rank 1
        with pytest.raises(ParseError) as exc:
            parse_hls(text)
        assert str(exc.value) == f"{path}: 'rank' must be a positive integer"

    def test_shape_error_paths(self):
        with pytest.raises(ParseError) as exc:
            parse_hls('{"rank": 2, "atoms": [["1"], ["oops"]]}')
        assert "$.atoms[1][0]" in str(exc.value)

    def test_component_rank_mismatch(self):
        z = '{"rank": 2, "atoms": [["2"], ["~2"]]}'
        y2 = '{"rank": 2, "atoms": [["1"], ["~1"]]}'
        text = f'{{"rank": 3, "hyperlines": [{{"Y": {y2}, "Z": {z}}}]}}'
        with pytest.raises(ParseError) as exc:
            parse_hls(text)
        assert "expected 1" in str(exc.value)

    def test_z_rank_mismatch(self):
        y = '{"rank": 1, "elements": ["1"]}'
        z = '{"rank": 1, "elements": ["2"]}'
        text = f'{{"rank": 3, "hyperlines": [{{"Y": {y}, "Z": {z}}}]}}'
        with pytest.raises(ParseError) as exc:
            parse_hls(text)
        assert str(exc.value) == "$.hyperlines[0].Z: rank 1, expected 2"

    def test_bad_element_in_repeated_subtree(self):
        # three hyperlines whose Y and Z texts are equal but for one bad
        # element in the last Z: the error names that Z, not an earlier one
        y = '{"rank": 1, "elements": ["1"]}'
        z = '{"rank": 2, "atoms": [["2"], ["3"], ["~2"], ["~3"]]}'
        bad = z.replace('["3"]', '["x"]')
        hls = ", ".join(f'{{"Y": {y}, "Z": {zz}}}' for zz in (z, z, bad))
        with pytest.raises(ParseError) as exc:
            parse_hls(f'{{"rank": 3, "hyperlines": [{hls}]}}')
        assert str(exc.value).startswith("$.hyperlines[2].Z.atoms[1][0]: bad element 'x'")

    def test_equal_json_of_another_rank(self):
        # hyperline[1].Y repeats the JSON list of hyperline[0].Z's atoms as
        # its "elements", which are not element tokens
        y = '{"rank": 1, "elements": ["1"]}'
        z = '{"rank": 2, "atoms": [["2"], ["~2"]]}'
        bad = '{"rank": 1, "elements": [["2"], ["~2"]]}'
        with pytest.raises(ParseError) as exc:
            parse_hls(f'{{"rank": 3, "hyperlines": [{{"Y": {y}, "Z": {z}}}, '
                      f'{{"Y": {bad}, "Z": {z}}}]}}')
        assert str(exc.value).startswith("$.hyperlines[1].Y.elements[0]: bad element")

    def test_equal_components_are_one_object(self):
        # at rank 5 each rank 1 and rank 2 component recurs under many Y
        x = parse_hls(serialize_hls(from_chirotope(from_vectors(
            [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0),
             (0, 0, 0, 0, 1), (1, 2, 3, 4, 5)]))))
        inner = [c for h in x.hyperlines for g in h.y.hyperlines for c in g]
        assert len(inner) > 2 * len(set(inner))
        assert len({id(c) for c in inner}) == len(set(inner))

    def test_serialization_order_is_stable(self):
        m = from_vectors([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
        x = from_chirotope(m)
        rebuilt = HLHigher(3, sorted(x.hyperlines, key=repr))
        assert serialize_hls(rebuilt) == serialize_hls(x)


class TestVec:
    def test_roundtrip(self):
        v = VectorConfig([(1, 0), (Fraction(-2, 3), 4)])
        assert parse_vec("1,0\n-2/3,4\n").rows == v.rows

    def test_comments_and_spaces(self):
        v = parse_vec("# config\n 1 , 2\n3,4\n")
        assert v.rows == ((1, 2), (3, 4))

    def test_float_rejected_with_hint(self):
        with pytest.raises(ParseError) as exc:
            parse_vec("1,2\n3,4.5\n")
        assert exc.value.line == 2
        assert exc.value.column == 3
        assert "not exact" in str(exc.value)

    def test_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_vec("1e3,2\n")

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_vec("1/0,2\n")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_vec("# nothing\n")

    def test_bad_token_position(self):
        with pytest.raises(ParseError) as exc:
            parse_vec("1,x\n")
        assert exc.value.line == 1 and exc.value.column == 3

    @pytest.mark.parametrize("tok, verdict", [
        ("\u0661", "bad entry"),   # Arabic-Indic one: int() takes it
        ("\u00b2", "bad entry"),   # superscript two: str.isdigit takes it
        ("1_000", "bad entry"),     # int() takes it
        ("1.5", "bad entry"),
        ("3/0", "zero denominator"),
        ("+3", 3),
        ("-0/5", Fraction(0)),
        (" 4 ", 4),
    ])
    def test_token_verdicts(self, tok, verdict, tmp_path, capsys):
        from omkit import cli

        text = f"{tok},1\n1,0\n"
        if isinstance(verdict, str):
            path = tmp_path / "x.vec"
            path.write_text(text, encoding="utf-8")
            assert cli.main(["check", str(path)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and verdict in err
            return
        (cell, one), row = parse_vec(text).rows
        # integers stay int; a p/q entry is a Fraction
        assert (cell, type(cell)) == (verdict, type(verdict))
        assert [type(x) for x in (one, *row)] == [int, int, int]


class TestSvg:
    def test_deterministic(self):
        x = HLRank2([{1}, {2, -3}, {-1}, {-2, 3}])
        assert render_rank2_svg(x) == render_rank2_svg(x)

    def test_structure(self):
        x = HLRank2([{1}, {2}, {-1}, {-2}])
        svg = render_rank2_svg(x)
        assert svg.startswith("<svg ")
        assert svg.count("<line ") == 4
        assert svg.count("<text ") == 4
        assert svg.count('text-decoration="overline"') == 2
        assert "</svg>" in svg

    def test_shift_invariant(self):
        # canonical rotation makes shifted inputs render identically
        a = HLRank2([{1}, {2}, {-1}, {-2}])
        b = HLRank2([{-1}, {-2}, {1}, {2}])
        assert render_rank2_svg(a) == render_rank2_svg(b)
