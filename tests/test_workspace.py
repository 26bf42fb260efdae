"""Workspace loading: schemas, omission defaults, reference resolution."""
import json
from fractions import Fraction

import pytest

from embtens import (
    FlavorViolation,
    ParseError,
    UnresolvedReference,
    check_lie,
    load_workspace,
    parse_scalar,
    workspace_from_dict,
)
from embtens.cli import run
from embtens.workspace import (
    algebra_to_json,
    leibniz_lie_to_json,
    tensor_to_json,
)


def test_load_heisenberg_workspace(heisenberg_workspace_path, h3):
    ws = load_workspace(heisenberg_workspace_path)
    assert ws.algebra("h3").sc == h3.sc
    assert check_lie(ws.algebra("h3")).ok
    assert ws.tensor("T1").matrix.to_rows()[2] == [2, 3, 0]
    assert ws.settings.max_degree == 4
    assert ws.settings.arity_cap == 4
    tri = ws.leibniz_lie_structure("ll3").triangle
    assert tri[0][0] == (0, 0, Fraction(-1))


def test_empty_workspace():
    ws = workspace_from_dict({})
    assert not ws.algebras and not ws.actions and not ws.tensors and not ws.leibniz_lie


def test_sc_omissions_default_to_zero():
    ws = workspace_from_dict({
        "algebras": {"a": {"dim": 3, "flavor": "lie",
                           "sc": [[None, [0, 0, 1]], [[0, 0, -1]]]}}})
    a = ws.algebra("a")
    assert a.sc[0][1] == (0, 0, 1)
    assert a.sc[1][0] == (0, 0, -1)
    assert a.sc[2][2] == (0, 0, 0)
    assert a.sc[0][0] == (0, 0, 0)


def test_short_vectors_padded():
    ws = workspace_from_dict({
        "algebras": {"a": {"dim": 2, "sc": [[[0, 1]], [["1/2"]]]}}})
    assert ws.algebra("a").sc[1][0] == (Fraction(1, 2), 0)


def test_null_rows_and_entries_are_zero_but_a_null_coordinate_is_refused():
    ws = workspace_from_dict({"algebras": {"a": {"dim": 2, "sc": [None, [None, [1]]]}}})
    assert ws.algebra("a").sc == (((0, 0), (0, 0)), ((0, 0), (1, 0)))
    with pytest.raises(ParseError, match=r"algebras\.a\.sc\[0\]\[0\]\[1\]: not a rational"):
        workspace_from_dict({"algebras": {"a": {"dim": 2, "sc": [[[0, None]]]}}})


@pytest.mark.parametrize("sc, path", [
    ([[], [], []], r"algebras\.a\.sc"),
    ([[[0], [0], [0]]], r"algebras\.a\.sc\[0\]"),
    ([[], [None, [0, 1, 0]]], r"algebras\.a\.sc\[1\]\[1\]"),
    ([5], r"algebras\.a\.sc\[0\]"),
])
def test_lists_too_long_or_not_lists_name_their_path(sc, path):
    with pytest.raises(ParseError, match=path + ": expected a list of at most 2 items"):
        workspace_from_dict({"algebras": {"a": {"dim": 2, "sc": sc}}})


def test_flavor_violation_reports_witness():
    with pytest.raises(FlavorViolation) as err:
        workspace_from_dict({
            "algebras": {"bad": {"dim": 3, "flavor": "lie",
                                 "sc": [[None, [0, 1, 0]], [[0, 0, -1]]]}}})
    message = str(err.value)
    assert "bad" in message
    assert "antisymmetry" in message


def test_unresolved_reference():
    with pytest.raises(UnresolvedReference) as err:
        workspace_from_dict({
            "actions": {"a": {"source": "nope", "target": "nope", "rho": []}}})
    assert str(err.value) == "actions.a.source: unknown algebra 'nope'"
    with pytest.raises(UnresolvedReference) as err:
        workspace_from_dict({"tensors": {"t": {"action": "gone", "matrix": []}}})
    assert str(err.value) == "tensors.t.action: unknown action 'gone'"
    with pytest.raises(UnresolvedReference) as err:
        workspace_from_dict({}).tensor("x")
    assert str(err.value) == "unknown tensor 'x'"


def test_parse_error_reports_position(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"algebras": {,}}', encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_workspace(bad)
    assert "line 1" in str(err.value)


def test_duplicate_names_rejected(tmp_path):
    bad = tmp_path / "dup.json"
    bad.write_text(
        '{"algebras": {"a": {"dim": 1}, "a": {"dim": 2}}}', encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_workspace(bad)
    assert "duplicate" in str(err.value)


def test_parse_error_for_bad_scalar():
    with pytest.raises(ParseError) as err:
        workspace_from_dict({
            "algebras": {"a": {"dim": 1, "sc": [[[0.5]]]}}})
    assert "sc" in str(err.value)


def test_scalar_digits_and_algebra_names_are_strict(tmp_path):
    # Fraction reads any Unicode decimal digit; the wire format takes ASCII 0-9 only
    for text in ("\u0663/\u0664", "\uff11"):
        with pytest.raises(ParseError, match="not a rational scalar"):
            parse_scalar(text)
    for name in (5, [1]):
        with pytest.raises(ParseError, match=r"^algebras\.a\.name: expected a string$"):
            workspace_from_dict({"algebras": {"a": {"name": name, "dim": 0}}})
    ws = tmp_path / "ws.json"
    for entry in ({"dim": 1, "sc": [[["\u0663/\u0664"]]]}, {"dim": 1, "name": 5},
                  {"dim": 1, "name": [1]}):
        ws.write_text(json.dumps({"algebras": {"a": entry}}), encoding="utf-8")
        code, _ = run(["check", "lie", "--algebra", "a", "--workspace", str(ws)])
        assert code == 2


def test_inline_references_accepted(heisenberg_workspace_path):
    ws = load_workspace(heisenberg_workspace_path)
    tensor_json = tensor_to_json(ws.tensor("T1"))
    ws2 = workspace_from_dict({"tensors": {"copy": tensor_json}})
    assert ws2.tensor("copy").matrix == ws.tensor("T1").matrix
    assert ws2.tensor("copy").action.source.sc == ws.tensor("T1").action.source.sc


def test_algebra_json_round_trip(h3):
    data = algebra_to_json(h3)
    ws = workspace_from_dict({"algebras": {"back": data}})
    assert ws.algebra("back").sc == h3.sc
    assert ws.algebra("back").flavor == "lie"


def test_leibniz_lie_json_round_trip(ll3):
    data = leibniz_lie_to_json(ll3)
    ws = workspace_from_dict({"leibnizLie": {"back": data}})
    assert ws.leibniz_lie_structure("back").triangle == ll3.triangle


def test_settings_validation():
    with pytest.raises(ParseError):
        workspace_from_dict({"settings": {"maxDegree": 0}})
    with pytest.raises(ParseError):
        workspace_from_dict({"settings": {"arityCap": "four"}})


def test_multimap_json_round_trip():
    from embtens import MultiMap
    from embtens.workspace import multimap_from_json, multimap_to_json

    f = MultiMap.from_function(
        2, 2, 3, lambda idxs: (Fraction(idxs[0]), Fraction(1, 2), Fraction(-idxs[1])))
    data = multimap_to_json(f)
    assert data["arity"] == 2 and data["domainDim"] == 2 and data["codomainDim"] == 3
    assert multimap_from_json(data) == f


def test_multimap_json_round_trips_byte_identically_from_arity_zero():
    from embtens import MultiMap
    from embtens.workspace import multimap_from_json, multimap_to_json

    for arity in range(4):
        f = MultiMap.from_function(arity, 2, 3, lambda idxs: (
            Fraction(sum(idxs) + 1, 2), Fraction(-len(idxs)), Fraction(0)))
        text = json.dumps(multimap_to_json(f))
        back = multimap_from_json(json.loads(text))
        assert back == f
        assert json.dumps(multimap_to_json(back)) == text
    with pytest.raises(ParseError, match="arity: a nonnegative integer"):
        multimap_from_json({"arity": -1, "domainDim": 2, "codomainDim": 1, "coeffs": [1]})


def test_boolean_dimensions_rejected():
    # a JSON true is an int to isinstance; it must not pass as dimension 1
    with pytest.raises(ParseError, match=r"algebras\.a\.dim: a nonnegative integer is required"):
        workspace_from_dict({"algebras": {"a": {"dim": True, "sc": [[[0]]]}}})
    from embtens.workspace import multimap_from_json

    for key in ("domainDim", "codomainDim"):
        data = {"arity": 0, "domainDim": 1, "codomainDim": 1, "coeffs": [1]}
        data[key] = True
        with pytest.raises(ParseError, match="multimap: bad dimensions"):
            multimap_from_json(data)


def test_multimap_json_rejects_ragged_tables():
    from embtens.workspace import multimap_from_json

    with pytest.raises(ParseError):
        multimap_from_json({"arity": 2, "domainDim": 2, "codomainDim": 1,
                            "coeffs": [[[1], [2]]]})
