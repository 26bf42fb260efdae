"""Workspace loading: schemas, omission defaults, reference resolution."""
import json
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import Phase, given, settings, strategies as st

from embtens import (
    Action,
    Algebra,
    EmbeddingTensor,
    FlavorViolation,
    LeibnizLie,
    Matrix,
    MultiMap,
    ParseError,
    ToolkitError,
    UnresolvedReference,
    check_embedding_tensor,
    check_lie,
    load_workspace,
    parse_scalar,
    projection_tensor,
    workspace_from_dict,
)
from embtens import workspace
from embtens.algebras import FLAVORS
from embtens.cli import run
from embtens.workspace import (
    action_to_json,
    algebra_to_json,
    leibniz_lie_to_json,
    multimap_from_json,
    multimap_to_json,
    tensor_to_json,
)


def test_load_heisenberg_workspace(heisenberg_workspace_path, h3):
    ws = load_workspace(heisenberg_workspace_path)
    assert ws.algebra("h3").sc == h3.sc
    assert check_lie(ws.algebra("h3")).ok
    assert ws.tensor("T1").matrix.to_rows()[2] == [2, 3, 0]
    assert ws.settings.max_degree == 4
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


def test_huge_integer_is_a_parse_error(huge_integer_workspace_path):
    """``json.loads`` refuses an integer past Python's int-string digit limit
    with a plain ``ValueError``; the loader reports it, naming the file."""
    with pytest.raises(ParseError) as err:
        load_workspace(huge_integer_workspace_path)
    assert str(err.value).startswith(f"{huge_integer_workspace_path}: Exceeds the limit")
    assert type(err.value.__cause__) is ValueError


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
    # arityCap is not a setting: the cap is the constant graded.ARITY_CAP
    assert workspace_from_dict({"settings": {"arityCap": "four"}}).settings.max_degree == 4


def test_unknown_settings_keys_are_refused():
    """A misspelt key would otherwise leave its setting at the default unseen."""
    with pytest.raises(ParseError, match=r"^settings\.maxdegree: unknown setting$"):
        workspace_from_dict({"settings": {"maxdegree": 2}})
    with pytest.raises(ParseError, match=r"^settings\.b: unknown setting$"):
        workspace_from_dict({"settings": {"maxDegree": 2, "b": 1, "a": 1}})
    assert workspace_from_dict({"settings": {"maxDegree": 2, "arityCap": 4}}).settings.max_degree == 2


def test_multimap_json_round_trip():
    from embtens import MultiMap
    from embtens.workspace import multimap_from_json, multimap_to_json

    f = MultiMap(2, 2, 3, tuple(x for i, j in product(range(2), repeat=2)
                                for x in (Fraction(i), Fraction(1, 2), Fraction(-j))))
    data = multimap_to_json(f)
    assert data["arity"] == 2 and data["domainDim"] == 2 and data["codomainDim"] == 3
    assert multimap_from_json(data) == f


def test_multimap_json_round_trips_byte_identically_from_arity_zero():
    from embtens import MultiMap
    from embtens.workspace import multimap_from_json, multimap_to_json

    maps = [MultiMap(arity, 2, 3, tuple(
        x for idxs in product(range(2), repeat=arity)
        for x in (Fraction(sum(idxs) + 1, 2), Fraction(-len(idxs)), Fraction(0))))
        for arity in range(4)]
    for f in maps + [MultiMap(0, 0, 2, (1, 2)), MultiMap(2, 0, 3, ())]:
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
        with pytest.raises(ParseError, match=rf"^multimap\.{key}: a nonnegative integer is required$"):
            multimap_from_json(data)


def test_multimap_json_rejects_ragged_tables():
    from embtens.workspace import multimap_from_json

    with pytest.raises(ParseError):
        multimap_from_json({"arity": 2, "domainDim": 2, "codomainDim": 1,
                            "coeffs": [[[1], [2]]]})


H2 = {"dim": 2, "flavor": "lie", "sc": [[None, [1]], [[-1]]]}


@pytest.mark.parametrize("data, message", [
    ([], r"workspace: expected a JSON object at top level"),
    ({"settings": []}, r"settings: expected an object"),
    ({"algebras": []}, r"algebras: expected an object of named entries"),
    ({"algebras": {"a": 5}}, r"algebras\.a: expected an object"),
    ({"tensors": {"t": {"action": "x"}}}, r"tensors\.t\.matrix: required"),
    ({"algebras": {"a": {"dim": 1, "flavor": "jordan"}}},
     r"algebras\.a\.flavor: unknown flavor 'jordan'"),
    ({"algebras": {"g": {"dim": 2}, "h": {"dim": 1}},
      "actions": {"x": {"source": "g", "target": "h", "rho": [[[0]]]}}},
     r"actions\.x\.rho: expected 2 operator matrices"),
    ({"actions": {"x": {"source": H2, "target": H2, "rho": [[[0, 0], [0, 0]], [[0], [0], [0]]]}}},
     r"actions\.x\.rho\[1\]: expected a list of 2 items"),
    ({"actions": {"x": {"source": H2, "target": H2, "rho": [[], []]}}},
     r"actions\.x\.rho\[0\]: expected a list of 2 items"),
], ids=["top-level", "settings", "section", "entry", "required-key", "flavor", "rho-count",
        "rho-rows", "rho-empty"])
def test_typed_input_errors(data, message):
    with pytest.raises(ParseError, match=f"^{message}$"):
        workspace_from_dict(data)


def test_a_shape_error_while_loading_names_its_entry(monkeypatch, heisenberg_workspace_path):
    """A constructor's ``DimensionMismatch`` leaves the loader as a ``ParseError``
    with the entry's path, here a matrix reader that gets the shape wrong."""
    data = json.loads(heisenberg_workspace_path.read_text())
    monkeypatch.setattr(workspace, "matrix_from_json",
                        lambda data, rows, cols, path: Matrix.zero(rows, cols + 1))
    with pytest.raises(ParseError, match=r"^actions\.ad3: operators must be 3x3, not 3x4$"):
        workspace_from_dict(data)


def test_zero_row_matrices_round_trip():
    """The coherent derivations of sl2 are zero, so its projection tensor is a
    0x3 matrix, written ``[]``; it reads back as 0x3, not as 0x0."""
    sl2 = {"dim": 3, "flavor": "lie",
           "sc": [[None, [0, 0, 1], [-2]], [[0, 0, -1], None, [0, 2]], [[2], [0, -2]]]}
    t = projection_tensor(workspace_from_dict({"algebras": {"sl2": sl2}}).algebra("sl2"))
    data = tensor_to_json(t)
    assert (t.matrix.rows, t.matrix.cols, data["matrix"]) == (0, 3, [])
    back = workspace_from_dict({"tensors": {"P": data}}).tensor("P")
    assert back == t and check_embedding_tensor(back).ok
    assert tensor_to_json(back) == data


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

SCALARS = st.sampled_from((0, 0, 1, -2, Fraction(1, 2), Fraction(-5, 3)))
DIMS = st.integers(0, 3)


def _entries(draw, count: int) -> tuple:
    return tuple(draw(st.lists(SCALARS, min_size=count, max_size=count)))


def _table(draw, n: int) -> tuple:
    flat = _entries(draw, n ** 3)
    return tuple(tuple(flat[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)) for i in range(n))


@st.composite
def algebras(draw):
    n = draw(DIMS)
    return Algebra(draw(st.sampled_from(("a", "b"))), n, _table(draw, n))


@st.composite
def actions(draw):
    g, h = draw(algebras()), draw(algebras())
    return Action(g, h, tuple(Matrix(h.dim, h.dim, _entries(draw, h.dim ** 2))
                              for _ in range(g.dim)))


@st.composite
def tensors(draw):
    action = draw(actions())
    m, n = action.source.dim, action.target.dim
    return EmbeddingTensor(action, Matrix(m, n, _entries(draw, m * n)))


@st.composite
def leibniz_lies(draw):
    lie = draw(algebras())
    return LeibnizLie(lie, _table(draw, lie.dim))


@st.composite
def multimaps(draw):
    arity, n, m = draw(DIMS), draw(DIMS), draw(DIMS)
    return MultiMap(arity, n, m, _entries(draw, n ** arity * m))


# (workspace section, objects, writer, the ``Workspace`` method that reads one back)
ROUND_TRIPS = (("algebras", algebras(), algebra_to_json, "algebra"),
               ("actions", actions(), action_to_json, "action"),
               ("tensors", tensors(), tensor_to_json, "tensor"),
               ("leibnizLie", leibniz_lies(), leibniz_lie_to_json, "leibniz_lie_structure"))
PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None,
                    phases=[Phase.generate])


@pytest.mark.parametrize("section, objects, to_json, reader", ROUND_TRIPS,
                         ids=[r[0] for r in ROUND_TRIPS])
def test_json_round_trips_byte_for_byte(section, objects, to_json, reader):
    """Every object of dimensions 0-3, 0xn and nx0 matrices among them, is
    read back equal and written back to the same bytes."""
    @PROPERTY
    @given(objects)
    def round_trip(obj):
        text = json.dumps(to_json(obj))
        back = getattr(workspace_from_dict({section: {"x": json.loads(text)}}), reader)("x")
        assert back == obj
        assert json.dumps(to_json(back)) == text

    round_trip()


@PROPERTY
@given(multimaps())
def test_multimap_json_round_trips_byte_for_byte(f):
    text = json.dumps(multimap_to_json(f))
    back = multimap_from_json(json.loads(text))
    assert back == f and json.dumps(multimap_to_json(back)) == text


LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-1, 3),
                   st.sampled_from(("1/2", "x", "a", "lie", 0.5)))
JSON = st.recursive(LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.dictionaries(st.sampled_from(("dim", "sc", "rho", "a", "maxDegree")), inner, max_size=3)),
    max_leaves=12)


@st.composite
def fuzzed_workspaces(draw):
    """A valid workspace of dimensions at most 3, a named reference in each
    kind of slot, with one node at a random depth replaced by random JSON."""
    t, l = draw(tensors()), draw(leibniz_lies())
    data = {"settings": {"maxDegree": 2, "arityCap": 4},
            "algebras": {"a": algebra_to_json(t.action.source),
                         "b": algebra_to_json(t.action.target)},
            "actions": {"x": {**action_to_json(t.action), "source": "a", "target": "b"}},
            "tensors": {"t": {**tensor_to_json(t), "action": "x"}},
            "leibnizLie": {"l": leibniz_lie_to_json(l)}}
    if draw(st.booleans()):
        data["algebras"]["a"]["flavor"] = draw(st.sampled_from(FLAVORS + ("jordan",)))
    node = data
    for _ in range(draw(st.integers(1, 7))):
        if not isinstance(node, (dict, list)) or not node:
            break
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        parent, node = node, node[key]
    parent[key] = draw(JSON)
    return data


@settings(derandomize=True, database=None, max_examples=150, deadline=None,
          phases=[Phase.generate])
@given(fuzzed_workspaces())
def test_fuzzed_workspaces_raise_only_toolkit_errors(data):
    try:
        workspace_from_dict(data)
    except ToolkitError:
        pass
