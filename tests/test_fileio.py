import dataclasses
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pilotkit import (
    CfMmimoSystem,
    GenerationConfig,
    InfeasibleAssignmentError,
    InvalidPartitionError,
    Partition,
    PilotAssignment,
    WeightedGraph,
    generate_system,
    graphs_equal,
    mkp_to_pa,
)
from pilotkit.fileio import (
    FormatError,
    format_assignment,
    format_graph,
    format_instance,
    format_partition,
    parse_assignment,
    parse_graph,
    parse_instance,
    parse_partition,
    read_instance,
    write_instance,
)

from pilotkit.system_model import _gamma_from_beta

import reference
from conftest import make_system


def systems_value_equal(a, b):
    return (
        a.m_aps == b.m_aps
        and a.k_users == b.k_users
        and a.tau_pilots == b.tau_pilots
        and a.rho_u == b.rho_u
        and a.tau_c == b.tau_c
        and a.serving_sets == b.serving_sets
        and np.array_equal(a.beta, b.beta)
        and np.array_equal(a.gamma, b.gamma)
        and np.array_equal(a.eta, b.eta)
    )


class TestInstanceFormat:
    def test_round_trip_value_exact(self):
        s = generate_system(GenerationConfig(seed=8), 10, 4, 2)
        back = parse_instance(format_instance(s))
        assert systems_value_equal(s, back)

    def test_serialize_is_idempotent(self):
        s = generate_system(GenerationConfig(seed=9), 8, 3, 2)
        text = format_instance(s)
        assert format_instance(parse_instance(text)) == text

    def test_awkward_floats_survive(self):
        beta = [[1e-300, 0.1 + 0.2], [123456789.123456789, 1.0]]
        s = make_system(beta, [(0,), (1,)], tau=1)
        back = parse_instance(format_instance(s))
        assert np.array_equal(s.beta, back.beta)

    def test_comments_and_blanks_ignored(self):
        s = make_system([[1.0]], [(0,)], tau=1)
        text = format_instance(s)
        noisy = "# generated for a test\n\n" + text.replace("\ntau_c", "\n# radio\ntau_c")
        assert systems_value_equal(parse_instance(noisy), s)

    def test_wrong_magic(self):
        with pytest.raises(FormatError, match="expected header"):
            parse_instance("mkp-graph/1\n")

    def test_row_count_mismatch(self):
        s = make_system([[1.0], [1.0]], [(0,), (0,)], tau=2)
        text = format_instance(s)
        truncated = "\n".join(text.splitlines()[:-1]) + "\n"
        with pytest.raises(FormatError):
            parse_instance(truncated)

    def test_row_width_mismatch(self):
        s = make_system([[1.0, 2.0]], [(0,)], tau=1)
        bad = format_instance(s).replace("beta 1.0 2.0", "beta 1.0")
        with pytest.raises(FormatError, match="beta row"):
            parse_instance(bad)

    def test_trailing_garbage(self):
        s = make_system([[1.0]], [(0,)], tau=1)
        with pytest.raises(FormatError, match="trailing"):
            parse_instance(format_instance(s) + "whatever else\n")

    @pytest.mark.parametrize(
        "key", ["aps", "users", "pilots", "rho_u", "tau_c", "eta", "serve", "beta", "gamma"]
    )
    def test_bad_token_and_bad_count_name_the_key(self, key):
        lines = format_instance(make_system([[1.0, 0.5], [0.5, 1.0]], [(0,), (1,)], tau=1)).splitlines()
        i = next(i for i, line in enumerate(lines) if line.split()[0] == key)
        names_key = rf"\b{key}\b"
        bad_token = lines.copy()
        bad_token[i] = f"{key} x" + lines[i][len(key):]
        with pytest.raises(FormatError, match=names_key):
            parse_instance("\n".join(bad_token) + "\n")
        # a serve line holds any number of APs: its count is one line per user
        bad_count = lines.copy()
        if key == "serve":
            del bad_count[i]
        else:
            bad_count[i] += " 1"
        with pytest.raises(FormatError, match=names_key):
            parse_instance("\n".join(bad_count) + "\n")

    def test_path_round_trip(self, tmp_path):
        s = generate_system(GenerationConfig(seed=10), 6, 3, 2)
        path = tmp_path / "inst.txt"
        write_instance(path, s)
        assert systems_value_equal(read_instance(path), s)


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def default_gamma(s):
    with np.errstate(all="ignore"):
        return _gamma_from_beta(s.beta, s.rho_u, s.tau_pilots)


def with_gamma(s, gamma):
    return dataclasses.replace(s, gamma=gamma)


class TestDefaultGamma:
    """A gamma that is the default estimate of beta, bit for bit, is the
    line ``gamma default`` under ``pa-instance/2``; any other keeps its
    K rows under ``pa-instance/1``."""

    def test_generated_and_back_reduced_systems_write_one_line(self):
        g = WeightedGraph(3, 2, {(0, 1): 1, (1, 2): Fraction(3, 7), (0, 2): 0.25})
        for s in (generate_system(GenerationConfig(seed=3), 12, 5, 2), mkp_to_pa(g)):
            text = format_instance(s)
            assert text.startswith("pa-instance/2\n") and text.endswith("\ngamma default\n")
            assert "gamma " not in text.replace("gamma default", "")
            back = parse_instance(text)
            assert same_bits(back.gamma, s.gamma) and format_instance(back) == text

    @pytest.mark.parametrize("change", ["one ulp", "negative zero"])
    def test_near_default_gamma_keeps_its_rows(self, change):
        s = make_system([[0.0, 0.5], [0.25, 1.0]], [(1,), (0, 1)], tau=2, rho_u=3.0)
        gamma = default_gamma(s).copy()
        assert format_instance(with_gamma(s, gamma.copy())).startswith("pa-instance/2\n")
        if change == "one ulp":
            gamma[1, 0] = np.nextafter(gamma[1, 0], np.inf)
        else:
            assert gamma[0, 0] == 0.0 and not np.signbit(gamma[0, 0])
            gamma[0, 0] = -0.0
        s = with_gamma(s, gamma)
        text = format_instance(s)
        assert text.startswith("pa-instance/1\n") and "gamma default" not in text
        assert text == reference.format_instance(s)
        back = parse_instance(text)
        assert same_bits(back.gamma, s.gamma) and format_instance(back) == text

    def test_gamma_section_must_match_the_header(self):
        s = generate_system(GenerationConfig(seed=5), 8, 3, 2)
        v2, v1 = format_instance(s), reference.format_instance(s)
        rows = v1[v1.index("\ngamma ") + 1:]
        default_under_v1 = v2.replace("pa-instance/2", "pa-instance/1")
        rows_under_v2 = v2.replace("gamma default\n", rows)
        for bad, message in [
            (default_under_v1, "bad value in gamma line"),
            (rows_under_v2, "gamma row has 8 entries, expected 1"),
            (v2.replace("gamma default", "gamma defaults"), "wants the line 'gamma default'"),
            (v2.replace("gamma default\n", ""), "expected 'gamma' line"),
            (v2 + rows, "trailing content"),
        ]:
            with pytest.raises(FormatError, match=message):
                parse_instance(bad)

    def test_huge_pilot_count_is_a_format_error(self):
        text = format_instance(generate_system(GenerationConfig(seed=5), 8, 3, 2))
        with pytest.raises(FormatError, match="beyond float range"):
            parse_instance(text.replace("pilots 2", f"pilots {10**400}"))
        s = dataclasses.replace(make_system([[1.0]], [(0,)], tau=1), tau_pilots=10**400)
        assert format_instance(s).startswith("pa-instance/1\n")

    def test_text_of_the_row_writer_parses_to_an_equal_system(self):
        g = WeightedGraph(4, 2, {(0, 1): 2, (1, 2): Fraction(1, 3), (2, 3): 0.5})
        for s in (generate_system(GenerationConfig(seed=6), 16, 6, 3), mkp_to_pa(g)):
            back = parse_instance(reference.format_instance(s))
            for f in dataclasses.fields(CfMmimoSystem):
                a, b = getattr(back, f.name), getattr(s, f.name)
                if f.name == "beta_sq_exact":  # not part of the file
                    assert a is None
                elif isinstance(a, np.ndarray):
                    assert same_bits(a, b), f.name
                else:
                    assert a == b and type(a) is type(b), f.name
            assert format_instance(back) == format_instance(s)

    @pytest.mark.parametrize("value", [0.0, -1.0, -0.25, np.inf, 1e308])
    def test_invalid_beta_writes_without_warnings(self, value):
        beta = [[value, 1.0], [1.0, 1.0]]
        for gamma in (None, "default"):
            s = make_system(beta, [(0,), (1,)], tau=2, rho_u=2.0)
            if gamma:
                s = with_gamma(s, default_gamma(s))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                text = format_instance(s)
                back = parse_instance(text)
            assert text.startswith("pa-instance/2" if gamma else "pa-instance/1")
            assert same_bits(back.gamma, s.gamma) and same_bits(back.beta, s.beta)


class TestGraphFormat:
    def test_mixed_weight_types(self):
        g = WeightedGraph(4, 2, {(0, 1): 1, (1, 2): Fraction(3, 7), (2, 3): 0.25})
        back = parse_graph(format_graph(g))
        assert back.weights == {(0, 1): 1, (1, 2): Fraction(3, 7), (2, 3): 0.25}
        assert graphs_equal(g, back)

    def test_serialize_is_idempotent(self):
        g = WeightedGraph(3, 2, {(0, 2): Fraction(1, 3), (0, 1): 1e-17})
        text = format_graph(g)
        assert format_graph(parse_graph(text)) == text

    def test_weightless_edge_defaults_to_one(self):
        g = parse_graph("mkp-graph/1\nvertices 3\nparts 2\nedge 0 1\n")
        assert g.weights == {(0, 1): 1}

    def test_duplicate_edge_rejected(self):
        text = "mkp-graph/1\nvertices 3\nparts 2\nedge 0 1 1\nedge 1 0 1\n"
        with pytest.raises(FormatError, match="duplicate"):
            parse_graph(text)

    def test_bad_weight_token(self):
        with pytest.raises(FormatError, match="bad"):
            parse_graph("mkp-graph/1\nvertices 2\nparts 2\nedge 0 1 x\n")

    @pytest.mark.parametrize("token", ["nan", "inf", "1e999"])
    def test_non_finite_weight_rejected(self, token):
        with pytest.raises(FormatError, match="non-finite"):
            parse_graph(f"mkp-graph/1\nvertices 2\nparts 2\nedge 0 1 {token}\n")

    def test_structural_errors_become_format_errors(self):
        with pytest.raises(FormatError, match="k_parts"):
            parse_graph("mkp-graph/1\nvertices 2\nparts 5\n")

    def test_empty_graph(self):
        g = parse_graph("mkp-graph/1\nvertices 4\nparts 2\n")
        assert g.n_vertices == 4 and not g.weights


class TestAssignmentFormat:
    def test_round_trip(self):
        a = PilotAssignment((0, 2, 1, 0), 3)
        assert parse_assignment(format_assignment(a)) == a

    def test_infeasible_content_raises_on_parse(self):
        text = "pa-assignment/1\nusers 3\npilots 2\nassign 0 0 0\n"
        with pytest.raises(ValueError, match="not surjective"):
            parse_assignment(text)

    def test_length_mismatch(self):
        text = "pa-assignment/1\nusers 3\npilots 2\nassign 0 1\n"
        with pytest.raises(FormatError, match="lists 2"):
            parse_assignment(text)


class TestPartitionFormat:
    def test_round_trip(self):
        p = Partition((1, 0, 1), 2)
        assert parse_partition(format_partition(p)) == p

    def test_bytes_stable(self):
        p = Partition((0, 1, 2, 0), 3)
        text = format_partition(p)
        assert format_partition(parse_partition(text)) == text


class TestHugeCounts:
    """A count far beyond the labels given is refused before any work
    proportional to the count."""

    def test_huge_pilot_count(self):
        text = f"pa-assignment/1\nusers 2\npilots {10**18}\nassign 0 1\n"
        with pytest.raises(InfeasibleAssignmentError, match="not surjective"):
            parse_assignment(text)

    def test_huge_part_count(self):
        text = f"mkp-partition/1\nvertices 2\nparts {10**18}\nassign 0 1\n"
        with pytest.raises(InvalidPartitionError, match="empty"):
            parse_partition(text)

    def test_missing_labels_are_capped_in_the_message(self):
        with pytest.raises(InfeasibleAssignmentError, match=r"\[1, 2, .*, 10\] and 39 more") as exc:
            PilotAssignment((0,) * 50, 50)
        assert len(str(exc.value)) < 120
        with pytest.raises(InvalidPartitionError, match="and 39 more"):
            Partition((0,) * 50, 50)


# Hypothesis fuzzing of the four parsers: each either returns a value or
# raises one of the three input errors, all of which the CLI maps to exit 3.
INPUT_ERRORS = (FormatError, InfeasibleAssignmentError, InvalidPartitionError)
PARSERS = {
    "instance": parse_instance,
    "graph": parse_graph,
    "assignment": parse_assignment,
    "partition": parse_partition,
}
HEADER_KEYS = ("aps", "users", "pilots", "vertices", "parts")

finite = st.floats(allow_nan=False, allow_infinity=False)
counts = st.one_of(
    st.integers(-3, 8),
    st.integers(-(10**20), 10**20),
    st.sampled_from([10**18, 99999999999999999999, -(10**18)]),
)
tokens = st.one_of(
    counts.map(str),
    st.floats().map(repr),
    st.tuples(st.integers(-9, 99), st.integers(-3, 9)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "1/0", "0x10", "1_0", "x", "#", "edge"]),
    st.text(max_size=5),
)


@st.composite
def labels(draw, max_count=5):
    count = draw(st.integers(1, max_count))
    extra = draw(st.lists(st.integers(0, count - 1), max_size=5))
    return tuple(draw(st.permutations(list(range(count)) + extra))), count


@st.composite
def systems(draw):
    m, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    matrix = st.lists(st.lists(finite, min_size=m, max_size=m), min_size=k, max_size=k)
    return CfMmimoSystem(
        m_aps=m,
        k_users=k,
        tau_pilots=draw(st.integers(1, k)),
        beta=np.array(draw(matrix)),
        serving_sets=tuple(draw(st.lists(st.sets(st.integers(0, m - 1)), min_size=k, max_size=k))),
        gamma=np.array(draw(matrix)),
        eta=np.array(draw(st.lists(finite, min_size=k, max_size=k))),
        rho_u=draw(finite),
        tau_c=draw(st.integers(-5, 500)),
    )


@st.composite
def systems_any_gamma(draw):
    """systems() with gamma either drawn freely or the default estimate."""
    s = draw(systems())
    return with_gamma(s, default_gamma(s)) if draw(st.booleans()) else s


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 6))
    weight = st.one_of(
        st.integers(0, 10**30),
        st.fractions(min_value=0, max_denominator=10**6),
        st.floats(min_value=0, allow_infinity=False),
    )
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] < p[1])
    return WeightedGraph(n, draw(st.integers(1, n)), draw(st.dictionaries(pairs, weight, max_size=8)))


def _valid_text(kind):
    if kind == "instance":
        return systems_any_gamma().map(format_instance)
    if kind == "graph":
        return graphs().map(format_graph)
    if kind == "assignment":
        return labels().map(lambda lc: format_assignment(PilotAssignment(*lc)))
    return labels().map(lambda lc: format_partition(Partition(*lc)))


@st.composite
def mutated_documents(draw, kinds=tuple(sorted(PARSERS))):
    """A well-formed document of a random kind, then up to four edits:
    a header count replaced (huge and negative counts included), a token
    replaced, a line dropped, duplicated or inserted."""
    kind = draw(st.sampled_from(kinds))
    lines = draw(_valid_text(kind)).splitlines()
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["count", "token", "drop", "dup", "insert"]))
        i = draw(st.integers(0, len(lines) - 1))
        if op == "count":
            lines[i] = f"{draw(st.sampled_from(HEADER_KEYS))} {draw(counts)}"
        elif op == "token":
            cells = lines[i].split() or [""]
            cells[draw(st.integers(0, len(cells) - 1))] = draw(tokens)
            lines[i] = " ".join(cells)
        elif op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "dup":
            lines.insert(i, lines[i])
        elif op == "insert":
            lines.insert(i, " ".join(draw(st.lists(tokens, max_size=4))))
    return kind, "\n".join(lines) + "\n"


class TestParserFuzzing:
    @given(doc=mutated_documents())
    @settings(max_examples=400, deadline=None)
    def test_parsers_raise_only_input_errors(self, doc):
        kind, text = doc
        try:
            PARSERS[kind](text)
        except INPUT_ERRORS:
            pass

    @given(text=st.text(max_size=60), kind=st.sampled_from(sorted(PARSERS)))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_text_raises_only_input_errors(self, text, kind):
        try:
            PARSERS[kind](text)
        except INPUT_ERRORS:
            pass

    @given(s=systems())
    @settings(max_examples=60, deadline=None)
    def test_instance_round_trip(self, s):
        assert systems_value_equal(parse_instance(format_instance(s)), s)

    @given(s=systems_any_gamma())
    @settings(max_examples=100, deadline=None)
    def test_instance_round_trip_any_gamma(self, s):
        text = format_instance(s)
        back = parse_instance(text)
        assert text.startswith("pa-instance/2" if same_bits(s.gamma, default_gamma(s)) else "pa-instance/1")
        assert same_bits(back.beta, s.beta) and same_bits(back.gamma, s.gamma)
        assert format_instance(back) == text

    @given(g=graphs())
    @settings(max_examples=60, deadline=None)
    def test_graph_round_trip(self, g):
        back = parse_graph(format_graph(g))
        assert graphs_equal(back, g)

    @given(lc=labels())
    @settings(max_examples=60, deadline=None)
    def test_label_round_trips(self, lc):
        a, p = PilotAssignment(*lc), Partition(*lc)
        back_a = parse_assignment(format_assignment(a))
        back_p = parse_partition(format_partition(p))
        assert (back_a.pilot_of, back_a.n_pilots) == lc
        assert (back_p.block_of, back_p.n_blocks) == lc


# The words that tell an assignment file from a partition file, both ways.
KEY_SWAP = {"pa-assignment/1": "mkp-partition/1", "users": "vertices", "pilots": "parts"}
KEY_SWAP.update({v: k for k, v in KEY_SWAP.items()})


def swap_keys(text):
    return re.sub("|".join(map(re.escape, KEY_SWAP)), lambda m: KEY_SWAP[m.group()], text)


def label_file_outcomes(text):
    """What parse_assignment makes of text and parse_partition of its
    swapped twin: the labelling, or the kind of error and, for a
    FormatError, its text with the assignment's words swapped."""
    outcomes = []
    for parse, error, doc, words in [
        (parse_assignment, InfeasibleAssignmentError, text, swap_keys),
        (parse_partition, InvalidPartitionError, swap_keys(text), str),
    ]:
        try:
            outcomes.append(tuple(vars(parse(doc)).values()))
        except FormatError as e:
            outcomes.append(("format", words(str(e))))
        except error:
            outcomes.append(("labels",))
    return outcomes


class TestLabelFilesShareOneForm:
    @pytest.mark.parametrize(
        "body",
        [
            "users 3\npilots 2\nassign 0 1\n",
            "users 2\npilots 2\nassign 0 x\n",
            "users 2\nassign 0 1\n",
            "users 2 2\npilots 2\nassign 0 1\n",
            "users 2\npilots 2\nassign 0 1\nassign 0 1\n",
        ],
    )
    def test_same_format_error_once_keys_swapped(self, body):
        a, p = label_file_outcomes("pa-assignment/1\n" + body)
        assert a[0] == "format" and p == a

    @given(doc=mutated_documents(kinds=("assignment",)))
    @settings(max_examples=300, deadline=None)
    def test_mutated_files_fail_alike(self, doc):
        a, p = label_file_outcomes(doc[1])
        assert p == a
