from fractions import Fraction

import numpy as np
import pytest

from pilotkit import (
    GenerationConfig,
    Partition,
    PilotAssignment,
    WeightedGraph,
    generate_system,
    graphs_equal,
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

    def test_path_round_trip(self, tmp_path):
        s = generate_system(GenerationConfig(seed=10), 6, 3, 2)
        path = tmp_path / "inst.txt"
        write_instance(path, s)
        assert systems_value_equal(read_instance(path), s)


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
