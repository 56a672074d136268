"""Property-based tests for Task Bench patterns, specs, and the bench
config parser."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bench.config import parse_yaml
from repro.taskbench import (
    KernelSpec,
    Pattern,
    TaskBenchSpec,
    build_omp_program,
    dependencies,
    dependents,
)

widths = st.sampled_from([1, 2, 4, 8, 16, 32])
patterns = st.sampled_from(list(Pattern))


@given(patterns, widths, st.integers(min_value=0, max_value=10))
@settings(deadline=None, max_examples=100)
def test_dependencies_always_in_bounds_and_sorted(pattern, width, step):
    for point in range(width):
        deps = dependencies(pattern, width, step, point)
        assert list(deps) == sorted(set(deps))
        assert all(0 <= q < width for q in deps)


@given(patterns, widths, st.integers(min_value=0, max_value=6))
@settings(deadline=None, max_examples=60)
def test_dependents_is_exact_inverse(pattern, width, step):
    forward = {
        (q, p)
        for p in range(width)
        for q in dependencies(pattern, width, step + 1, p)
    }
    backward = {
        (p, c)
        for p in range(width)
        for c in dependents(pattern, width, step, p)
    }
    assert forward == backward


@given(
    patterns,
    widths,
    st.integers(min_value=2, max_value=8),
    st.floats(min_value=0.1, max_value=10.0),
)
@settings(deadline=None, max_examples=60)
def test_ccr_bytes_match_definition(pattern, width, steps, ccr):
    """with_ccr sizes messages so mean per-task input time equals
    duration / ccr (for patterns that communicate at all)."""
    kernel = KernelSpec(1_000_000)
    bw = 1e10
    spec = TaskBenchSpec.with_ccr(width, steps, pattern, kernel, ccr, bw)
    total_input_bytes = spec.output_bytes * spec.total_edges
    tasks_with_inputs = width * (steps - 1)
    if spec.total_edges == 0:
        assert spec.output_bytes == 0.0
        return
    mean_input_time = total_input_bytes / bw / tasks_with_inputs
    assert abs(mean_input_time - kernel.duration / ccr) < 1e-9


@given(patterns, widths, st.integers(min_value=1, max_value=6))
@settings(deadline=None, max_examples=40)
def test_built_program_edge_superset_of_pattern(pattern, width, steps):
    """The OpenMP port's graph contains every pattern (RAW) edge."""
    spec = TaskBenchSpec(width, steps, pattern, KernelSpec(1000), 10.0)
    prog = build_omp_program(spec)
    ids = {
        (t.meta["step"], t.meta["point"]): t.task_id
        for t in prog.graph.tasks()
    }
    g = prog.graph.nx_graph()
    import networkx as nx

    closure = nx.transitive_closure_dag(g)
    for step in range(1, steps):
        for point in range(width):
            for q in spec.deps(step, point):
                assert closure.has_edge(ids[(step - 1, q)], ids[(step, point)])


# -- mini-YAML round-trips ---------------------------------------------------

def _reads_as_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


yaml_scalars = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.booleans(),
    st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
        min_size=1,
        max_size=10,
    ).filter(
        # Number-like strings (``12``, ``0E0``) rightly parse as numbers.
        lambda s: s.lower() not in ("true", "false", "yes", "no", "null")
        and not _reads_as_number(s)
    ),
)


@given(
    st.dictionaries(
        st.text(
            alphabet=st.characters(whitelist_categories=("Ll",)),
            min_size=1,
            max_size=8,
        ),
        yaml_scalars,
        min_size=1,
        max_size=8,
    )
)
@settings(deadline=None, max_examples=60)
def test_yaml_flat_mapping_roundtrip(mapping):
    text = "\n".join(f"{k}: {v}" for k, v in mapping.items())
    assert parse_yaml(text) == mapping


def test_yaml_exponent_scalar_reads_as_float():
    assert parse_yaml("a: 0E0") == {"a": 0.0}


@given(
    st.lists(
        st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=10
    )
)
@settings(deadline=None, max_examples=40)
def test_yaml_list_roundtrip(values):
    block = "xs:\n" + "\n".join(f"  - {v}" for v in values)
    inline = f"xs: [{', '.join(map(str, values))}]"
    assert parse_yaml(block) == {"xs": values}
    assert parse_yaml(inline) == {"xs": values}
