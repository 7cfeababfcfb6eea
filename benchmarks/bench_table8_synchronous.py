"""Table VIII — synchronously repeating failures on near-identical servers."""

from benchmarks._shared import emit
from repro.analysis import repeating, report
from repro.core.timeutil import to_datetime


def test_table8_synchronous(benchmark, trace, dataset):
    groups = benchmark.pedantic(
        repeating.synchronous_groups,
        args=(dataset,),
        kwargs={"window_seconds": 60.0, "min_matches": 3},
        rounds=3,
        iterations=1,
    )
    rows = []
    for g in groups[:8]:
        examples = ", ".join(
            f"{to_datetime(t):%y-%m-%d %H:%M}" for t in g.example_times[:3]
        )
        rows.append((g.host_ids[0], g.host_ids[1], g.n_synchronized, examples))
    emit(
        "table8_synchronous",
        report.format_table(
            ["server A", "server B", "synced failures", "example times"],
            rows,
            title="Table VIII — synchronous repeating failures "
                  "(paper: servers C/D repeat within seconds for months)",
        ),
    )
    assert groups

    # The detected groups must include injected ground truth.
    host_ids = trace.fleet.host_ids
    injected = {
        frozenset(host_ids[list(record.server_rows)].tolist())
        for record in trace.injections
        if record.kind == "synchronous_group"
    }
    found = {frozenset(g.host_ids) for g in groups}
    assert injected & found
