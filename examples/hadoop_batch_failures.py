"""Case study: batch failures on a Hadoop-style product line.

Section V-A of the paper describes a large batch-processing product
line whose homogeneous drive cohorts fail in storms — thousands of
SMART alerts in a few hours (Case 1), motherboards with shared SAS
flaws (Case 2), and whole PDUs going dark (Case 3).

This example plays an SRE investigating one such line:

1. find the line with the most HDD failures;
2. chart its daily failure counts and the r_N batch frequencies;
3. detect the individual batch events and characterize each (window,
   dominant failure type, affected servers);
4. cross-check detections against the simulator's ground truth.

Run:
    python examples/hadoop_batch_failures.py
"""


from repro import ComponentClass, generate_paper_trace
from repro.analysis import batch, report


def main() -> None:
    trace = generate_paper_trace(scale=0.15, seed=42)
    dataset = trace.dataset

    # 1. The busiest line by HDD failures — in the paper these are the
    #    big batch-processing (Hadoop) fleets with storage-heavy servers.
    hdd = dataset.failures().of_component(ComponentClass.HDD)
    by_line = {name: len(sub) for name, sub in hdd.by_product_line().items()}
    line_name = max(by_line, key=by_line.get)
    line = trace.fleet.product_line(line_name)
    subset = dataset.of_product_line(line_name)
    print(
        f"busiest line: {line_name} ({line.workload} workload, "
        f"fault tolerance {line.fault_tolerance:.2f}, "
        f"{by_line[line_name]} HDD failures)\n"
    )

    # 2. Daily counts + batch frequency for the line.
    counts = batch.daily_counts(subset, ComponentClass.HDD)
    print("daily HDD failures (whole trace):")
    print("  |" + report.sparkline(counts, width=80) + "|")
    mean = counts.mean()
    for n in (int(3 * mean) or 3, int(6 * mean) or 6):
        freq = batch.batch_frequency(counts, n)
        print(f"  days with >= {n} failures: {report.format_percent(freq)}")
    print()

    # 3. Detect batch events from the tickets alone.
    events = batch.detect_batches(subset, ComponentClass.HDD, min_failures=15)
    rows = [
        (f"{e.start / 86400.0:.1f}", f"{e.duration_hours:.1f} h",
         e.n_failures, e.n_servers, e.dominant_type,
         report.format_percent(e.dominant_type_share))
        for e in events[:8]
    ]
    print(report.format_table(
        ["day", "window", "failures", "servers", "dominant type", "purity"],
        rows,
        title=f"detected HDD batch events on {line_name}",
    ))
    print()

    # 4. Ground truth: which injected storms hit this line?
    storm_tags = set()
    for ticket in subset:
        tag = ticket.detail.get("tag", "")
        if tag.startswith(("smart_storm", "sas_batch", "pdu_outage")):
            storm_tags.add(tag)
    print(f"ground truth: {len(storm_tags)} injected storm(s) touched this "
          f"line -> {sorted(storm_tags)[:6]}")

    matched = 0
    for record in trace.storms:
        if record.tag not in storm_tags:
            continue
        hit = any(
            e.start <= record.end and e.end >= record.start for e in events
        )
        matched += int(hit)
    if storm_tags:
        print(f"detector recovered {matched}/{len(storm_tags)} of them "
              f"without looking at the tags")


if __name__ == "__main__":
    main()
