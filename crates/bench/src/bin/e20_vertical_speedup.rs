//! Experiment binary: prints the e20_vertical_speedup report and
//! writes the measured rows to `BENCH_e20_vertical.json` (nightly CI
//! uploads it as an artifact so vertical-vs-kernel timings are tracked
//! over time).
//!
//! This binary installs a counting `#[global_allocator]`, so the
//! report also proves the vertical tier's zero-allocation claim, and —
//! because its timings are release-mode — it enforces the ISSUE-6
//! acceptance bar: the bit-sliced path must beat `run_kernel_batch` by
//! at least 4× on the same 64 zero-one lanes.

use pns_obs::CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    let rows = pns_bench::experiments::e20_vertical_speedup::collect(Some(CountingAlloc::count));
    let report = pns_bench::experiments::e20_vertical_speedup::report_from_rows(&rows);
    println!("{}", report.to_markdown());
    let json = serde_json::to_string_pretty(&rows).expect("rows serialize");
    std::fs::write("BENCH_e20_vertical.json", json).expect("write BENCH_e20_vertical.json");
    eprintln!("wrote BENCH_e20_vertical.json ({} configs)", rows.len());
    assert!(report.all_match, "experiment reported a mismatch");
    for row in &rows {
        assert!(
            row.bit_speedup >= 4.0,
            "{}^{}: bit speedup {:.1}x below the 4x acceptance bar",
            row.factor,
            row.r,
            row.bit_speedup
        );
    }
}
