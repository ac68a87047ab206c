//! Experiment binary: prints the e19_kernel_speedup report and writes
//! the measured rows to `BENCH_e19_kernel.json` (nightly CI uploads it
//! as an artifact so kernel-vs-interpreter timings are tracked over
//! time).
//!
//! This binary installs a counting `#[global_allocator]`, so the report
//! also proves the kernel tier's zero-allocation claim: warm
//! `run_kernel` calls must not touch the heap at all.

use pns_obs::CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    let rows = pns_bench::experiments::e19_kernel_speedup::collect(Some(CountingAlloc::count));
    let report = pns_bench::experiments::e19_kernel_speedup::report_from_rows(&rows);
    println!("{}", report.to_markdown());
    let json = serde_json::to_string_pretty(&rows).expect("rows serialize");
    std::fs::write("BENCH_e19_kernel.json", json).expect("write BENCH_e19_kernel.json");
    eprintln!("wrote BENCH_e19_kernel.json ({} configs)", rows.len());
    assert!(report.all_match, "experiment reported a mismatch");
}
