//! Regenerates every table and figure of the paper's evaluation in one run
//! (`cargo run --release -p astra-bench --bin all_experiments`).
fn main() {
    astra_bench::tables::print_table2();
    println!();
    astra_bench::tables::print_table3();
    println!();
    astra_bench::tables::print_table5();
    println!();
    astra_bench::fig4::print(&astra_bench::fig4::run());
    println!();
    astra_bench::speedup::print(&astra_bench::speedup::run());
    println!();
    astra_bench::table4::print(&astra_bench::table4::run());
    println!();
    astra_bench::fig9a::print(&astra_bench::fig9a::run());
    println!();
    astra_bench::fig9b::print(&astra_bench::fig9b::run());
    println!();
    let trace = astra_core::experiments::fig11_trace();
    let rows = astra_bench::fig11::run_with_trace(&trace);
    let points = astra_bench::fig11::sweep(&trace);
    astra_bench::fig11::print(&rows, &points);
}
