//! E7 — branch-and-bound cost-limit abandonment (§4.3.2).
//!
//! ```text
//! cargo run --release -p disco-bench --bin pruning
//! ```

fn main() {
    print!("{}", disco_bench::run_pruning().expect("runs"));
}
