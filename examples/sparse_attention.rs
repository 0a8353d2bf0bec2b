//! Structured sparse attention on DPTC (paper Section VI-A, Fig. 16):
//! blockify window local-attention patterns into dense chunked MMs and
//! measure the energy/latency payoff on LT-B.
//!
//! Prints the `repro fig16` experiment.
//!
//! ```sh
//! cargo run --release --example sparse_attention
//! ```

fn main() {
    print!("{}", lt_bench::experiments::sparse::fig16());
}
