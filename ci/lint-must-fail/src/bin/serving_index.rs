// must-fail: indexing may panic
// header of: serve wire exec grid measure
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]

fn main() {
    let args: Vec<String> = std::env::args().collect();
    println!("{}", args[1]);
}
