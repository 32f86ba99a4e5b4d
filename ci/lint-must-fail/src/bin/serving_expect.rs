// must-fail: used `expect()`
// header of: serve wire exec grid measure
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]

fn main() {
    println!("{}", std::env::args().next().expect("argv[0]"));
}
