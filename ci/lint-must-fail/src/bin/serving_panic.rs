// must-fail: `panic` should not be present in production code
// header of: serve wire exec grid measure
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]

fn main() {
    if std::env::args().count() > 1 {
        panic!("unexpected argument");
    }
}
