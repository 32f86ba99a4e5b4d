// must-fail: may lose the sign of the value
// header of: serve wire
#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]

fn main() {
    let n = -1 - i64::from(std::env::args().count() > 1);
    println!("{}", n as u64);
}
